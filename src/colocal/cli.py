"""Command-line interface.

One subcommand per pipeline stage; every run reads a single JSON input file
and writes a deterministic JSON report (stdout by default).  Exit codes:
0 success, 1 domain error (structured error JSON still written), 2 usage
error.  ``--mode float`` changes only how numbers are read and written (see
:mod:`colocal.jsonio`); every computation is exact.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import jsonio
from .errors import ColocalError, NotClosed
from .forms import (
    closed_form_space_dimension,
    kernel_basis,
    project_form,
    solve_potential,
)
from .functions import (
    check_iq,
    conserved_quantities,
    expand_martingale,
    uniform_radius,
)
from .jsonio import SCHEMA_VERSION, jsonify
from .l2 import martingale_chain_report
from .measure import ProductMeasure, conditional_expectation
from .statespace import DEFAULT_STATE_CAP, DEFAULT_SUBSET_CAP, siteset
from .varadhan import (
    decompose_invariant_form,
    interior_edges,
    invariant_form_from_cocycle,
)


@dataclass
class RunConfig:
    subcommand: str
    input_path: str
    output_path: Optional[str]
    state_cap: int
    subset_cap: int
    mode: str


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colocal",
        description="Exact finite-window algebra for lattice interacting systems.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, doc in [
        ("conserved", "basis of conserved quantities"),
        ("iq", "refute irreducible quantification on given locales"),
        ("expand", "subset expansion and its uniform radius"),
        ("project", "conditional expectation of a function or form"),
        ("closed", "solve a form for a potential or report a witness cycle"),
        ("dims", "kernel components and closed-form dimensions"),
        ("varadhan", "decompose a shift-invariant closed form"),
        ("martingale", "norm report along a nested chain"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", help="output JSON file (default stdout)")
        p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
        p.add_argument("--subset-cap", type=int, default=DEFAULT_SUBSET_CAP)
        p.add_argument("--mode", choices=["exact", "float"], default="exact")
    return parser


def _config_from_args(args) -> RunConfig:
    if args.state_cap <= 0 or args.subset_cap <= 0:
        raise UsageError("caps must be positive")
    return RunConfig(args.subcommand, args.input, args.output, args.state_cap,
                     args.subset_cap, args.mode)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_common(payload: dict, cfg: RunConfig):
    """The interaction and the state measure ``nu``; a missing ``nu`` is
    malformed input (a KeyError)."""
    interaction = jsonio.interaction_from_json(payload["interaction"])
    return interaction, jsonio.state_measure_from_json(
        payload["nu"], interaction.states, cfg.mode)


def _run_conserved(payload: dict, cfg: RunConfig) -> dict:
    interaction, nu = _load_common(payload, cfg)
    basis = conserved_quantities(interaction, nu)
    return {"dimension": len(basis),
            "basis": [[jsonio.format_scalar(v, cfg.mode) for v in xi.xi]
                      for xi in basis]}


def _run_iq(payload: dict, cfg: RunConfig) -> dict:
    interaction, nu = _load_common(payload, cfg)
    locales = [jsonio.locale_from_json(o) for o in payload["locales"]]
    report = check_iq(interaction, nu, locales, cfg.state_cap)
    results = []
    for k, res in enumerate(report.results):
        results.append({
            "index": k,
            "ok": res.ok,
            "witnesses": [{"totals": [jsonio.format_scalar(t, cfg.mode)
                                      for t in totals],
                           "first": list(a), "second": list(b)}
                          for totals, a, b in res.witnesses],
        })
    return {"ok": report.ok, "results": results,
            "basis_dimension": len(report.basis)}


def _run_expand(payload: dict, cfg: RunConfig) -> dict:
    interaction, nu = _load_common(payload, cfg)
    locale = jsonio.locale_from_json(payload["locale"])
    f = jsonio.fn_table_from_json(payload["fn"], interaction, cfg.mode)
    expansion = expand_martingale(f, nu, cfg.subset_cap)
    components = {}
    for sub, table in sorted(expansion.components.items()):
        mask = expansion.subset_bitmask(sub)
        components[str(mask)] = {
            "subset": list(sub),
            "values": jsonio.format_numerators(*table.numerators, cfg.mode)}
    return {"components": components,
            "uniform_radius": uniform_radius(expansion, locale)}


def _run_project(payload: dict, cfg: RunConfig) -> dict:
    interaction = jsonio.interaction_from_json(payload["interaction"])
    mu = jsonio.measure_from_json(payload["measure"], interaction, cfg.mode)
    target = siteset(payload["target"])
    if "fn" in payload:
        f = jsonio.fn_table_from_json(payload["fn"], interaction, cfg.mode)
        projected = conditional_expectation(f, target, mu)
        return {"fn": jsonio.fn_table_to_json(projected, cfg.mode)}
    form = jsonio.form_from_json(payload["form"], interaction, cfg.mode,
                                 state_cap=cfg.state_cap)
    locale = (jsonio.locale_from_json(payload["locale"])
              if "locale" in payload else None)
    projected = project_form(form, target, mu, locale,
                             state_cap=cfg.state_cap)
    return {"form": jsonio.form_to_json(projected, cfg.mode)}


def _run_closed(payload: dict, cfg: RunConfig) -> dict:
    interaction = jsonio.interaction_from_json(payload["interaction"])
    mu = (jsonio.measure_from_json(payload["measure"], interaction, cfg.mode)
          if "measure" in payload else None)
    form = jsonio.form_from_json(payload["form"], interaction, cfg.mode,
                                 state_cap=cfg.state_cap)
    potential = solve_potential(form, mu, state_cap=cfg.state_cap)
    return {"potential": jsonio.fn_table_to_json(potential, cfg.mode)}


def _run_dims(payload: dict, cfg: RunConfig) -> dict:
    interaction, nu = _load_common(payload, cfg)
    locale = jsonio.locale_from_json(payload["locale"])
    sites = siteset(payload.get("siteset", locale.sites))
    mu = ProductMeasure(nu)
    kb = kernel_basis(sites, interaction, locale, mu, cfg.state_cap)
    size = interaction.n_states ** len(sites)
    dim_c0 = size - 1
    dim_ker_meanzero = kb.n_components - 1
    return {
        "components": kb.n_components,
        "dim_C0": dim_c0,
        "dim_ker": kb.n_components,
        "dim_ker_meanzero": dim_ker_meanzero,
        "dim_Z1": dim_c0 - dim_ker_meanzero,
        "dim_Z1_bruteforce": closed_form_space_dimension(
            sites, interaction, locale, cfg.state_cap),
    }


def _run_varadhan(payload: dict, cfg: RunConfig) -> dict:
    interaction, nu = _load_common(payload, cfg)
    basis = conserved_quantities(interaction, nu)
    dim = payload["dim"]
    window = jsonio.locale_from_json(payload["window"])
    spec = None
    if "cocycle" in payload:
        rho_in = jsonio.cocycle_from_json(payload["cocycle"], basis,
                                          interaction.n_states, cfg.mode)
        spec = invariant_form_from_cocycle(rho_in, interaction, dim)
    if "stencil" in payload:
        stencil = jsonio.invariant_spec_from_json(payload["stencil"],
                                                  interaction, cfg.mode)
        spec = stencil if spec is None else spec + stencil
    if spec is None:
        raise UsageError("varadhan input needs a cocycle or a stencil")
    decomposition = decompose_invariant_form(
        spec, window, nu, margin=payload.get("margin"),
        state_cap=cfg.state_cap)
    result = {
        "cocycle": jsonio.cocycle_to_json(decomposition.cocycle, cfg.mode),
        "mode": decomposition.mode,
        "margin": decomposition.margin,
        "checks": jsonify(decomposition.checks, cfg.mode),
        "residual_stencil": jsonio.invariant_spec_to_json(
            decomposition.residual_spec, cfg.mode),
    }
    if decomposition.residual_form is not None:
        inside = set(interior_edges(window, decomposition.margin))
        interior = [e for e in decomposition.residual_form.edges if e in inside]
        result["residual_interior_edges"] = [
            {"edge": list(e),
             "values": jsonio.format_numerators(
                 *decomposition.residual_form.tables[e].numerators, cfg.mode),
             "support": list(decomposition.residual_form.tables[e].sites)}
            for e in interior]
    return result


def _run_martingale(payload: dict, cfg: RunConfig) -> dict:
    interaction, nu = _load_common(payload, cfg)
    mu = ProductMeasure(nu)
    f = jsonio.fn_table_from_json(payload["fn"], interaction, cfg.mode)
    chain = [siteset(w) for w in payload["chain"]]
    return martingale_chain_report(f, chain, mu).to_json_dict(cfg.mode)


_RUNNERS = {
    "conserved": _run_conserved,
    "iq": _run_iq,
    "expand": _run_expand,
    "project": _run_project,
    "closed": _run_closed,
    "dims": _run_dims,
    "varadhan": _run_varadhan,
    "martingale": _run_martingale,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _emit(report: dict, cfg: RunConfig) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse has printed the usage error
        return exc.code
    try:
        cfg = _config_from_args(args)
        with open(cfg.input_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:   # includes JSONDecodeError
        print(f"usage error: cannot read input: {exc}", file=sys.stderr)
        return 2

    envelope = {"schema_version": SCHEMA_VERSION, "subcommand": cfg.subcommand}
    try:
        result = _RUNNERS[cfg.subcommand](payload, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, TypeError) as exc:
        print(f"usage error: malformed input: {exc!r}", file=sys.stderr)
        return 2
    except ColocalError as exc:
        envelope["ok"] = False
        error = {"name": exc.name, "message": exc.message,
                 "details": jsonify(exc.details, cfg.mode)}
        if isinstance(exc, NotClosed) and exc.witness is not None:
            error["witness"] = jsonio.path_to_json(exc.witness)
            error["integral"] = jsonio.format_scalar(exc.integral, cfg.mode)
        envelope["error"] = error
        _emit(envelope, cfg)
        return 1
    envelope["ok"] = True
    envelope["result"] = result
    _emit(envelope, cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
