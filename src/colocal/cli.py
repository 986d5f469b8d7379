"""Command-line interface.

One subcommand per pipeline stage; every run reads a single JSON input file
and writes a deterministic JSON report (stdout by default).  One parser,
built at import, reads the subcommand and the five flags, in any order.
Exit codes: 0 success, 1 domain error (structured error JSON still
written), 2 usage error.  ``--mode float`` changes only how numbers are
read and written (see :mod:`colocal.jsonio`); every computation is exact.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .errors import ColocalError, NotClosed
from .forms import project_form, solve_potential
from .functions import (
    check_iq,
    conserved_quantities,
    expand_martingale,
    uniform_radius,
)
from .jsonio import SCHEMA_VERSION, jsonify
from .l2 import martingale_chain_report
from .measure import ProductMeasure, conditional_expectation
from .statespace import (
    DEFAULT_STATE_CAP,
    DEFAULT_SUBSET_CAP,
    check_int,
    siteset,
    transition_graph,
)
from .varadhan import (
    decompose_invariant_form,
    invariant_form_from_cocycle,
)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_common(payload: dict, args: argparse.Namespace):
    """The interaction and the state measure ``nu``; a missing ``nu`` is
    malformed input (a KeyError)."""
    interaction = jsonio.interaction_from_json(payload["interaction"])
    return interaction, jsonio.state_measure_from_json(
        payload["nu"], interaction.states, args.mode)


def _run_conserved(payload: dict, args: argparse.Namespace) -> dict:
    """Basis of conserved quantities."""
    interaction, nu = _load_common(payload, args)
    basis = conserved_quantities(interaction, nu)
    return {"dimension": len(basis),
            "basis": [[jsonio.format_scalar(v, args.mode) for v in xi.xi]
                      for xi in basis]}


def _run_iq(payload: dict, args: argparse.Namespace) -> dict:
    """Refute irreducible quantification on given locales."""
    interaction, nu = _load_common(payload, args)
    locales = [jsonio.locale_from_json(o) for o in payload["locales"]]
    report = check_iq(interaction, nu, locales, args.state_cap)
    results = []
    for k, res in enumerate(report.results):
        results.append({
            "index": k,
            "ok": res.ok,
            "witnesses": [{"totals": [jsonio.format_scalar(t, args.mode)
                                      for t in totals],
                           "first": list(a), "second": list(b)}
                          for totals, a, b in res.witnesses],
        })
    return {"ok": report.ok, "results": results,
            "basis_dimension": len(report.basis)}


def _run_expand(payload: dict, args: argparse.Namespace) -> dict:
    """Subset expansion and its uniform radius."""
    interaction, nu = _load_common(payload, args)
    locale = jsonio.locale_from_json(payload["locale"])
    f = jsonio.fn_table_from_json(payload["fn"], interaction, args.mode)
    expansion = expand_martingale(f, nu, args.subset_cap)
    # everything that can raise runs before the report's first byte: the
    # components are formatted one at a time as they are written
    radius = uniform_radius(expansion, locale)
    return {"components": jsonio.expansion_to_json(expansion, args.mode),
            "uniform_radius": radius}


def _run_project(payload: dict, args: argparse.Namespace) -> dict:
    """Conditional expectation of a function or form."""
    interaction = jsonio.interaction_from_json(payload["interaction"])
    mu = jsonio.measure_from_json(payload["measure"], interaction, args.mode)
    target = siteset(jsonio.site_list(payload["target"], "target"))
    if "fn" in payload:
        f = jsonio.fn_table_from_json(payload["fn"], interaction, args.mode)
        projected = conditional_expectation(f, target, mu)
        return {"fn": jsonio.fn_table_to_json(projected, args.mode)}
    form = jsonio.form_from_json(payload["form"], interaction, args.mode,
                                 state_cap=args.state_cap)
    locale = (jsonio.locale_from_json(payload["locale"])
              if "locale" in payload else None)
    projected = project_form(form, target, mu, locale,
                             state_cap=args.state_cap)
    return {"form": jsonio.form_to_json(projected, args.mode)}


def _run_closed(payload: dict, args: argparse.Namespace) -> dict:
    """Solve a form for a potential or report a witness cycle."""
    interaction = jsonio.interaction_from_json(payload["interaction"])
    mu = (jsonio.measure_from_json(payload["measure"], interaction, args.mode)
          if "measure" in payload else None)
    form = jsonio.form_from_json(payload["form"], interaction, args.mode,
                                 state_cap=args.state_cap)
    potential = solve_potential(form, mu, state_cap=args.state_cap)
    return {"potential": jsonio.fn_table_to_json(potential, args.mode)}


def _run_dims(payload: dict, args: argparse.Namespace) -> dict:
    """Kernel components and closed-form dimensions."""
    interaction, _ = _load_common(payload, args)   # nu is read and checked
    locale = jsonio.locale_from_json(payload["locale"])
    sites = (siteset(jsonio.site_list(payload["siteset"], "siteset"))
             if "siteset" in payload else siteset(locale.sites))
    graph = transition_graph(sites, interaction, locale, args.state_cap)
    size, components = graph.space.size, graph.n_components
    # closed forms are exact on a finite graph: dim Z1 is the rank of the
    # differential, configurations minus components
    return {
        "components": components,
        "dim_C0": size - 1,
        "dim_ker": components,
        "dim_ker_meanzero": components - 1,
        "dim_Z1": size - components,
        "dim_Z1_bruteforce": size - components,
    }


def _run_varadhan(payload: dict, args: argparse.Namespace) -> dict:
    """Decompose a shift-invariant closed form."""
    interaction, nu = _load_common(payload, args)
    basis = conserved_quantities(interaction, nu)
    dim = check_int(payload["dim"], "dim", 1)
    window = jsonio.locale_from_json(payload["window"])
    spec = None
    if "cocycle" in payload:
        rho_in = jsonio.cocycle_from_json(payload["cocycle"], basis,
                                          interaction.n_states, args.mode)
        spec = invariant_form_from_cocycle(rho_in, interaction, dim)
    if "stencil" in payload:
        stencil = jsonio.invariant_spec_from_json(payload["stencil"],
                                                  interaction, args.mode)
        spec = stencil if spec is None else spec + stencil
    if spec is None:
        raise ValueError("varadhan input needs a cocycle or a stencil")
    decomposition = decompose_invariant_form(
        spec, window, nu, margin=payload.get("margin"),
        state_cap=args.state_cap)
    result = {
        "cocycle": jsonio.cocycle_to_json(decomposition.cocycle, args.mode),
        "mode": decomposition.mode,
        "margin": decomposition.margin,
        "checks": jsonify(decomposition.checks, args.mode),
        "residual_stencil": jsonio.invariant_spec_to_json(
            decomposition.residual_spec, args.mode),
    }
    if decomposition.mode == "window":
        result["residual_interior_edges"] = [
            {"edge": list(e),
             "values": jsonio.format_numerators(*table.numerators,
                                                args.mode),
             "support": list(table.sites)}
            for e, table in decomposition.residual_interior.items()]
    return result


def _run_martingale(payload: dict, args: argparse.Namespace) -> dict:
    """Norm report along a nested chain."""
    interaction, nu = _load_common(payload, args)
    mu = ProductMeasure(nu)
    f = jsonio.fn_table_from_json(payload["fn"], interaction, args.mode)
    chain = [siteset(w)
             for w in jsonio.site_lists(payload["chain"], "chain")]
    return martingale_chain_report(f, chain, mu).to_json_dict(args.mode)


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


def positive_int(text: str) -> int:
    """A cap flag's value; argparse reports the ValueError as exit 2."""
    value = int(text)
    if value <= 0:
        raise ValueError(text)
    return value


# one parser, built once: the subcommand is a positional whose choices and
# help come from _RUNNERS, and the five flags are declared once
_PARSER = argparse.ArgumentParser(
    prog="colocal",
    usage="%(prog)s <subcommand> --input IN.json [--output OUT.json]\n"
          "               [--state-cap N] [--subset-cap N] "
          "[--mode exact|float]",
    description="Exact finite-window algebra for lattice interacting systems.",
    epilog="subcommands:\n" + "\n".join(
        f"  {name:<12}{run.__doc__}" for name, run in _RUNNERS.items()),
    formatter_class=argparse.RawDescriptionHelpFormatter)
_PARSER.add_argument("subcommand", choices=_RUNNERS, metavar="<subcommand>",
                     help="one of the subcommands listed below")
_PARSER.add_argument("--input", required=True, metavar="IN.json",
                     help="input JSON file")
_PARSER.add_argument("--output", metavar="OUT.json",
                     help="output JSON file (default stdout)")
_PARSER.add_argument("--state-cap", type=positive_int, metavar="N",
                     default=DEFAULT_STATE_CAP,
                     help="configuration cap (%(default)s)")
_PARSER.add_argument("--subset-cap", type=positive_int, metavar="N",
                     default=DEFAULT_SUBSET_CAP,
                     help="expansion site cap (%(default)s; the expansion "
                          "of N sites with n states has (n+1)^N entries)")
_PARSER.add_argument("--mode", choices=["exact", "float"], default="exact",
                     help="number format of input and output")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _emit(report: dict, output: str | None) -> None:
    """Write the report to ``output``, or to stdout; raises OSError."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            jsonio.write_report(report, fh)
    else:
        jsonio.write_report(report, sys.stdout)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:   # argparse has printed the usage error
        return exc.code
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:   # includes JSONDecodeError
        print(f"usage error: cannot read input: {exc}", file=sys.stderr)
        return 2

    envelope = {"schema_version": SCHEMA_VERSION,
                "subcommand": args.subcommand}
    try:
        envelope["result"] = _RUNNERS[args.subcommand](payload, args)
        envelope["ok"], code = True, 0
    except (KeyError, ValueError, TypeError) as exc:
        print(f"usage error: malformed input: {exc!r}", file=sys.stderr)
        return 2
    except ColocalError as exc:
        error = {"name": exc.name, "message": exc.message,
                 "details": jsonify(exc.details, args.mode)}
        if isinstance(exc, NotClosed) and exc.witness is not None:
            error["witness"] = jsonio.path_to_json(exc.witness)
            error["integral"] = jsonio.format_scalar(exc.integral, args.mode)
        envelope["ok"], envelope["error"], code = False, error, 1
    try:
        _emit(envelope, args.output)
    except OSError as exc:
        print(f"usage error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
