"""JSON schemas for every object the CLI reads or writes.

Scalars are canonical ``"p/q"`` strings in exact mode.  Float mode is an
input and output format only: a JSON float is read as the simplest rational
that rounds to it (:func:`colocal.scalars.exact_scalars`), every computation
stays exact, and each scalar is written as ``float()`` of its exact value.
All dump functions produce deterministic structures (sorted keys are applied
at serialization time by the CLI).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotReversible
from .forms import Form, Path
from .measure import ProductMeasure, StateMeasure, WindowMeasure
from .scalars import (
    FLOAT_TOLERANCE,
    format_numerators,
    format_scalar,
    parse_numerators,
    parse_scalar,
)
from .statespace import (
    Config,
    Interaction,
    LatticeMeta,
    Locale,
    SiteSet,
    build_locale,
    lattice_window,
    make_interaction,
    siteset,
    validate_interaction,
)
from .tables import FnTable
from .varadhan import Cocycle, InvariantFormSpec, cocycle_from_coefficients

SCHEMA_VERSION = "1"


# -- locale -------------------------------------------------------------

def locale_from_json(obj: dict) -> Locale:
    lattice = obj.get("lattice")
    if lattice is not None and "sites" not in obj:
        if "radius" in lattice:
            return lattice_window(lattice["dim"], radius=lattice["radius"])
        return lattice_window(lattice["dim"], sizes=tuple(lattice["sizes"]))
    meta = None
    if lattice is not None:
        if "radius" in lattice:
            meta = LatticeMeta(lattice["dim"], "window", radius=lattice["radius"])
        else:
            meta = LatticeMeta(lattice["dim"], "torus",
                               sizes=tuple(lattice["sizes"]))
    return build_locale(obj["sites"], [tuple(e) for e in obj["edges"]], meta)


def locale_to_json(locale: Locale) -> dict:
    out = {"sites": list(locale.sites),
           "edges": sorted([o, t] for (o, t) in locale.edges)}
    if locale.lattice is not None:
        lat = {"dim": locale.lattice.dim}
        if locale.lattice.kind == "window":
            lat["radius"] = locale.lattice.radius
        else:
            lat["sizes"] = list(locale.lattice.sizes)
        out["lattice"] = lat
    return out


# -- interaction --------------------------------------------------------

def interaction_from_json(obj: dict) -> Interaction:
    """Build and validate an interaction; a phi that is not reversible
    raises ``NotReversible``."""
    states = tuple(obj["states"])
    phi = {}
    for pair in obj.get("phi", []):
        (a, b), (c, d) = pair
        phi[(a, b)] = (c, d)
    inter = make_interaction(states, obj["base"], phi)
    report = validate_interaction(inter)
    if not report.ok:
        label = inter.states
        raise NotReversible(
            "phi is not reversible: swap-then-phi twice does not return "
            "every changed pair",
            pairs=[[label[i], label[j]] for (i, j), _ in report.violations],
            returns_to=[[label[i], label[j]]
                        for _, (i, j) in report.violations])
    return inter


# -- measures -----------------------------------------------------------

def _weights(raw, mode: str) -> tuple:
    """Measure weights as read.  In float mode weights whose sum is within
    ``FLOAT_TOLERANCE`` of 1, but not 1, are normalised exactly (divided by
    their sum); any other sum but 1 is rejected by the measure."""
    weights = tuple(parse_scalar(w, mode) for w in raw)
    total = sum(weights)
    if mode == "float" and total != 1 and abs(total - 1) <= FLOAT_TOLERANCE:
        return tuple(w / total for w in weights)
    return weights


def state_measure_from_json(obj, states, mode: str = "exact") -> StateMeasure:
    """Accepts either a list of weights (state order, one per state) or a
    mapping keyed by the string form of each state label; see
    ``_weights``."""
    if not isinstance(obj, list):
        obj = [obj[str(s)] for s in states]
    elif len(obj) != len(states):
        raise ValueError(f"nu has {len(obj)} weights for {len(states)} states")
    return StateMeasure(_weights(obj, mode))


def measure_from_json(obj: dict, interaction: Interaction,
                      mode: str = "exact"):
    """{"kind": "product", "nu": ...} (the kind defaults to product) or
    {"kind": "window", "siteset": [...], "weights": {index: scalar}};
    see ``_weights``."""
    kind = obj.get("kind", "product")
    if kind == "product":
        return ProductMeasure(state_measure_from_json(
            obj["nu"], interaction.states, mode))
    if kind != "window":
        raise ValueError(f"unknown measure kind {kind!r}")
    sites = siteset(obj["siteset"])
    n = interaction.n_states
    size = n ** len(sites)
    weights = obj["weights"]
    if not isinstance(weights, list):
        weights = [weights[str(i)] for i in range(size)]
    return WindowMeasure(sites, n, _weights(weights, mode))


# -- tables and forms ---------------------------------------------------

def fn_table_from_json(obj: dict, interaction: Interaction,
                       mode: str = "exact") -> FnTable:
    sites = siteset(obj["siteset"])
    return FnTable.from_numerators(sites, interaction.n_states,
                                   *parse_numerators(obj["values"], mode))


def fn_table_to_json(f: FnTable, mode: str = "exact") -> dict:
    return {"siteset": list(f.sites),
            "values": format_numerators(*f.numerators, mode)}


def form_from_json(obj: dict, interaction: Interaction,
                   mode: str = "exact", validate: bool = True,
                   state_cap: int = 1 << 20) -> Form:
    """{"siteset": [...], "edges": [{"edge": [o, t], "support": [...]?,
    "values": [...]}]}; the listed edge orientation is the orientation the
    values describe."""
    from .forms import make_form

    sites = siteset(obj["siteset"])
    tables = {}
    edges = []
    for entry in obj["edges"]:
        edge = tuple(entry["edge"])
        support = siteset(entry.get("support", obj["siteset"]))
        tables[edge] = FnTable.from_numerators(
            support, interaction.n_states,
            *parse_numerators(entry["values"], mode))
        edges.append(edge)
    return make_form(sites, interaction, edges, tables, validate=validate,
                     state_cap=state_cap)


def form_to_json(form: Form, mode: str = "exact") -> dict:
    entries = []
    for e in form.edges:
        t = form.tables[e]
        entries.append({"edge": list(e), "support": list(t.sites),
                        "values": format_numerators(*t.numerators, mode)})
    return {"siteset": list(form.sites), "edges": entries}


def path_to_json(path: Path) -> dict:
    return {"start_siteset": list(path.start.sites),
            "start_assignment": list(path.start.assignment),
            "edges": [list(e) for e in path.edges]}


# -- cocycles and stencils -----------------------------------------------

def cocycle_from_json(obj, basis, n_states: int, mode: str = "exact") -> Cocycle:
    """A list of coefficient rows over the conserved basis, one per lattice
    generator."""
    rows = [[parse_scalar(c, mode) for c in row] for row in obj]
    return cocycle_from_coefficients(basis, rows, n_states)


def cocycle_to_json(rho: Cocycle, mode: str = "exact") -> dict:
    return {"generators": [[format_scalar(c, mode) for c in row]
                           for row in rho.images],
            "basis": [[format_scalar(v, mode) for v in xi.xi]
                      for xi in rho.basis]}


def invariant_spec_from_json(obj: dict, interaction: Interaction,
                             mode: str = "exact") -> InvariantFormSpec:
    template = locale_from_json(obj["template"])
    form = form_from_json(obj["form"], interaction, mode, validate=False)
    return InvariantFormSpec(template, form)


def invariant_spec_to_json(spec: InvariantFormSpec,
                           mode: str = "exact") -> dict:
    return {"template": locale_to_json(spec.template),
            "form": form_to_json(spec.form, mode)}


# -- generic ------------------------------------------------------------

def jsonify(value, mode: str = "exact"):
    """Best-effort conversion of library values into JSON-compatible data."""
    if isinstance(value, Fraction):
        return format_scalar(value, mode)
    if isinstance(value, dict):
        return {str(k): jsonify(v, mode) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v, mode) for v in value]
    if isinstance(value, SiteSet):
        return list(value.sites)
    if isinstance(value, Config):
        return {"siteset": list(value.sites), "assignment": list(value.assignment)}
    if isinstance(value, Path):
        return path_to_json(value)
    if isinstance(value, frozenset):
        return sorted(jsonify(v, mode) for v in value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)
