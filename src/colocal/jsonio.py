"""JSON schemas for every object the CLI reads or writes.

Scalars are canonical ``"p/q"`` strings in exact mode.  Float mode is an
input and output format only: a JSON float is read as the simplest rational
that rounds to it (:func:`colocal.scalars.exact_scalars`), every computation
stays exact, and each scalar is written as ``float()`` of its exact value.
All dump functions produce deterministic structures; ``write_report``
writes them with sorted keys.  The components of an expansion are handed
to the writer as a :class:`LazyMapping`, so that each one is formatted
only when it is written.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .forms import Form, Path
from .functions import Expansion
from .measure import ProductMeasure, StateMeasure, WindowMeasure
from .scalars import (
    FLOAT_TOLERANCE,
    format_numerators,
    format_scalar,
    numerator_text,
    parse_numerators,
    parse_scalar,
)
from .statespace import (
    Config,
    Interaction,
    Locale,
    SiteSet,
    build_locale,
    check_int,
    lattice_window,
    make_interaction,
    require_reversible,
    siteset,
)
from .tables import FnTable
from .varadhan import Cocycle, InvariantFormSpec, cocycle_from_coefficients

SCHEMA_VERSION = "1"


def _object(value, field: str) -> dict:
    """The value of a field that must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be an object, got {value!r}")
    return value


# -- locale -------------------------------------------------------------

def _is_site_list(value) -> bool:
    return isinstance(value, list) and not any(
        isinstance(s, bool) or not isinstance(s, int) for s in value)


def site_list(value, field: str) -> list[int]:
    """The value of a field that must be a JSON list of site ids: ints that
    are not bools."""
    if not _is_site_list(value):
        raise ValueError(f"{field} must be a list of ints, got {value!r}")
    return value


def site_lists(value, field: str) -> list[list[int]]:
    """The value of a field that must be a JSON list of site lists (see
    ``site_list``)."""
    if not isinstance(value, list) or not all(map(_is_site_list, value)):
        raise ValueError(
            f"{field} must be a list of lists of ints, got {value!r}")
    return value


def locale_from_json(obj: dict) -> Locale:
    lattice = _object(obj, "locale").get("lattice")
    if lattice is None:
        return build_locale(site_list(obj["sites"], "locale sites"),
                            site_lists(obj["edges"], "locale edges"))
    dim = check_int(_object(lattice, "lattice")["dim"], "lattice dim")
    if "radius" in lattice:
        kind, radius = "window", check_int(lattice["radius"],
                                           "lattice radius")
        sizes = None
    else:
        sizes = lattice["sizes"]
        if not isinstance(sizes, list):
            raise ValueError(f"lattice sizes must be a list, got {sizes!r}")
        kind, radius = "torus", None
        sizes = tuple(check_int(s, "lattice sizes entry") for s in sizes)
    chart = lattice_window(dim, radius=radius, sizes=sizes)
    if "sites" in obj:
        # stencils and windows are placed by the chart's index arithmetic
        given = build_locale(site_list(obj["sites"], "locale sites"),
                             site_lists(obj["edges"], "locale edges"),
                             chart.lattice)
        if given != chart:
            raise ValueError(
                f"locale sites and edges are not those of its {kind} chart")
    return chart


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
    require_reversible(inter)
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
    kind = _object(obj, "measure").get("kind", "product")
    if kind == "product":
        return ProductMeasure(state_measure_from_json(
            obj["nu"], interaction.states, mode))
    if kind != "window":
        raise ValueError(f"unknown measure kind {kind!r}")
    sites = siteset(site_list(obj["siteset"], "measure siteset"))
    n = interaction.n_states
    size = n ** len(sites)
    weights = obj["weights"]
    if not isinstance(weights, list):
        weights = [weights[str(i)] for i in range(size)]
    return WindowMeasure(sites, n, _weights(weights, mode))


# -- tables and forms ---------------------------------------------------

def fn_table_from_json(obj: dict, interaction: Interaction,
                       mode: str = "exact") -> FnTable:
    sites = siteset(site_list(obj["siteset"], "fn siteset"))
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

    sites = siteset(site_list(obj["siteset"], "form siteset"))
    tables = {}
    edges = []
    for entry in obj["edges"]:
        edge = entry["edge"]
        if not isinstance(edge, list) or len(edge) != 2:
            raise ValueError(f"form edge {edge!r} is not a list of two sites")
        edge = tuple(site_list(edge, "form edge"))
        support = siteset(site_list(entry.get("support", obj["siteset"]),
                                    "form edge support"))
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


class LazyMapping:
    """A read-only mapping over the given keys whose value at a key is made
    by ``value(key)`` each time it is read.  ``write_report`` writes it as
    a dict, reading each value once as it writes it, so the values never
    exist all at once."""

    def __init__(self, keys: Collection, value):
        self._keys = keys
        self._value = value

    def __getitem__(self, key):
        if key not in self._keys:
            raise KeyError(key)
        return self._value(key)

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def expansion_to_json(expansion: Expansion,
                      mode: str = "exact") -> LazyMapping:
    """The components of an expansion keyed by the decimal bitmask of their
    subset (bit k for the site at position k), each ``{"subset": [...],
    "values": [...]}`` made when it is read.  The tables of one denominator
    share one text per numerator.  In float mode the extremes of every
    table are formatted here, so that a value out of the float range raises
    ``OverflowError`` before the report's first byte."""
    subsets = {str(expansion.subset_bitmask(sub)): sub
               for sub in expansion.components}
    texts = {}

    def component(key: str) -> dict:
        sub = subsets[key]
        nums, den = expansion.components[sub].numerators
        if den not in texts:
            texts[den] = numerator_text(den, mode)
        return {"subset": list(sub), "values": texts[den](nums)}

    if mode == "float":
        for table in expansion.components.values():
            nums, den = table.numerators
            format_numerators([max(nums), min(nums)], den, mode)
    return LazyMapping(subsets, component)


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


# -- report writer --------------------------------------------------------
#
# json.dumps runs its pure-Python encoder whenever ``indent`` is set, one
# generator step per value.  The writer below keeps that layout but
# encodes each list of leaves as one chunk, at C iteration speed.

_INDENT = "  "
_CONTAINERS = (list, tuple, dict, LazyMapping)
# the characters encode_basestring_ascii copies unescaped
_PLAIN = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')


def write_report(report, fh) -> None:
    """Write to the text file ``fh`` the text ``json.dumps`` makes of the
    report with sorted keys and an indent of two spaces, plus a newline:
    chunk by chunk, a list of leaves as one chunk.  A ``LazyMapping`` is
    written as the dict it stands for.  A key that is not a ``str`` raises
    ``TypeError``, as does a value JSON cannot hold."""
    _write_value(report, fh.write, "\n")
    fh.write("\n")


def _leaf_text(value) -> str:
    """The JSON text of a value that is not a list, tuple or dict."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


def _write_value(value, write, newline: str) -> None:
    """Write one value; ``newline`` is a line break plus the indent of the
    line the value starts on."""
    if isinstance(value, (dict, LazyMapping)):
        _write_dict(value, write, newline)
    elif isinstance(value, (list, tuple)):
        _write_list(value, write, newline)
    else:
        write(_leaf_text(value))


def _write_list(items, write, newline: str) -> None:
    if not items:
        write("[]")
        return
    inner = newline + _INDENT
    sep = "," + inner
    kinds = set(map(type, items))
    if kinds == {str}:
        joined = "".join(items)
        if (joined.isascii()
                and not joined.encode("ascii").translate(None, _PLAIN)):
            # no character needs an escape: quote every item in one join
            body = '"' + f'"{sep}"'.join(items) + '"'
        else:
            body = sep.join(map(_quote, items))
    elif kinds == {int}:
        body = sep.join(map(int.__repr__, items))
    elif not any(issubclass(kind, _CONTAINERS) for kind in kinds):
        body = sep.join(map(_leaf_text, items))
    else:
        opener = "["
        for item in items:
            write(opener + inner)
            _write_value(item, write, inner)
            opener = ","
        write(newline + "]")
        return
    write(f"[{inner}{body}{newline}]")


def _write_dict(obj: dict | LazyMapping, write, newline: str) -> None:
    if not obj:
        write("{}")
        return
    for kind in set(map(type, obj)):
        if not issubclass(kind, str):
            raise TypeError(f"keys must be str, not {kind.__name__}")
    inner = newline + _INDENT
    opener = "{"
    for key in sorted(obj):
        write(f"{opener}{inner}{_quote(key)}: ")
        _write_value(obj[key], write, inner)
        opener = ","
    write(newline + "}")
