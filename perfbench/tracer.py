"""Outside-in tracing of colocal from the benchmark's own code.

``Tracer.install`` wraps the public functions of each colocal module (the
layers) and rebinds every copy a ``from .x import y`` left in the importing
modules, so calls between layers go through the wrappers too.  Each call
records a span: name, start, end, parent span, job id, plus a work count
taken from the arguments.  Spans stay in memory; the caller writes them
out at the end of the run.  Self time is a span's duration minus the time
its child spans cover.

Per-configuration helpers (``ConfigSpace.decode``, ``FnTable.value_at``,
``FnTable.evaluate_in``, ``forms.canonical_edge``) are not spanned: a
wrapper on them would cost more than the work they do.  ``decode`` is
counted by ``DecodeCounter`` in a separate count-only pass instead.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter


def _table_configs(f, *args, **kwargs):
    return f.n_states ** len(f.sites)


def _subsets(f, *args, **kwargs):
    return 2 ** len(f.sites)


def _targets():
    """(span name, module, attribute or "Class.method", work count from the
    arguments or None) for every wrapped callable."""
    out = [
        ("cli.main", "cli", "main", None),
        ("statespace.transition_graph", "statespace", "transition_graph",
         None),
        ("measure.conditional_expectation", "measure",
         "conditional_expectation", _table_configs),
        ("forms.solve_potential", "forms", "solve_potential", _table_configs),
        ("functions.expand_martingale", "functions", "expand_martingale",
         _subsets),
        ("varadhan.decompose", "varadhan", "decompose_invariant_form", None),
        ("varadhan.materialize", "varadhan", "InvariantFormSpec.materialize",
         None),
        ("varadhan.theta", "varadhan", "theta_from_cocycle", None),
    ]
    groups = {
        "varadhan.stencil": ["invariant_form_from_cocycle",
                             "invariant_spec_from_anchors",
                             "invariant_form_from_potential_stencil",
                             "InvariantFormSpec.__add__",
                             "InvariantFormSpec.__sub__",
                             "InvariantFormSpec.check_invariance"],
    }
    per_function = {
        "varadhan": ["omega_from_cocycle", "verify_cocycle_identity",
                     "interior_sites", "interior_edges",
                     "cocycle_from_coefficients"],
        "forms": ["make_form", "validate_form", "differential",
                  "path_configs", "path_integral", "kernel_basis",
                  "closed_form_space_dimension", "project_form"],
        "functions": ["iota_restrict", "build_chain", "uniform_radius",
                      "conserved_quantities", "conserved_colocal",
                      "check_iq"],
        "measure": ["is_ordinary", "expectation", "inner", "materialize",
                    "pushforward"],
        "tables": ["FnTable." + m for m in
                   ("__add__", "__sub__", "__neg__", "__mul__", "scale",
                    "shift", "is_zero", "equals", "embed", "depends_on",
                    "minimized", "relabel")]
                  + ["fn_constant", "fn_zeros", "fn_from_callable",
                     "site_table", "site_occupation"],
        "linalg": ["rref", "rank", "nullspace", "solve", "solve_in_span"],
        "l2": ["l2_norm", "form_l2_norm", "martingale_chain_report"],
    }
    jsonio = sys.modules["colocal.jsonio"]
    per_function["jsonio"] = [
        name for name, value in vars(jsonio).items()
        if callable(value) and not isinstance(value, type)
        and not name.startswith("_")
        and getattr(value, "__module__", None) == "colocal.jsonio"]
    for span, attrs in groups.items():
        out += [(span, span.split(".")[0], attr, None) for attr in attrs]
    for module, attrs in per_function.items():
        out += [(f"{module}.{attr.split('.')[-1]}", module, attr, None)
                for attr in attrs]
    return out


def _colocal_modules():
    return [m for name, m in sys.modules.items()
            if name == "colocal" or name.startswith("colocal.")]


class _Patches:
    """Replace objects in colocal and put them back."""

    def __init__(self):
        self._undo = []

    def function(self, original, replacement):
        """Rebind ``original`` wherever a colocal module holds it."""
        for mod in _colocal_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def method(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _resolve(module: str, attr: str):
    mod = sys.modules[f"colocal.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, cls.__dict__[meth]
    return None, attr, getattr(mod, attr)


class Tracer:
    """Span recorder.  Spans are kept column-wise in flat lists, which the
    garbage collector does not have to walk span by span; ``parent`` is a
    span index or -1."""

    FIELDS = ("name", "start", "end", "parent", "job", "work", "self")

    def __init__(self):
        self.job = None
        self._cols = {f: [] for f in self.FIELDS}   # "self" holds child time
        self._stack: list[int] = []
        self._patches = _Patches()

    def spans(self):
        """Rows of FIELDS, with self time in the last column."""
        c = self._cols
        return [(n, s, e, p, j, w, (e - s) - child) for n, s, e, p, j, w, child
                in zip(c["name"], c["start"], c["end"], c["parent"], c["job"],
                       c["work"], c["self"])]

    def _wrap(self, name, fn, work):
        c, stack = self._cols, self._stack
        names, starts, ends, parents = c["name"], c["start"], c["end"], \
            c["parent"]
        jobs, works, child = c["job"], c["work"], c["self"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(names)
            names.append(name)
            parents.append(parent)
            jobs.append(self.job)
            works.append(work(*args, **kwargs) if work else 0)
            child.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[idx] = end
                stack.pop()
                if parent >= 0:
                    child[parent] += end - start
        return wrapper

    def install(self):
        for name, module, attr, work in _targets():
            cls, meth, original = _resolve(module, attr)
            wrapper = self._wrap(name, original, work)
            if cls is not None:
                self._patches.method(cls, meth, wrapper)
            else:
                self._patches.function(original, wrapper)

    def uninstall(self):
        self._patches.restore()


class DecodeCounter:
    """Count-only wrapper on ``ConfigSpace.decode``."""

    def __init__(self):
        self.calls = 0
        self._patches = _Patches()

    def install(self):
        cls = sys.modules["colocal.statespace"].ConfigSpace
        original = cls.__dict__["decode"]

        @functools.wraps(original)
        def decode(space, index):
            self.calls += 1
            return original(space, index)
        self._patches.method(cls, "decode", decode)

    def uninstall(self):
        self._patches.restore()


def aggregate(spans) -> dict:
    """Per span name and per module: calls, self seconds, work count."""
    agg: dict[str, list] = {}
    for name, _start, _end, _parent, _job, work, self_s in spans:
        for key in (name, name.split(".")[0]):
            entry = agg.setdefault(key, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += self_s
            entry[2] += work
    return agg


# Per-layer metrics: (metric, unit, span or module key, field).  Field 0 is
# calls, 1 self seconds, 2 the work count (configurations or subsets).
LAYER_METRICS = [
    ("measure.conditional_expectation.calls", "count",
     "measure.conditional_expectation", 0),
    ("measure.conditional_expectation.self_s", "s",
     "measure.conditional_expectation", 1),
    ("measure.conditional_expectation.configs", "count",
     "measure.conditional_expectation", 2),
    ("forms.solve_potential.calls", "count", "forms.solve_potential", 0),
    ("forms.solve_potential.self_s", "s", "forms.solve_potential", 1),
    ("forms.solve_potential.configs", "count", "forms.solve_potential", 2),
    ("forms.differential.self_s", "s", "forms.differential", 1),
    ("statespace.transition_graph.calls", "count",
     "statespace.transition_graph", 0),
    ("statespace.transition_graph.self_s", "s",
     "statespace.transition_graph", 1),
    ("functions.expand_martingale.self_s", "s",
     "functions.expand_martingale", 1),
    ("functions.expand_martingale.subsets", "count",
     "functions.expand_martingale", 2),
    ("tables.calls", "count", "tables", 0),
    ("tables.self_s", "s", "tables", 1),
    ("l2.self_s", "s", "l2", 1),
    ("varadhan.decompose.self_s", "s", "varadhan.decompose", 1),
    ("varadhan.materialize.self_s", "s", "varadhan.materialize", 1),
    ("varadhan.theta.self_s", "s", "varadhan.theta", 1),
    ("varadhan.stencil.self_s", "s", "varadhan.stencil", 1),
    ("jsonio.calls", "count", "jsonio", 0),
    ("jsonio.self_s", "s", "jsonio", 1),
    ("cli.self_s", "s", "cli", 1),
    ("functions.conserved_quantities.self_s", "s",
     "functions.conserved_quantities", 1),
    ("measure.is_ordinary.self_s", "s", "measure.is_ordinary", 1),
    ("forms.validate_form.self_s", "s", "forms.validate_form", 1),
    ("linalg.calls", "count", "linalg", 0),
    ("linalg.self_s", "s", "linalg", 1),
    ("forms.closed_form_space_dimension.self_s", "s",
     "forms.closed_form_space_dimension", 1),
    ("forms.kernel_basis.self_s", "s", "forms.kernel_basis", 1),
    ("functions.check_iq.self_s", "s", "functions.check_iq", 1),
    ("measure.self_s", "s", "measure", 1),
    ("forms.self_s", "s", "forms", 1),
    ("functions.self_s", "s", "functions", 1),
    ("varadhan.self_s", "s", "varadhan", 1),
]

# filled from the count-only pass and the traced/untraced ratio
EXTRA_METRICS = [("statespace.decode_calls", "count"),
                 ("trace.overhead_ratio", "ratio")]


def layer_values(per_pass_aggs: list[dict]) -> tuple[dict, bool]:
    """Metric values over the traced passes: counts from the first pass,
    self seconds as the median over passes.  Also reports whether every
    count repeated exactly from pass to pass."""
    values = {}
    repeat = True
    for metric, _unit, key, field in LAYER_METRICS:
        per_pass = [agg.get(key, [0, 0.0, 0])[field] for agg in per_pass_aggs]
        if field == 1:
            values[metric] = statistics.median(per_pass)
        else:
            values[metric] = per_pass[0]
            repeat = repeat and all(v == per_pass[0] for v in per_pass)
    return values, repeat
