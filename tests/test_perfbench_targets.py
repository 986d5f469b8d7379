"""The benchmark's tracer wraps colocal functions by name: every name it
lists must still resolve, or the benchmark's traced run breaks while the
rest of the suite passes.  ``perfbench/tracer.py`` is loaded by path and
only read."""

import importlib.util
from pathlib import Path

import pytest

import colocal.cli  # noqa: F401  (the tracer reads the imported modules)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)
TARGETS = tracer._targets()


@pytest.mark.parametrize("span, module, attr, work", TARGETS,
                         ids=[f"{module}.{attr}"
                              for _, module, attr, _ in TARGETS])
def test_every_traced_name_resolves(span, module, attr, work):
    owner, name, original = tracer._resolve(module, attr)
    assert callable(original)
    if owner is not None:
        assert owner.__dict__[name] is original
