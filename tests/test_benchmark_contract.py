"""The benchmark's tracer wraps library functions by module and name; a
deletion or rename in the library must fail here, not in a traced run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_layers():
    # read LAYERS from the source without importing the tracer
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


@pytest.mark.parametrize("span,module,names", [
    (span, module, names) for span, (module, names) in traced_layers().items()
])
def test_traced_functions_exist(span, module, names):
    mod = importlib.import_module(f"extbounds.{module}")
    for name in names:
        assert callable(getattr(mod, name, None)), f"{span}: extbounds.{module}.{name}"
