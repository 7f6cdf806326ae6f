"""The benchmark's traced run wraps wardflow functions by name; those names must still exist."""
import importlib
import importlib.util
from pathlib import Path

TRACED_PY = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def test_every_traced_function_resolves_on_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PY)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [
        f"{layer}.{name}"
        for layer, functions in traced.TRACED.items()
        for name in functions
        if not callable(getattr(importlib.import_module(f"wardflow.{layer}"), name, None))
    ]
    assert traced.TRACED and not missing
