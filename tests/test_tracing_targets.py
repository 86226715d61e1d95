"""The benchmark's traced run wraps gravkick functions by name; each name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("gravkick_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in load_targets()])
def test_target_is_a_callable_of_its_module(module, attr):
    owner = importlib.import_module(f"gravkick.{module}")
    assert callable(getattr(owner, attr, None)), f"gravkick.{module}.{attr}"
