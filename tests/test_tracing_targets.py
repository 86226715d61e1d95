"""The benchmark's traced run wraps gravkick functions by name and reads their arguments
by position; each name must resolve and each position must hold the argument it names."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("gravkick_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def positional_reads():
    """(module, function, index, name) for each `_arg(args, kwargs, index, name)` call
    in the attrs function that tracing.py attaches to a target."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    reads = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            reads[node.name] = [
                (call.args[2].value, call.args[3].value)
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"
            ]
    return [(module, attr, index, name)
            for module, attr, attrs in load_targets() if attrs is not None
            for index, name in reads[attrs.__name__]]


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in load_targets()])
def test_target_is_a_callable_of_its_module(module, attr):
    owner = importlib.import_module(f"gravkick.{module}")
    assert callable(getattr(owner, attr, None)), f"gravkick.{module}.{attr}"


def test_positional_reads_found():
    assert {
        ("wavepacket", "displace", 0, "psi"),
        ("wavepacket", "displace", 1, "delta"),
        ("wavepacket", "to_csv", 1, "dest"),
        ("montecarlo", "run_ensemble", 0, "cfg"),
        ("montecarlo", "run_ensemble", 1, "workers"),
        ("feasibility", "sweep", 2, "workers"),
        ("output", "write_bundle", 1, "files"),
    } <= set(positional_reads())


@pytest.mark.parametrize("module, attr, index, name", positional_reads())
def test_traced_argument_position(module, attr, index, name):
    fn = getattr(importlib.import_module(f"gravkick.{module}"), attr)
    params = list(inspect.signature(fn).parameters)
    assert params[index] == name, f"gravkick.{module}.{attr}: {params}"
