"""The package surface: re-exports loaded on first access, and a library import that
leaves numpy, jsonschema and the caller's garbage collector alone."""

import importlib
import inspect
import json
import subprocess
import sys

import pytest

import gravkick

from .probes import child_env

# Each name `gravkick` re-exports, by the module that defines it.
EXPORTS = {
    "analysis": ["ValidityReport", "WeakValueReport", "validity_check",
                 "weak_value_report"],
    "feasibility": ["ProtocolParams", "amplitudes_for_gain", "delta_kick", "evaluate_case",
                    "feasibility_ratio", "solve_parameter", "spreading_time", "sweep"],
    "montecarlo": ["EnsembleStats", "RunConfig", "run_ensemble"],
    "protocol": ["PostselectedResult", "PostselectionImpossible", "Scenario", "SourceState",
                 "branch_weights", "paper_postselection", "postselect"],
    "units": ["G", "HBAR"],
    "wavepacket": ["GaussianPacket", "GridPacket", "Moments", "Wavepacket", "displace",
                   "moments", "superpose"],
}
ORIGIN = {name: module for module, names in EXPORTS.items() for name in names}


def run_child(code: str) -> str:
    """stdout of `python -c code` on the copy of the package these tests import."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env(), check=True)
    return result.stdout


def test_all_lists_every_export():
    assert sorted(gravkick.__all__) == sorted(ORIGIN)
    assert gravkick.__version__ == "0.1.0"


@pytest.mark.parametrize("name", sorted(ORIGIN))
def test_export_is_the_object_of_its_defining_module(name):
    module = importlib.import_module(f"gravkick.{ORIGIN[name]}")
    value = getattr(gravkick, name)
    assert value is getattr(module, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module.__name__


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="module 'gravkick' has no attribute 'kick'"):
        gravkick.kick
    assert not hasattr(gravkick, "__wrapped__")


def test_bare_import_loads_no_numpy_and_resolves_submodules():
    loaded = json.loads(run_child(
        "import json, sys, gravkick\n"
        "heavy = [m for m in ('numpy', 'jsonschema') if m in sys.modules]\n"
        "print(json.dumps([heavy, gravkick.protocol.__name__, gravkick.cli.__name__,"
        " gravkick.Scenario is gravkick.protocol.Scenario]))"))
    assert loaded == [[], "gravkick.protocol", "gravkick.cli", True]


def test_dir_lists_the_lazy_names_without_loading_them():
    listed, loaded = json.loads(run_child(
        "import json, sys, gravkick\n"
        "listed = dir(gravkick)\n"
        "print(json.dumps([listed, [m for m in sys.modules if m in ('numpy', 'jsonschema')\n"
        "                           or m.startswith('gravkick.')]]))"))
    submodules = {*EXPORTS, "cli", "config", "output", "svg"}
    assert {*ORIGIN, *submodules, "__version__"} <= set(listed)
    assert listed == sorted(listed)
    assert loaded == []


@pytest.mark.parametrize("collector", ["on", "off"])
def test_library_import_leaves_the_collector_as_the_caller_had_it(collector):
    before, after = json.loads(run_child(
        "import gc, json\n"
        f"gc.{'enable' if collector == 'on' else 'disable'}()\n"
        "before = [gc.isenabled(), gc.get_freeze_count()]\n"
        "import gravkick.cli\n"
        "print(json.dumps([before, [gc.isenabled(), gc.get_freeze_count()]]))"))
    assert before[0] == (collector == "on")
    assert after == before
