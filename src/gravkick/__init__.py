"""gravkick: momentum statistics of a probe coupled to a superposed source mass.

Exact and first-order (weak-value) postselected momentum transfer, physical
feasibility estimates, and reproducible Monte Carlo experiment statistics.
"""

import importlib

# The re-exports load their module on first access (PEP 562): `import gravkick` imports no numpy.
_EXPORTS = {
    "analysis": "ValidityReport WeakValueReport validity_check weak_value_report",
    "feasibility": "ProtocolParams amplitudes_for_gain delta_kick evaluate_case "
                   "feasibility_ratio solve_parameter spreading_time sweep",
    "montecarlo": "EnsembleStats RunConfig run_ensemble",
    "protocol": "PostselectedResult PostselectionImpossible Scenario SourceState "
                "branch_weights paper_postselection postselect",
    "units": "G HBAR",
    "wavepacket": "GaussianPacket GridPacket Moments Wavepacket displace moments superpose",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "config", "output", "svg"}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    """The module's globals, its lazy re-exports and its submodules, none of them imported."""
    return sorted({*globals(), *__all__, *_SUBMODULES})
