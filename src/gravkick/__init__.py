"""gravkick: momentum statistics of a probe coupled to a superposed source mass.

Exact and first-order (weak-value) postselected momentum transfer, physical
feasibility estimates, and reproducible Monte Carlo experiment statistics.
"""

from .analysis import (
    Regime,
    ValidityReport,
    WeakValueReport,
    effective_kick,
    validity_check,
    weak_value_report,
)
from .feasibility import (
    ProtocolParams,
    amplitudes_for_gain,
    delta_kick,
    evaluate_case,
    feasibility_ratio,
    solve_parameter,
    spreading_time,
    sweep,
)
from .montecarlo import EnsembleStats, RunConfig, required_trials, run_ensemble
from .protocol import (
    PostselectedResult,
    PostselectionImpossible,
    Scenario,
    SourceState,
    branch_weights,
    paper_postselection,
    postselect,
)
from .units import G, HBAR, UnitSystem
from .wavepacket import (
    GaussianPacket,
    GridPacket,
    Moments,
    Wavepacket,
    displace,
    gaussian,
    moments,
    normalize,
    superpose,
    to_grid,
)

__version__ = "0.1.0"
