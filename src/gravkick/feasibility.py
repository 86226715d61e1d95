"""Physical-parameter engine: gravitational kicks, feasibility ratio, sweeps.

Everything here is SI.  The headline quantity is the ratio of the amplified
first-order momentum transfer to the probe's initial momentum uncertainty,
  ratio = -g G M m W T / (hbar x_A^2),
a monomial in every input, which is what makes single-parameter solving and
grid sweeps exact.  A grid is evaluated as numpy columns: each parameter
field holds a float or one column of grid points, and the formulas below take
either.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .output import table_csv
from .protocol import SourceState, branch_weights, gaussian_postselection, paper_postselection
from .units import G, HBAR, SOLVABLE_FIELDS
from .wavepacket import _finite

SWEEP_CSV_HEADER = "M,m,T,xA,xB,W,g,deltaA,deltaB,ratio,tau,ps_prob,valid_flag"
# Column names of `evaluate_case` and `sweep`, in sweep.csv column order.
CASE_FIELDS = ("M", "m", "T", "x_A", "x_B", "W", "g",
               "delta_a", "delta_b", "ratio", "tau", "ps_prob", "valid_flag")
SWEEP_FIELDS = CASE_FIELDS[:7]  # the parameters; the rest are computed

# Below x_A = 10 W the "separations much larger than packet widths" modeling
# assumption starts to fail; cases are flagged, not rejected.
SEPARATION_FACTOR = 10.0


def delta_kick(M: float, m: float, T: float, x: float) -> float:
    """Momentum kick G M m T / x^2 accumulated over the interaction time."""
    if np.any(x <= 0):
        raise ValueError("branch distance must be positive")
    return G * M * m * T / (x * x)


def spreading_time(m: float, W: float) -> float:
    """Time m W^2 / (2 hbar) for the position width to grow by sqrt(2)."""
    if np.any((m <= 0) | (W <= 0)):
        raise ValueError("mass and width must be positive")
    return m * W * W / (2.0 * HBAR)


@dataclass(frozen=True)
class ProtocolParams:
    """Physical inputs, SI.  T defaults to the spreading time of (m, W).

    A field may also hold a numpy column, one value per grid point; every
    check then holds at each point.
    """

    M: float  # source mass [kg]
    m: float  # probe mass [kg]
    x_A: float  # nearer branch distance [m]
    x_B: float  # farther branch distance [m]
    W: float  # probe position-width parameter [m]
    g: float  # target weak-value amplification factor
    T: float | None = None  # interaction time [s]

    def __post_init__(self) -> None:
        if self.T is None:
            object.__setattr__(self, "T", spreading_time(self.m, self.W))
        for name in ("M", "m", "x_A", "x_B", "W", "T"):  # NaN fails every comparison
            if not np.all((getattr(self, name) > 0) & (getattr(self, name) < math.inf)):
                raise ValueError(f"{name} must be positive and finite")
        if not np.all((self.g >= 0) & (self.g < math.inf)):
            raise ValueError("amplification factor must be non-negative and finite")
        if np.any(self.x_B <= self.x_A):
            raise ValueError("x_B must exceed x_A")

    @property
    def separation_ok(self) -> bool:
        return self.x_A >= SEPARATION_FACTOR * self.W


def feasibility_ratio(params: ProtocolParams) -> float:
    """Amplified first-order kick over momentum uncertainty:
    -g G M m W T / (hbar x_A^2)."""
    p = params
    return -p.g * G * p.M * p.m * p.W * p.T / (HBAR * p.x_A * p.x_A)


def amplitudes_for_gain(gain: float, kick_ratio: float) -> tuple[float, float]:
    """Real source amplitudes (alpha, beta) realizing delta_ef = -gain * delta_a.

    `kick_ratio` is delta_b / delta_a in (0, 1).  Inverting the first-order
    kick formula gives alpha/beta = (kick_ratio + gain) / (1 + gain) exactly.
    """
    if not np.all((0.0 < kick_ratio) & (kick_ratio < 1.0)):
        raise ValueError("kick ratio delta_b/delta_a must lie in (0, 1)")
    if np.any(gain < 0):
        raise ValueError("gain must be non-negative")
    t = (kick_ratio + gain) / (1.0 + gain)
    beta = 1.0 / np.sqrt(1.0 + t * t)
    return t * beta, beta


def evaluate_case(
    params: ProtocolParams,
    final: SourceState | None = None,
    phases: tuple[float, float] = (0.0, 0.0),
) -> dict[str, np.ndarray]:
    """All derived quantities: a 1-D column per CASE_FIELDS name, an entry per point of `params`.

    ps_prob is the exact Gaussian-probe acceptance, in one column pass: `protocol.branch_weights`
    weighs the column source state (alpha, beta) realising each point's gain with `final` and
    `phases`, the scenario's, and `protocol.gaussian_postselection` takes P from those weights.
    `final` defaults to the paper postselection with those phases; a scalar point is a column
    of one.  A non-finite phase, and at any point kicks outside the normal doubles or a ratio
    or tau that overflows, raise ValueError.  valid_flag is bool, every other column float64.
    """
    phases = tuple(_finite(f"phase phi_{x}", phi) for x, phi in zip("ab", phases))
    p = replace(params, **{f: np.array(getattr(params, f), float, ndmin=1) for f in SWEEP_FIELDS})
    with np.errstate(over="ignore", divide="ignore"):  # refused below, not warned about
        derived = {"delta_a": delta_kick(p.M, p.m, p.T, p.x_A),
                   "delta_b": delta_kick(p.M, p.m, p.T, p.x_B),
                   "ratio": feasibility_ratio(p), "tau": spreading_time(p.m, p.W)}
    for name, column in derived.items():
        if not np.all(np.isfinite(column)):
            raise ValueError(f"{name} overflows the double range; the inputs are too extreme")
    if not np.all(derived["delta_b"] >= sys.float_info.min):  # delta_b < delta_a, as x_A < x_B
        raise ValueError("delta_b underflows the double range; the inputs are too extreme")
    values = (p.M, p.m, p.T, p.x_A, p.x_B, p.W, p.g, *derived.values(), math.nan, p.separation_ok)
    cases = dict(zip(CASE_FIELDS, np.broadcast_arrays(*values)))
    pre = SourceState(*amplitudes_for_gain(cases["g"], cases["delta_b"] / cases["delta_a"]))
    weights = branch_weights(pre, final or paper_postselection(*phases), *phases)
    with np.errstate(over="ignore", invalid="ignore"):  # the unused mean and std may overflow
        cases["ps_prob"] = gaussian_postselection(*weights, cases["delta_a"], cases["delta_b"],
                                                  HBAR / cases["W"])[0]
    return cases


def solve_parameter(params: ProtocolParams, unknown: str, target_ratio: float) -> float:
    """Invert |ratio| = g G M m W T / (hbar x_A^2) for one field.

    Returns the unique positive value of `unknown` that reproduces
    |target_ratio|; every other field is read from `params`.  |ratio| is
    linear in M, m, W, T and g and goes as x_A^-2, so the field is rescaled by
    the target over `feasibility_ratio`, taken at g = 1 so that the gain stays
    solvable at g = 0.  A ratio that underflows to 0 is refused.
    """
    if unknown not in SOLVABLE_FIELDS:
        raise ValueError(f"cannot solve for {unknown!r}; solvable fields: {SOLVABLE_FIELDS}")
    if target_ratio == 0.0:
        raise ValueError("the ratio is a nonzero monomial; target 0 has no solution")
    if not math.isfinite(target_ratio):
        raise ValueError(f"the target ratio must be finite, got {target_ratio!r}")
    if params.g == 0.0 and unknown != "g":
        raise ValueError(f"the ratio vanishes at g = 0; no {unknown} reaches the target")
    unit_gain_ratio = abs(feasibility_ratio(replace(params, g=1.0)))
    divisor = unit_gain_ratio if unknown == "g" else params.g * unit_gain_ratio
    if divisor == 0.0:
        raise ValueError(f"the ratio underflows to 0 at these inputs; no {unknown} reaches "
                         f"target {target_ratio!r}")
    scale = abs(target_ratio) / divisor
    solved = (params.x_A / math.sqrt(scale) if unknown == "x_A"
              else scale if unknown == "g" else getattr(params, unknown) * scale)
    if not 0.0 < solved < math.inf:
        raise ValueError(f"solved {unknown} = {solved!r} is outside the positive double range; "
                         f"target {target_ratio!r} is too extreme")
    return solved


Axis = tuple[str, float, float, int]  # (field, start, stop, count)


def check_axes(axes: list[Axis]) -> None:
    """Refuse with ValueError an axis list `sweep` cannot grid, before any point is built."""
    for field, start, stop, _ in axes:  # bounds first: the order the command line refuses in
        for end, bound in (("start", start), ("stop", stop)):
            _finite(f"{field} axis {end}", bound)
        _finite(f"{field} axis span stop - start", stop - start)  # np.linspace steps by it
    if not 1 <= len(axes) <= 2:
        raise ValueError("sweep takes one or two axes")
    if len({a[0] for a in axes}) != len(axes):
        raise ValueError("sweep axes must name distinct fields")
    for field, _, _, count in axes:
        if field not in SWEEP_FIELDS:
            raise ValueError(f"unknown sweep field {field!r}; valid fields: {SWEEP_FIELDS}")
        if count < 2:
            raise ValueError("each axis needs at least 2 points")


def sweep(
    base: ProtocolParams,
    axes: list[Axis],
    workers: int = 1,
    final: SourceState | None = None,
    phases: tuple[float, float] = (0.0, 0.0),
) -> dict[str, np.ndarray]:
    """Dense 1- or 2-axis grid of cases, row-major over the axes (outer axis slowest).

    Each swept field becomes one column over the grid; the other fields,
    T included, keep the base point's value.  `final` and `phases` weight
    ps_prob as in `evaluate_case`.  `workers` is accepted and ignored: the
    columns are evaluated in one pass.
    """
    check_axes(axes)
    grids = np.meshgrid(*(np.linspace(start, stop, count) for _, start, stop, count in axes),
                        indexing="ij")
    columns = {a[0]: grid.ravel() for a, grid in zip(axes, grids)}
    return evaluate_case(replace(base, **columns), final, phases)


def sweep_csv(cases: dict[str, np.ndarray]) -> str:
    return table_csv(SWEEP_CSV_HEADER, cases.values())
