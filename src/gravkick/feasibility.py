"""Physical-parameter engine: gravitational kicks, feasibility ratio, sweeps.

Everything here is SI.  The headline quantity is the ratio of the amplified
first-order momentum transfer to the probe's initial momentum uncertainty,
  ratio = -g G M m W T / (hbar x_A^2),
a monomial in every input, which is what makes single-parameter solving and
grid sweeps exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .protocol import gaussian_postselection
from .units import G, HBAR

SOLVABLE_FIELDS = ("M", "m", "W", "T", "x_A", "g")
SWEEP_FIELDS = ("M", "m", "T", "x_A", "x_B", "W", "g")

SWEEP_CSV_HEADER = "M,m,T,xA,xB,W,g,deltaA,deltaB,ratio,tau,ps_prob,valid_flag"

# Below x_A = 10 W the "separations much larger than packet widths" modeling
# assumption starts to fail; cases are flagged, not rejected.
SEPARATION_FACTOR = 10.0


def delta_kick(G_newton: float, M: float, m: float, T: float, x: float) -> float:
    """Momentum kick G M m T / x^2 accumulated over the interaction time."""
    if x <= 0:
        raise ValueError("branch distance must be positive")
    return G_newton * M * m * T / (x * x)


def spreading_time(m: float, W: float) -> float:
    """Time m W^2 / (2 hbar) for the position width to grow by sqrt(2)."""
    if m <= 0 or W <= 0:
        raise ValueError("mass and width must be positive")
    return m * W * W / (2.0 * HBAR)


@dataclass(frozen=True)
class ProtocolParams:
    """Physical inputs, SI.  T defaults to the spreading time of (m, W)."""

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
        for name in ("M", "m", "x_A", "x_B", "W", "T"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.g < 0:
            raise ValueError("amplification factor must be non-negative")
        if self.x_B <= self.x_A:
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
    if not 0.0 < kick_ratio < 1.0:
        raise ValueError("kick ratio delta_b/delta_a must lie in (0, 1)")
    if gain < 0:
        raise ValueError("gain must be non-negative")
    t = (kick_ratio + gain) / (1.0 + gain)
    beta = 1.0 / math.sqrt(1.0 + t * t)
    return t * beta, beta


@dataclass(frozen=True)
class FeasibilityCase:
    params: ProtocolParams
    delta_a: float
    delta_b: float
    ratio: float
    tau: float
    ps_prob: float
    separation_ok: bool

    def csv_row(self) -> str:
        p = self.params
        cells = [
            p.M, p.m, p.T, p.x_A, p.x_B, p.W, p.g,
            self.delta_a, self.delta_b, self.ratio, self.tau, self.ps_prob,
        ]
        return ",".join(f"{c:.8e}" for c in cells) + f",{int(self.separation_ok)}"


def evaluate_case(params: ProtocolParams) -> FeasibilityCase:
    """All derived quantities for one parameter point.

    The postselection probability is the exact Gaussian-probe acceptance for
    the paper weights (-alpha/sqrt(2), beta/sqrt(2)).
    """
    d_a = delta_kick(G, params.M, params.m, params.T, params.x_A)
    d_b = delta_kick(G, params.M, params.m, params.T, params.x_B)
    alpha, beta = amplitudes_for_gain(params.g, d_b / d_a)
    root2 = math.sqrt(2.0)
    ps_prob, _, _ = gaussian_postselection(-alpha / root2, beta / root2, d_a, d_b, HBAR / params.W)
    return FeasibilityCase(
        params=params,
        delta_a=d_a,
        delta_b=d_b,
        ratio=feasibility_ratio(params),
        tau=spreading_time(params.m, params.W),
        ps_prob=ps_prob,
        separation_ok=params.separation_ok,
    )


def solve_parameter(params: ProtocolParams, unknown: str, target_ratio: float) -> float:
    """Invert |ratio| = g G M m W T / (hbar x_A^2) for one field.

    Returns the unique positive value of `unknown` that reproduces
    |target_ratio|; every other field is read from `params`.
    """
    if unknown not in SOLVABLE_FIELDS:
        raise ValueError(f"cannot solve for {unknown!r}; solvable fields: {SOLVABLE_FIELDS}")
    if target_ratio == 0.0:
        raise ValueError("the ratio is a nonzero monomial; target 0 has no solution")
    if params.g == 0.0 and unknown != "g":
        raise ValueError(f"the ratio vanishes at g = 0; no {unknown} reaches the target")
    target = abs(target_ratio)
    p = params
    known = {
        "M": p.M, "m": p.m, "W": p.W, "T": p.T, "g": p.g,
    }
    if unknown == "x_A":
        product = G * p.g * p.M * p.m * p.W * p.T
        return math.sqrt(product / (HBAR * target))
    rest = G
    for name, value in known.items():
        if name != unknown:
            rest *= value
    return target * HBAR * p.x_A * p.x_A / rest


Axis = tuple[str, float, float, int]  # (field, start, stop, count)


def sweep(
    base: ProtocolParams,
    axes: list[Axis],
    workers: int = 1,
) -> list[FeasibilityCase]:
    """Dense 1- or 2-axis grid of cases, row-major over the axes.

    `workers` is accepted and ignored: the cases are evaluated serially,
    because a thread pool measured slower than the serial loop.
    """
    if not 1 <= len(axes) <= 2:
        raise ValueError("sweep takes one or two axes")
    fields = [a[0] for a in axes]
    if len(set(fields)) != len(fields):
        raise ValueError("sweep axes must name distinct fields")
    for field, _, _, count in axes:
        if field not in SWEEP_FIELDS:
            raise ValueError(f"unknown sweep field {field!r}; valid fields: {SWEEP_FIELDS}")
        if count < 2:
            raise ValueError("each axis needs at least 2 points")

    grids = [np.linspace(start, stop, count) for _, start, stop, count in axes]
    return [
        evaluate_case(replace(base, **{f: float(v) for f, v in zip(fields, values)}))
        for values in itertools.product(*grids)
    ]


def sweep_csv(cases: list[FeasibilityCase]) -> str:
    lines = [SWEEP_CSV_HEADER]
    lines.extend(case.csv_row() for case in cases)
    return "\n".join(lines) + "\n"
