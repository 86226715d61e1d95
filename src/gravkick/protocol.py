"""Interferometer protocol: kick, postselect.

A two-branch source (locations A and B) imprints branch-conditioned momentum
kicks and phases on a probe pointer state; conditioning on a final source
state leaves the probe in a superposition of displaced pointers whose exact
statistics this module computes.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .wavepacket import (
    DEFAULT_GRID_POINTS,
    GridPacket,
    Wavepacket,
    _finite,
    _grid_points,
    displace,
    moments,
    superpose,
)

NORM_TOL = 1e-10
MIN_POSTSELECT_PROBABILITY = 1e-30


class PostselectionImpossible(ValueError):
    """The requested postselection has numerically zero probability."""


@dataclass(frozen=True)
class SourceState:
    """Two complex amplitudes over the branch basis {A, B}; normalized.  Numpy columns hold one
    normalized state per point, as `feasibility.evaluate_case` makes; never compare or hash it."""

    amp_a: complex
    amp_b: complex

    def __post_init__(self) -> None:
        n = abs(self.amp_a) ** 2 + abs(self.amp_b) ** 2
        ok = abs(n - 1.0) <= NORM_TOL  # np.all would cost a scalar state microseconds
        if not (ok if isinstance(ok, bool) else ok.all()):
            raise ValueError(f"source amplitudes must be normalized, |a|^2+|b|^2 = {n!r}")

    @classmethod
    def from_amplitudes(cls, amp_a: complex, amp_b: complex) -> "SourceState":
        """Build a normalized state from arbitrary finite amplitudes, not both zero."""
        try:
            n2 = abs(amp_a) ** 2 + abs(amp_b) ** 2
        except OverflowError:
            n2 = math.inf
        if not sys.float_info.min <= n2 < math.inf:  # the squares under- or overflowed
            big = max(map(abs, (amp_a.real, amp_a.imag, amp_b.real, amp_b.imag)))
            if not 0.0 < big < math.inf:
                raise ValueError("amplitudes must be finite and not both zero")
            amp_a, amp_b = amp_a / big, amp_b / big
            n2 = abs(amp_a) ** 2 + abs(amp_b) ** 2
        n = math.sqrt(n2)
        return cls(amp_a / n, amp_b / n)


def paper_postselection(phi_a: float = 0.0, phi_b: float = 0.0) -> SourceState:
    """Final source state [-e^{i phi_A}|A> + e^{i phi_B}|B>]/sqrt(2).

    With the phases matched to the ones picked up during the interaction,
    they cancel from the conditional probe state.
    """
    return SourceState(
        amp_a=-cmath.exp(1j * phi_a) / math.sqrt(2.0),
        amp_b=cmath.exp(1j * phi_b) / math.sqrt(2.0),
    )


def branch_weights(
    pre: SourceState, post: SourceState, phi_a: float = 0.0, phi_b: float = 0.0
) -> tuple[complex, complex]:
    """Weights w_X = conj(post_X) (pre_X e^{i phi_X}) of the branch pointers after postselection.

    The postselected probe is w_A psi_A + w_B psi_B.  With no phases, w_A + w_B
    is <post|pre> and the weights are those of the weak values.
    """
    return (complex(post.amp_a).conjugate() * (pre.amp_a * cmath.exp(1j * phi_a)),
            complex(post.amp_b).conjugate() * (pre.amp_b * cmath.exp(1j * phi_b)))


@dataclass
class PostselectedResult:
    """Exact P, mean and std of the postselected probe w_A psi(p - delta_A) + w_B psi(p - delta_B),
    with the weights, probe psi, kicks and grid size n, and a grid run's unnormalized kicked
    sum (`rendered`); `terms` and `conditional` are built on first read."""

    probability: float
    mean_kick: float
    std: float
    weights: tuple[complex, complex] = field(compare=False, repr=False)
    probe: Wavepacket = field(compare=False, repr=False)
    kicks: tuple[float, float] = field(compare=False, repr=False)
    n: int = field(compare=False, repr=False)
    rendered: GridPacket | None = field(default=None, compare=False, repr=False)

    @cached_property
    def terms(self) -> tuple[tuple[complex, Wavepacket], ...]:
        """((w_A, psi_A), (w_B, psi_B)), the separately displaced branch pointers."""
        return tuple((w, displace(self.probe, d)) for w, d in zip(self.weights, self.kicks))

    @cached_property
    def conditional(self) -> GridPacket:
        """The normalized conditional probe state: the kept grid sum, or `terms` on n points."""
        grid = superpose(list(self.terms), n=self.n) if self.rendered is None else self.rendered
        return grid._with_amps(grid.amps / moments(grid).norm)


def gaussian_postselection(
    w_a: complex, w_b: complex, d_a: float, d_b: float, sigma: float
) -> tuple[float, float, float]:
    """P, mean and std of w_a psi(p - d_a) + w_b psi(p - d_b), psi a Gaussian of std sigma.

    With s = w_a + w_b, c = Re(conj(w_a) w_b), n = |w_a|^2 + |w_b|^2, D = d_a - d_b
    and e = I - 1 = expm1(-D^2 / (8 sigma^2)), I the overlap of the two pointers:
        P      = |s|^2 + 2 c e
        mean P = Re[conj(s) (w_a d_a + w_b d_b)] + c (d_a + d_b) e
        var    = sigma^2 + D^2 [(|s|^2 n - Re[(w_a - w_b) conj(s)]^2) / 4 + c e n / 2] / P^2
    No term subtracts numbers of order one, as (1 - 2 alpha beta I) / 2 does, so
    near-orthogonal postselection (s -> 0) keeps full relative precision.
    Mean and std are nan where P is exactly 0.  Scalar weights keep libm's bits; numpy column
    weights give columns within about 1e-12 relative of the scalar calls, unless s -> 0.
    """
    xp = math if isinstance(w_a, (complex, float, int)) else np  # float64, complex128 too
    s = w_a + w_b
    s2, n = abs(s) ** 2, abs(w_a) ** 2 + abs(w_b) ** 2
    c = (w_a.conjugate() * w_b).real
    gap = d_a - d_b
    e = xp.expm1(-(gap / sigma) * (gap / sigma) / 8.0)
    probability = s2 + 2.0 * c * e
    # exact destructive interference leaves no state: dividing by nan makes its mean and std nan
    p = (probability or math.nan) if xp is math else np.where(probability, probability, np.nan)
    mean = ((s.conjugate() * (w_a * d_a + w_b * d_b)).real + c * (d_a + d_b) * e) / p
    u = ((w_a - w_b) * s.conjugate()).real
    spread = gap * gap * ((s2 * n - u * u) / 4.0 + c * e * n / 2.0) / p / p
    return probability, mean, xp.sqrt(sigma * sigma + spread)


def postselect(
    w_a: complex, w_b: complex, probe: Wavepacket, delta_a: float, delta_b: float,
    n: int = DEFAULT_GRID_POINTS,
) -> PostselectedResult:
    """Statistics of the postselected probe w_A psi(p - delta_A) + w_B psi(p - delta_B).

    A Gaussian probe takes P, mean and std from `gaussian_postselection` at the kicked
    centers; no pointer packet is built.  A grid probe is kicked on both branches in one
    spectral pass, the weighted sum form of `displace`, and takes them from one `moments`
    pass of that sum, which the result keeps.  The weights, kicks and kicked centers must be
    finite, and a Gaussian's n, the grid size of its `conditional`, an integer of at least 16;
    P < 1e-30 (PostselectionImpossible) and a non-finite mean or std are refused.
    """
    if not (cmath.isfinite(w_a) and cmath.isfinite(w_b)):
        raise ValueError(f"branch weights must be finite, got {(w_a, w_b)!r}")
    rendered = None
    if isinstance(probe, GridPacket):
        rendered = displace(probe, (delta_a, delta_b), weights=(w_a, w_b))
        try:
            mom = moments(rendered)
            probability, mean, std = mom.norm * mom.norm, mom.mean, mom.std
        except ValueError:  # identically zero: the branches cancel exactly
            probability, mean, std = 0.0, math.nan, math.nan
    else:
        _grid_points(n)
        c_a = _finite("center", probe.center + _finite("displacement", delta_a))
        c_b = _finite("center", probe.center + _finite("displacement", delta_b))
        probability, mean, std = gaussian_postselection(w_a, w_b, c_a, c_b, probe.sigma)
    if probability < MIN_POSTSELECT_PROBABILITY:
        raise PostselectionImpossible(
            f"postselection numerically impossible (probability {probability!r})"
        )
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(f"postselected mean {mean!r} or std {std!r} is not finite; "
                         "the kicks are too far apart for double precision")
    return PostselectedResult(probability, mean, std, (w_a, w_b), probe, (delta_a, delta_b), n,
                              rendered)


@dataclass(frozen=True)
class Scenario:
    """One full protocol run: branch kicks and phases, then postselection."""

    pre: SourceState
    post: SourceState
    probe: Wavepacket
    delta_a: float
    delta_b: float
    phi_a: float = 0.0
    phi_b: float = 0.0


def run(scenario: Scenario, n: int = DEFAULT_GRID_POINTS) -> PostselectedResult:
    """Kick the probe by delta_X on branch X and postselect the source on `post`.

    The branch weights, turned by finite phases, go with the probe and the kicks to one
    `postselect` call; n is the grid size of a Gaussian run's `conditional`.
    """
    s = scenario
    w_a, w_b = branch_weights(s.pre, s.post, _finite("phase phi_a", s.phi_a),
                              _finite("phase phi_b", s.phi_b))
    return postselect(w_a, w_b, s.probe, s.delta_a, s.delta_b, n)
