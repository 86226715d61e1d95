"""Interferometer protocol: kick, postselect.

A two-branch source (locations A and B) imprints branch-conditioned momentum
kicks and phases on a probe pointer state; conditioning on a final source
state leaves the probe in a superposition of displaced pointers whose exact
statistics this module computes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

from .wavepacket import (
    DEFAULT_GRID_POINTS,
    GaussianPacket,
    GridPacket,
    Wavepacket,
    _finite,
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
    """Two complex amplitudes over the branch basis {A, B}; normalized."""

    amp_a: complex
    amp_b: complex

    def __post_init__(self) -> None:
        n = abs(self.amp_a) ** 2 + abs(self.amp_b) ** 2
        if not abs(n - 1.0) <= NORM_TOL:
            raise ValueError(f"source amplitudes must be normalized, |a|^2+|b|^2 = {n!r}")

    @classmethod
    def from_amplitudes(cls, amp_a: complex, amp_b: complex) -> "SourceState":
        """Build a normalized state from arbitrary (not both zero) amplitudes."""
        n = math.sqrt(abs(amp_a) ** 2 + abs(amp_b) ** 2)
        if n == 0.0:
            raise ValueError("amplitudes cannot both be zero")
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


@dataclass(frozen=True)
class PostselectedResult:
    """Exact P, mean and std of the postselected probe.  `pointers` holds (w_X, psi, delta_X),
    the pointer w_X psi(p - delta_X), for each branch, or a grid run's one rendered pointer
    (1, w_A psi_A + w_B psi_B, 0); `terms` and `conditional` (n points) are built on first read."""

    probability: float
    mean_kick: float
    std: float
    pointers: tuple[tuple[complex, Wavepacket, float], ...] = field(compare=False, repr=False)
    n: int = field(compare=False, repr=False)

    @cached_property
    def terms(self) -> tuple[tuple[complex, Wavepacket], ...]:
        """((w_A, psi_A), (w_B, psi_B)), or a grid probe's ((1, psi),), built on first read."""
        return tuple((w, displace(psi, d)) for w, psi, d in self.pointers)

    @cached_property
    def conditional(self) -> GridPacket:
        """The normalized conditional probe state, rendered on first read."""
        grid = _render(self.terms, self.n)
        return grid._with_amps(grid.amps / moments(grid).norm)


def _render(terms: tuple[tuple[complex, Wavepacket], ...], n: int) -> GridPacket:
    """The unnormalized pointer sum on a grid; a lone rendered pointer is taken as it is."""
    if len(terms) == 1 and terms[0][0] == 1.0 and isinstance(terms[0][1], GridPacket):
        return terms[0][1]
    return superpose(list(terms), n=n)


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
    Mean and std are nan when P is exactly 0.
    """
    s = w_a + w_b
    s2, n = abs(s) ** 2, abs(w_a) ** 2 + abs(w_b) ** 2
    c = (w_a.conjugate() * w_b).real
    gap = d_a - d_b
    e = math.expm1(-(gap / sigma) * (gap / sigma) / 8.0)
    probability = s2 + 2.0 * c * e
    if probability == 0.0:  # exact destructive interference leaves no state
        return probability, math.nan, math.nan
    mean = ((s.conjugate() * (w_a * d_a + w_b * d_b)).real + c * (d_a + d_b) * e) / probability
    u = ((w_a - w_b) * s.conjugate()).real
    spread = gap * gap * ((s2 * n - u * u) / 4.0 + c * e * n / 2.0) / probability / probability
    return probability, mean, math.sqrt(sigma * sigma + spread)


def postselect(terms: tuple[tuple[complex, Wavepacket], ...], n: int) -> PostselectedResult:
    """Statistics of the postselected probe w_A psi_A + w_B psi_B.

    `terms` holds one or two weighted pointers: ((w_A, psi_A), (w_B, psi_B)), or ((1, psi),)
    with psi that sum already rendered on a grid, as `run` gives it for a grid probe.  Its
    squared norm is P.  Two Gaussian pointers of one width take P, mean and std from
    `gaussian_postselection`, a rendered pointer from one `moments` pass, and others are
    rendered on the grid first (n points unless a pointer brings its own).  The conditional
    state is rendered on first read; P < 1e-30 and a non-finite mean or std are refused.
    """
    if len(terms) == 2:
        (w_a, ptr_a), (w_b, ptr_b) = terms
        closed = (isinstance(ptr_a, GaussianPacket) and isinstance(ptr_b, GaussianPacket)
                  and ptr_a.sigma == ptr_b.sigma)
    elif len(terms) == 1:
        closed = False
    else:
        raise ValueError(f"postselect takes one or two weighted pointers, got {len(terms)}")
    if closed:
        stats = gaussian_postselection(w_a, w_b, ptr_a.center, ptr_b.center, ptr_a.sigma)
    else:
        try:
            mom = moments(_render(terms, n))
            stats = mom.norm * mom.norm, mom.mean, mom.std
        except ValueError:  # identically zero: the branches cancel exactly
            stats = 0.0, math.nan, math.nan
    return _result(*stats, tuple((w, psi, 0.0) for w, psi in terms), n)


def _result(probability: float, mean: float, std: float, pointers, n) -> PostselectedResult:
    """The result, unless P < 1e-30 (PostselectionImpossible) or a mean or std is not finite."""
    if probability < MIN_POSTSELECT_PROBABILITY:
        raise PostselectionImpossible(
            f"postselection numerically impossible (probability {probability!r})"
        )
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(f"postselected mean {mean!r} or std {std!r} is not finite; "
                         "the kicks are too far apart for double precision")
    return PostselectedResult(probability, mean, std, pointers, n)


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

    A grid probe is kicked on both branches in one spectral pass, the weighted sum
    form of `displace`, and postselected as that one rendered pointer.  A Gaussian probe
    goes straight to `gaussian_postselection`; its pointer packets are built on the first
    read of `terms` or `conditional`.  Each phase, kick and kicked center must be finite.
    """
    s = scenario
    w_a, w_b = branch_weights(s.pre, s.post, _finite("phase phi_a", s.phi_a),
                              _finite("phase phi_b", s.phi_b))
    if isinstance(s.probe, GridPacket):
        kicked = displace(s.probe, (s.delta_a, s.delta_b), weights=(w_a, w_b))
        return postselect(((1.0, kicked),), n)
    c_a = _finite("center", s.probe.center + _finite("displacement", s.delta_a))
    c_b = _finite("center", s.probe.center + _finite("displacement", s.delta_b))
    return _result(*gaussian_postselection(w_a, w_b, c_a, c_b, s.probe.sigma),
                   ((w_a, s.probe, s.delta_a), (w_b, s.probe, s.delta_b)), n)
