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
    Moments,
    Wavepacket,
    displace,
    moments,
    normalize,
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
    probability: float
    mean_kick: float
    std: float
    # the weighted branch pointers (w_X, psi_X) and the grid size of `conditional`
    terms: tuple[tuple[complex, Wavepacket], ...] = field(compare=False, repr=False)
    n: int = field(compare=False, repr=False)

    @cached_property
    def conditional(self) -> Wavepacket:
        """The normalized conditional probe state, rendered on first read."""
        return normalize(superpose(list(self.terms), n=self.n))


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


def postselect(
    terms: tuple[tuple[complex, Wavepacket], tuple[complex, Wavepacket]], n: int
) -> PostselectedResult:
    """Statistics of the postselected probe w_A psi_A + w_B psi_B.

    `terms` is ((w_A, psi_A), (w_B, psi_B)), as `branch_weights` and `displace`
    give them.  The squared norm of that unnormalized pointer is the postselection
    probability.  Two Gaussian pointers of one width take P, mean and std from
    `gaussian_postselection`; other pointers are rendered on the grid (n points
    unless a pointer brings its own) and take them from one `moments` pass.
    The result keeps the weighted pointers and renders (and normalizes) the
    conditional state from them only when a caller first reads `conditional`;
    grid pointers are rendered again then.  Probabilities below 1e-30 raise
    PostselectionImpossible instead of returning a garbage state, and a mean or std
    that is not finite (kicks about 1e154 sigma apart overflow) raises ValueError.
    """
    (w_a, ptr_a), (w_b, ptr_b) = terms
    if (isinstance(ptr_a, GaussianPacket) and isinstance(ptr_b, GaussianPacket)
            and ptr_a.sigma == ptr_b.sigma):
        probability, mean, std = gaussian_postselection(
            w_a, w_b, ptr_a.center, ptr_b.center, ptr_a.sigma)
    else:
        unnorm = superpose(list(terms), n=n)
        try:
            mom = moments(unnorm)
        except ValueError:  # identically zero: the branches cancel exactly
            mom = Moments(norm=0.0, mean=math.nan, std=math.nan)
        probability, mean, std = mom.norm * mom.norm, mom.mean, mom.std
    if probability < MIN_POSTSELECT_PROBABILITY:
        raise PostselectionImpossible(
            f"postselection numerically impossible (probability {probability!r})"
        )
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(f"postselected mean {mean!r} or std {std!r} is not finite; "
                         "the kicks are too far apart for double precision")
    return PostselectedResult(probability=probability, mean_kick=mean, std=std,
                              terms=terms, n=n)


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
    """Kick the probe by delta_X on branch X and postselect the source on `post`."""
    s = scenario
    w_a, w_b = branch_weights(s.pre, s.post, s.phi_a, s.phi_b)
    terms = ((w_a, displace(s.probe, s.delta_a)), (w_b, displace(s.probe, s.delta_b)))
    return postselect(terms, n)
