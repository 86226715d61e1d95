"""Weak-value analytics for the branch-kick protocol.

First-order (weak-value) predictions of the postselected momentum shift,
the projector and kick-operator weak values, amplification gain, and a
diagnostic comparing first-order predictions against the exact protocol.

Every weak value here is a ratio of the phase-free weights
`protocol.branch_weights(pre, post)`, without the interaction phases that
`protocol.run` applies; the README's "Gain against acceptance" says where
that misses the exact mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import protocol
from .wavepacket import DEFAULT_GRID_POINTS, moments

OVERLAP_FLOOR = 1e-15

# Kick-to-uncertainty thresholds for the first-order expansion to be trusted.
WEAK_THRESHOLD = 0.1
STRONG_THRESHOLD = 0.5


class Regime(Enum):
    WEAK = "weak"
    MARGINAL = "marginal"
    STRONG = "strong"


def effective_kick(alpha: float, beta: float, delta_a: float, delta_b: float) -> float:
    """First-order postselected momentum transfer for real amplitudes.

    delta_b - alpha (delta_a - delta_b) / (beta - alpha); negative values are
    the repulsion signature.  Identical to the real part of the kick-operator
    weak value for the matched pre/post pair.
    """
    if beta == alpha:
        raise ValueError("effective kick diverges for beta == alpha")
    return delta_b - alpha * (delta_a - delta_b) / (beta - alpha)


@dataclass(frozen=True)
class WeakValueReport:
    projector_weak_value: complex
    effective_kick: float
    gain: float  # amplification factor g in delta_ef = -g * delta_a
    postselection_overlap: complex


def weak_value_report(
    pre: protocol.SourceState,
    post: protocol.SourceState,
    delta_a: float,
    delta_b: float,
) -> WeakValueReport:
    """First-order summary for arbitrary (possibly complex) pre/post states.

    The one place the weak values are formed, from the phase-free weights
    w_X = conj(post_X) pre_X and their sum <post|pre>: the branch-A projector's
    w_A / <post|pre>, and Re[(w_A delta_a + w_B delta_b) / <post|pre>], the
    branch-diagonal kick operator's weak value.  For a real symmetric pointer only
    that real part shifts the momentum mean, so it is what `effective_kick`
    reports.  Every field is phase-free, the overlap included.
    """
    w_a, w_b = protocol.branch_weights(pre, post)
    overlap = w_a + w_b
    if abs(overlap) <= OVERLAP_FLOOR:
        raise ValueError("pre and post states are (numerically) orthogonal")
    d_ef = ((w_a * delta_a + w_b * delta_b) / overlap).real
    return WeakValueReport(
        projector_weak_value=w_a / overlap,
        effective_kick=d_ef,
        gain=-d_ef / delta_a if delta_a != 0.0 else math.nan,
        postselection_overlap=overlap,
    )


@dataclass(frozen=True)
class ValidityReport:
    """How trustworthy the first-order prediction is for given kicks."""

    kick_ratio_a: float  # |delta_a| / sigma_p
    kick_ratio_b: float
    first_order_mean: float
    exact_mean: float
    abs_error: float
    regime: Regime


def classify_regime(kick_ratio: float) -> Regime:
    if kick_ratio < WEAK_THRESHOLD:
        return Regime.WEAK
    if kick_ratio > STRONG_THRESHOLD:
        return Regime.STRONG
    return Regime.MARGINAL


def validity_check(
    scenario: protocol.Scenario,
    n: int = DEFAULT_GRID_POINTS,
) -> ValidityReport:
    """Exact protocol mean (`protocol.run`) vs the first-order one (`weak_value_report`)."""
    s = scenario
    sigma = moments(s.probe).std
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError("probe must have a finite positive momentum spread")
    exact = protocol.run(s, n=n).mean_kick
    first = weak_value_report(s.pre, s.post, s.delta_a, s.delta_b).effective_kick
    ratio_a, ratio_b = abs(s.delta_a) / sigma, abs(s.delta_b) / sigma
    return ValidityReport(
        kick_ratio_a=ratio_a,
        kick_ratio_b=ratio_b,
        first_order_mean=first,
        exact_mean=exact,
        abs_error=abs(exact - first),
        regime=classify_regime(max(ratio_a, ratio_b)),
    )
