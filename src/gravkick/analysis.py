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
from .wavepacket import DEFAULT_GRID_POINTS, Wavepacket, moments

OVERLAP_FLOOR = 1e-15

# Kick-to-uncertainty thresholds for the first-order expansion to be trusted.
WEAK_THRESHOLD = 0.1
STRONG_THRESHOLD = 0.5


class Regime(Enum):
    WEAK = "weak"
    MARGINAL = "marginal"
    STRONG = "strong"


def _weights(pre: protocol.SourceState, post: protocol.SourceState) -> tuple[complex, ...]:
    """Phase-free branch weights w_X = conj(post_X) pre_X and their sum <post|pre>."""
    w_a, w_b = protocol.branch_weights(pre, post)
    if abs(w_a + w_b) <= OVERLAP_FLOOR:
        raise ValueError("pre and post states are (numerically) orthogonal")
    return w_a, w_b, w_a + w_b


def weak_value_projector(pre: protocol.SourceState, post: protocol.SourceState) -> complex:
    """Weak value w_A / <post|pre> of the branch-A projector, phase-free weights."""
    w_a, _, overlap = _weights(pre, post)
    return w_a / overlap


def weak_value_kick(
    pre: protocol.SourceState,
    post: protocol.SourceState,
    delta_a: float,
    delta_b: float,
) -> complex:
    """Weak value (w_A delta_a + w_B delta_b) / <post|pre> of the branch-diagonal kick
    operator diag(delta_a, delta_b), phase-free weights."""
    w_a, w_b, overlap = _weights(pre, post)
    return (w_a * delta_a + w_b * delta_b) / overlap


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

    For a real symmetric pointer only Re of the kick weak value shifts the
    momentum mean, so that is what `effective_kick` reports here.  Every field
    is phase-free, the overlap included.
    """
    wv = weak_value_kick(pre, post, delta_a, delta_b)
    d_ef = wv.real
    gain = -d_ef / delta_a if delta_a != 0.0 else math.nan
    return WeakValueReport(
        projector_weak_value=weak_value_projector(pre, post),
        effective_kick=d_ef,
        gain=gain,
        postselection_overlap=_weights(pre, post)[2],
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
    """Exact protocol mean vs the first-order weak-value prediction."""
    probe: Wavepacket = scenario.probe
    sigma = moments(probe).std
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError("probe must have a finite positive momentum spread")
    exact = protocol.run(scenario, n=n).mean_kick
    first = weak_value_kick(scenario.pre, scenario.post, scenario.delta_a, scenario.delta_b).real
    ratio_a = abs(scenario.delta_a) / sigma
    ratio_b = abs(scenario.delta_b) / sigma
    return ValidityReport(
        kick_ratio_a=ratio_a,
        kick_ratio_b=ratio_b,
        first_order_mean=first,
        exact_mean=exact,
        abs_error=abs(exact - first),
        regime=classify_regime(max(ratio_a, ratio_b)),
    )
