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
from .wavepacket import DEFAULT_GRID_POINTS, GaussianPacket, moments

OVERLAP_FLOOR = 1e-15

# Kick-to-uncertainty thresholds for the first-order expansion to be trusted.
WEAK_THRESHOLD = 0.1
STRONG_THRESHOLD = 0.5


class Regime(Enum):
    WEAK = "weak"
    MARGINAL = "marginal"
    STRONG = "strong"


@dataclass
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
    return WeakValueReport(w_a / overlap, d_ef, -d_ef / delta_a if delta_a != 0.0 else math.nan,
                           overlap)


@dataclass
class ValidityReport:
    """How trustworthy the first-order prediction is for given kicks.

    Keeps the run (`exact`) and the `weak_value_report` (`report`) that it compares, and
    reads the exact and first-order means from them."""

    kick_ratio_a: float  # |delta_a| / sigma_p
    kick_ratio_b: float
    regime: Regime
    exact: protocol.PostselectedResult
    report: WeakValueReport

    @property
    def exact_mean(self) -> float:
        return self.exact.mean_kick

    @property
    def first_order_mean(self) -> float:
        return self.report.effective_kick

    @property
    def abs_error(self) -> float:
        return abs(self.exact.mean_kick - self.report.effective_kick)


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
    """One `protocol.run` (exact mean) vs one `weak_value_report` (first order)."""
    s = scenario
    sigma = s.probe.sigma if isinstance(s.probe, GaussianPacket) else moments(s.probe).std
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError("probe must have a finite positive momentum spread")
    exact = protocol.run(s, n=n)
    report = weak_value_report(s.pre, s.post, s.delta_a, s.delta_b)
    ratio_a, ratio_b = abs(s.delta_a) / sigma, abs(s.delta_b) / sigma
    # the first-order expansion is in the kick amplified by the projector weak value
    amplified = abs(report.projector_weak_value) * abs(s.delta_a - s.delta_b) / sigma
    return ValidityReport(ratio_a, ratio_b, classify_regime(max(ratio_a, ratio_b, amplified)),
                          exact, report)
