import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravkick import protocol
from gravkick.analysis import (
    WeakValueReport,
    classify_regime,
    validity_check,
    weak_value_report,
)
from gravkick.protocol import (
    PostselectedResult,
    Scenario,
    SourceState,
    branch_weights,
    paper_postselection,
    postselect,
    run,
)
from gravkick.wavepacket import GaussianPacket, GridPacket, Moments, moments

from . import oracles
from .probes import fig2_scenario, grid_probe
from .refvals import (
    AMP_ALPHA,
    AMP_BETA,
    AMP_GAIN,
    FIG2_ALPHA,
    FIG2_BETA,
    FIG2_ABS_ERROR,
    FIG2_DELTA_A,
    FIG2_DELTA_B,
    FIG2_DELTA_EF,
    FIG2_PROJECTOR_WV,
)

RNG = np.random.default_rng(77)


def paper_pair(alpha, beta):
    return SourceState(complex(alpha), complex(beta)), paper_postselection()


def projector_weak_value(pre, post):
    """The branch-A projector's weak value; it does not depend on the kicks."""
    return weak_value_report(pre, post, 1.0, 0.0).projector_weak_value


def kick_weak_value(pre, post, d_a, d_b):
    """Re of the kick operator's weak value, the report's first-order kick."""
    return weak_value_report(pre, post, d_a, d_b).effective_kick


def effective_kick(alpha, beta, d_a, d_b):
    """The report's first-order kick for real amplitudes and the paper postselection."""
    return kick_weak_value(*paper_pair(alpha, beta), d_a, d_b)


class TestProjectorWeakValue:
    def test_sign_flip_postselection(self):
        pre, post = paper_pair(FIG2_ALPHA, FIG2_BETA)
        wv = projector_weak_value(pre, post)
        assert wv.real == pytest.approx(FIG2_PROJECTOR_WV, abs=1e-12)
        assert wv.real == pytest.approx(-FIG2_ALPHA / (FIG2_BETA - FIG2_ALPHA), abs=1e-14)
        assert wv.imag == pytest.approx(0.0, abs=1e-14)

    def test_no_postselection_gives_expectation(self):
        state = SourceState(complex(FIG2_ALPHA), complex(FIG2_BETA))
        assert projector_weak_value(state, state).real == pytest.approx(
            FIG2_ALPHA**2, abs=1e-14
        )

    def test_branch_b_prestate_annihilated(self):
        pre = SourceState(0.0, 1.0)
        post = SourceState.from_amplitudes(-1.0, 1.0)
        assert projector_weak_value(pre, post) == 0.0

    def test_orthogonal_states_rejected(self):
        pre = SourceState.from_amplitudes(1.0, 1.0)
        post = SourceState.from_amplitudes(1.0, -1.0)
        with pytest.raises(ValueError, match="orthogonal"):
            projector_weak_value(pre, post)


class TestEffectiveKick:
    def test_fig2_value(self):
        value = effective_kick(FIG2_ALPHA, FIG2_BETA, FIG2_DELTA_A, FIG2_DELTA_B)
        assert value == pytest.approx(FIG2_DELTA_EF, abs=1e-12)

    def test_common_kick_passes_through(self):
        for alpha, beta in [(0.3, math.sqrt(1 - 0.09)), (0.6, 0.8)]:
            assert effective_kick(alpha, beta, 0.42, 0.42) == pytest.approx(0.42, abs=1e-14)

    def test_amplified_configuration(self):
        delta_a = 1.0
        value = effective_kick(AMP_ALPHA, AMP_BETA, delta_a, delta_a / 10.0)
        assert value == pytest.approx(-AMP_GAIN * delta_a, rel=1e-12)
        # consistent with "around -1e3 delta_a" within a factor 1.1
        assert 1e3 / 1.1 <= -value / delta_a <= 1e3 * 1.1

    def test_equal_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            effective_kick(math.sqrt(0.5), math.sqrt(0.5), 1.0, 0.1)


class TestKickWeakValue:
    def test_matches_effective_kick_randomized(self):
        # Schrodinger/Heisenberg identity over 1e4 random real parameter draws
        betas = RNG.uniform(0.05, 0.999, size=10000)
        kicks = RNG.uniform(-3.0, 3.0, size=(10000, 2))
        for beta, (d_a, d_b) in zip(betas, kicks):
            alpha = math.sqrt(1 - beta * beta)
            if abs(beta - alpha) < 1e-3:
                continue
            pre, post = paper_pair(alpha, beta)
            wv = kick_weak_value(pre, post, d_a, d_b)
            direct = oracles.effective_kick(alpha, beta, d_a, d_b)
            assert wv == pytest.approx(direct, rel=1e-12, abs=1e-13)

    def test_no_postselection_gives_expectation(self):
        state = SourceState(0.6, 0.8)
        wv = kick_weak_value(state, state, 0.7, 0.1)
        assert wv == pytest.approx(0.36 * 0.7 + 0.64 * 0.1, abs=1e-14)

    def test_identity_operator_component(self):
        pre, post = paper_pair(0.4, math.sqrt(1 - 0.16))
        wv = kick_weak_value(pre, post, 0.37, 0.37)
        assert wv == pytest.approx(0.37, abs=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(
        beta=st.floats(min_value=0.1, max_value=0.99),
        d_a=st.floats(min_value=-2, max_value=2),
        d_b=st.floats(min_value=-2, max_value=2),
    )
    def test_identity_property(self, beta, d_a, d_b):
        alpha = math.sqrt(1 - beta * beta)
        if abs(beta - alpha) < 1e-4:
            return
        pre, post = paper_pair(alpha, beta)
        wv = kick_weak_value(pre, post, d_a, d_b)
        assert wv == pytest.approx(oracles.effective_kick(alpha, beta, d_a, d_b), rel=1e-12,
                                   abs=1e-13)


class TestWeakValueReport:
    def test_fig2_report(self):
        pre, post = paper_pair(FIG2_ALPHA, FIG2_BETA)
        report = weak_value_report(pre, post, FIG2_DELTA_A, FIG2_DELTA_B)
        assert report.effective_kick == pytest.approx(FIG2_DELTA_EF, abs=1e-12)
        assert report.gain == pytest.approx(-FIG2_DELTA_EF / FIG2_DELTA_A, abs=1e-12)
        assert report.postselection_overlap.real == pytest.approx(
            (FIG2_BETA - FIG2_ALPHA) / math.sqrt(2), abs=1e-14
        )

    def test_projector_relation(self):
        # delta_ef = delta_b + (delta_a - delta_b) * Re <Pi_A>_W
        pre, post = paper_pair(FIG2_ALPHA, FIG2_BETA)
        report = weak_value_report(pre, post, FIG2_DELTA_A, FIG2_DELTA_B)
        relation = FIG2_DELTA_B + (FIG2_DELTA_A - FIG2_DELTA_B) * report.projector_weak_value.real
        assert report.effective_kick == pytest.approx(relation, abs=1e-12)

    def test_overlap_is_the_sum_of_phase_free_weights(self):
        for _ in range(50):
            raw = RNG.normal(size=(2, 4))
            pre, post = (SourceState.from_amplitudes(complex(r[0], r[1]), complex(r[2], r[3]))
                         for r in raw)
            w_a, w_b = branch_weights(pre, post)
            report = weak_value_report(pre, post, 0.7, 0.1)
            assert report.postselection_overlap == w_a + w_b
            assert report.projector_weak_value == w_a / (w_a + w_b)

    def test_gain_overlap_tradeoff(self):
        # gain grows without bound as the overlap shrinks, but gain*|overlap| stays bounded
        kick_ratio = 0.1
        gains, products = [], []
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            beta = 1 / math.sqrt(2) + eps
            alpha = math.sqrt(1 - beta**2)
            pre, post = paper_pair(alpha, beta)
            report = weak_value_report(pre, post, 1.0, kick_ratio)
            gains.append(report.gain)
            products.append(report.gain * abs(report.postselection_overlap))
        assert all(g2 > g1 for g1, g2 in zip(gains, gains[1:]))
        bound = (1 + kick_ratio) / math.sqrt(2)
        assert all(p <= bound for p in products)


class TestValidity:
    def test_fig2_is_strong_regime(self):
        report = validity_check(fig2_scenario())
        assert report.regime == "strong"
        assert abs(report.exact_mean - report.first_order_mean) == pytest.approx(
            FIG2_ABS_ERROR, abs=1e-9)

    def test_weak_kicks_agree_within_percent(self):
        report = validity_check(fig2_scenario(delta_a=7e-3, delta_b=1e-3))
        assert report.regime == "weak"
        error = abs(report.exact_mean - report.first_order_mean)
        assert error / abs(report.first_order_mean) < 1e-2

    def test_second_check_on_a_grid_probe_takes_no_probe_moments(self, monkeypatch):
        passes = []
        original = GridPacket._trapezoid
        monkeypatch.setattr(GridPacket, "_trapezoid",
                            lambda self, y: passes.append(self) or original(self, y))
        probe = grid_probe(GaussianPacket(0.0, 1.0), -12.0, 12.0, n=512)
        scenario = fig2_scenario(probe=probe, delta_a=0.3, delta_b=0.1)
        first = validity_check(scenario)
        assert [p is probe for p in passes] == [True] * 3 + [False] * 3
        passes.clear()
        second = validity_check(scenario)
        assert len(passes) == 3 and probe not in passes
        assert second == first

    def test_gaussian_probe_check_builds_no_moments(self, monkeypatch):
        built = []
        original = Moments.__init__
        monkeypatch.setattr(Moments, "__init__",
                            lambda self, *args, **kwargs: built.append(1)
                            or original(self, *args, **kwargs))
        scenario = fig2_scenario(probe=GaussianPacket(0.0, 1.3), delta_a=0.3, delta_b=0.1)
        report = validity_check(scenario)
        assert built == []
        assert report.kick_ratio_a == 0.3 / moments(scenario.probe).std
        assert built == [1]  # the counter sees a Gaussian's `moments`

    def test_probe_without_spread_refused(self):
        amps = np.zeros(64)
        amps[20] = 1.0  # one sample: std 0
        probe = GridPacket(p=np.linspace(-4.0, 4.0, 64), amps=amps)
        with pytest.raises(ValueError, match="^probe must have a finite positive momentum spread$"):
            validity_check(fig2_scenario(probe=probe))

    def test_no_branch_contrast_no_error(self):
        report = validity_check(fig2_scenario(delta_a=0.25, delta_b=0.25))
        assert abs(report.exact_mean - report.first_order_mean) < 1e-12

    def test_weak_limit_convergence_slope(self):
        # scaling the kicks by s, |exact - first order| must vanish faster than s^1.9
        scales = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        first_order_unit = effective_kick(FIG2_ALPHA, FIG2_BETA, FIG2_DELTA_A, FIG2_DELTA_B)
        errors = []
        for s in scales:
            scenario = fig2_scenario(delta_a=s * FIG2_DELTA_A, delta_b=s * FIG2_DELTA_B)
            errors.append(abs(run(scenario).mean_kick - s * first_order_unit))
        slope = np.polyfit(np.log(scales), np.log(errors), 1)[0]
        assert slope >= 1.9

    @pytest.mark.parametrize("kind", ["gaussian", "grid"])
    def test_means_are_read_from_the_run_and_the_report(self, kind):
        rng = np.random.default_rng(2323)
        for _ in range(20):
            psi = GaussianPacket(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.5))
            probe = psi if kind == "gaussian" else grid_probe(psi, -14.0, 14.0, n=512)
            raw = rng.normal(size=(2, 4))
            pre, post = (SourceState.from_amplitudes(complex(a, b), complex(c, d))
                         for a, b, c, d in raw)
            s = Scenario(pre, post, probe, *rng.uniform(-2.0, 2.0, size=2),
                         *rng.uniform(-math.pi, math.pi, size=2))
            validity = validity_check(s)
            assert validity.exact_mean == run(s).mean_kick
            first = weak_value_report(s.pre, s.post, s.delta_a, s.delta_b).effective_kick
            assert validity.first_order_mean == first

    def test_reports_whose_means_differ_compare_unequal(self):
        s = fig2_scenario(delta_a=0.3, delta_b=0.1)
        first, phased = validity_check(s), validity_check(replace(s, phi_a=0.4))
        # the phase moves only the exact mean: the first-order report is phase-free
        assert phased.exact_mean != first.exact_mean
        assert (phased.kick_ratio_a, phased.kick_ratio_b, phased.regime, phased.report) == (
            first.kick_ratio_a, first.kick_ratio_b, first.regime, first.report)
        assert phased != first
        shifted = replace(first, report=replace(first.report, effective_kick=1.0))
        assert shifted.first_order_mean == 1.0 and shifted != first
        for report in (first, phased):
            assert repr(report.exact_mean) in repr(report)
            assert repr(report.first_order_mean) in repr(report)

    @pytest.mark.parametrize("kind", ["gaussian", "grid"])
    def test_one_check_builds_one_run_and_one_report(self, monkeypatch, kind):
        built = []
        for cls in (PostselectedResult, WeakValueReport):
            monkeypatch.setattr(cls, "__init__",
                                lambda self, *args, _init=cls.__init__, **kwargs:
                                built.append(type(self)) or _init(self, *args, **kwargs))
        psi = GaussianPacket(0.0, 1.0)
        probe = psi if kind == "gaussian" else grid_probe(psi, -12.0, 12.0, n=512)
        validity = validity_check(fig2_scenario(probe=probe, delta_a=0.3, delta_b=0.1))
        assert built == [PostselectedResult, WeakValueReport]
        validity.exact_mean, validity.first_order_mean, repr(validity)
        assert built == [PostselectedResult, WeakValueReport]

    def test_weights_that_cancel_read_strong(self, monkeypatch):
        # a run whose weights sum to 0 has an unbounded projector weak value; the phase-free
        # report of the same scenario reads its kicks as weak
        monkeypatch.setattr(protocol, "run", lambda s, n: postselect(
            0.5, -0.5, s.probe, s.delta_a, s.delta_b, n))
        assert validity_check(fig2_scenario(delta_a=7e-3, delta_b=1e-3)).regime == "strong"

    def test_regime_thresholds(self):
        assert classify_regime(0.05) == "weak"
        assert classify_regime(0.3) == "marginal"
        assert classify_regime(0.7) == "strong"


class TestRepulsionCondition:
    def test_sign_iff_inequality(self):
        # delta_ef < 0 iff alpha (dA - dB)/(beta - alpha) > dB, for beta > alpha > 0
        for _ in range(2000):
            beta = RNG.uniform(0.71, 0.99)
            alpha = math.sqrt(1 - beta**2)
            d_a = RNG.uniform(0.1, 3.0)
            d_b = RNG.uniform(0.0, d_a)
            kick = effective_kick(alpha, beta, d_a, d_b)
            condition = alpha * (d_a - d_b) / (beta - alpha) > d_b
            assert (kick < 0) == condition
