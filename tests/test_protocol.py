import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravkick.config import build_scenario, load_preset
from gravkick.protocol import (
    PostselectionImpossible,
    Scenario,
    SourceState,
    branch_weights,
    gaussian_postselection,
    paper_postselection,
    run,
)
from gravkick.wavepacket import displace, gaussian, moments, normalize, superpose, to_grid

from . import oracles
from .refvals import (
    AMP_ALPHA,
    AMP_BETA,
    AMP_PROBABILITY_LIMIT,
    FIG2_ALPHA,
    FIG2_BETA,
    FIG2_DELTA_A,
    FIG2_DELTA_B,
    FIG2_MEAN,
    FIG2_PROBABILITY,
    FIG2_STD,
)

RNG = np.random.default_rng(20260810)


BRANCH_BASIS = (SourceState(1.0, 0.0), SourceState(0.0, 1.0))


def fig2_scenario(**overrides):
    kwargs = dict(
        pre=SourceState(complex(FIG2_ALPHA), complex(FIG2_BETA)),
        post=paper_postselection(),
        probe=gaussian(0.0, 1.0, 1.0),
        delta_a=FIG2_DELTA_A,
        delta_b=FIG2_DELTA_B,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def random_source(rng) -> SourceState:
    raw = rng.normal(size=4)
    return SourceState.from_amplitudes(complex(raw[0], raw[1]), complex(raw[2], raw[3]))


class TestSourceState:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            SourceState(0.9, 0.9)

    @pytest.mark.parametrize("amps", [(math.nan, 0.0), (1.0, complex(0.0, math.nan))])
    def test_non_finite_amplitude_rejected(self, amps):
        with pytest.raises(ValueError, match="normalized"):
            SourceState(*amps)

    def test_from_amplitudes_normalizes(self):
        s = SourceState.from_amplitudes(3.0, 4.0)
        assert abs(s.amp_a) ** 2 + abs(s.amp_b) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_paper_postselection_phases(self):
        s = paper_postselection(0.3, -0.2)
        assert s.amp_a == pytest.approx(-np.exp(0.3j) / math.sqrt(2))
        assert s.amp_b == pytest.approx(np.exp(-0.2j) / math.sqrt(2))


class TestPrepare:
    # postselecting on a branch state |X> leaves the weight of that branch alone
    def test_single_branch(self):
        pre, probe = SourceState(1.0, 0.0), gaussian(0.0, 1.0)
        assert branch_weights(pre, SourceState.from_amplitudes(-1.0, 1.0))[1] == 0.0
        assert run(Scenario(pre, BRANCH_BASIS[0], probe, 0.0, 0.0)).probability == pytest.approx(
            1.0, abs=1e-12)
        with pytest.raises(PostselectionImpossible):
            run(Scenario(pre, BRANCH_BASIS[1], probe, 0.0, 0.0))

    def test_balanced_branch_norms(self):
        pre = SourceState.from_amplitudes(1.0, 1.0)
        assert abs(branch_weights(pre, BRANCH_BASIS[0])[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(branch_weights(pre, BRANCH_BASIS[1])[1]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_fig2_branch_weights(self):
        pre = SourceState(complex(FIG2_ALPHA), complex(FIG2_BETA))
        assert abs(branch_weights(pre, BRANCH_BASIS[0])[0]) ** 2 == pytest.approx(0.19, abs=1e-12)
        assert abs(branch_weights(pre, BRANCH_BASIS[1])[1]) ** 2 == pytest.approx(0.81, abs=1e-12)


class TestEvolve:
    def test_identity_without_interaction(self):
        pre, probe = SourceState.from_amplitudes(1.0, 2.0), gaussian(0.0, 1.0)
        post = BRANCH_BASIS[0]
        assert branch_weights(pre, post, 0.0, 0.0)[0] == pre.amp_a
        assert run(Scenario(pre, post, probe, 0.0, 0.0)).mean_kick == moments(probe).mean

    def test_branch_pointer_means(self):
        pre, probe = SourceState.from_amplitudes(1.0, 1.0), gaussian(0.0, 1.0)
        assert run(Scenario(pre, BRANCH_BASIS[0], probe, 0.7, 0.1)).mean_kick == pytest.approx(0.7)
        assert run(Scenario(pre, BRANCH_BASIS[1], probe, 0.7, 0.1)).mean_kick == pytest.approx(0.1)

    def test_unitarity_randomized(self):
        # grid pointers exercise the spectral-shift path; the kicked state's norm is the sum
        # of its postselection probabilities over the branch basis
        probe = to_grid(gaussian(0.0, 1.0, 1.0), -12.0, 12.0, n=512)
        for _ in range(1000):
            pre = random_source(RNG)
            delta = RNG.uniform(-2.0, 2.0, size=2)
            phi = RNG.uniform(-math.pi, math.pi, size=2)
            total = sum(run(Scenario(pre, post, probe, *delta, *phi)).probability
                        for post in BRANCH_BASIS)
            assert abs(total - 1.0) < 1e-10


class TestNonFiniteKick:
    @pytest.mark.parametrize("delta_a", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("probe", [gaussian(0.0, 1.0), to_grid(gaussian(0.0, 1.0), n=256)])
    def test_run_refuses_non_finite_kick(self, probe, delta_a):
        scenario = Scenario(pre=SourceState.from_amplitudes(1.0, 1.0),
                            post=paper_postselection(), probe=probe,
                            delta_a=delta_a, delta_b=0.1)
        with pytest.raises(ValueError, match="displacement must be finite"):
            run(scenario)

    @pytest.mark.parametrize("delta_a", [1e200, -1e160])
    def test_run_refuses_overflowing_statistics(self, delta_a):
        # kicks ~1e154 sigma apart overflow gap^2 in the closed form: std would be inf
        with pytest.raises(ValueError, match="not finite"):
            run(fig2_scenario(delta_a=delta_a, delta_b=delta_a / 10.0))


class TestPostselect:
    def test_single_branch_survives(self):
        result = run(Scenario(SourceState(0.0, 1.0), SourceState.from_amplitudes(-1.0, 1.0),
                              gaussian(0.0, 1.0), 0.7, 0.1))
        assert result.mean_kick == pytest.approx(0.1, abs=1e-10)
        assert result.probability == pytest.approx(0.5, abs=1e-10)

    def test_fig2_exact_statistics(self):
        result = run(fig2_scenario())
        assert result.mean_kick == pytest.approx(FIG2_MEAN, abs=1e-9)
        assert result.probability == pytest.approx(FIG2_PROBABILITY, abs=1e-8)
        assert result.std == pytest.approx(FIG2_STD, abs=1e-8)

    def test_fig2_against_quadrature_oracle(self):
        result = run(fig2_scenario())
        norm2, mean, std = oracles.superposition_stats(
            [FIG2_BETA / math.sqrt(2), -FIG2_ALPHA / math.sqrt(2)],
            [FIG2_DELTA_B, FIG2_DELTA_A],
        )
        assert result.probability == pytest.approx(norm2, abs=1e-9)
        assert result.mean_kick == pytest.approx(mean, abs=1e-9)
        assert result.std == pytest.approx(std, abs=1e-9)

    def test_amplification_probability_weak_limit(self):
        scenario = fig2_scenario(
            pre=SourceState(complex(AMP_ALPHA), complex(AMP_BETA)),
            delta_a=1e-6,
            delta_b=1e-7,
        )
        result = run(scenario)
        assert result.probability == pytest.approx(AMP_PROBABILITY_LIMIT, rel=1e-2)

    def test_closed_form_probability_randomized(self):
        # exact grid probability vs (1 - 2 a b I)/2 for the sign-flip postselection
        for _ in range(50):
            beta = RNG.uniform(0.55, 0.95)
            alpha = math.sqrt(1 - beta**2)
            d_a, d_b = sorted(RNG.uniform(0.0, 2.0, size=2))[::-1]
            scenario = fig2_scenario(
                pre=SourceState(alpha, beta), delta_a=d_a, delta_b=d_b
            )
            pointer_overlap = math.exp(-((d_a - d_b) ** 2) / 8.0)
            expected = (1 - 2 * alpha * beta * pointer_overlap) / 2
            assert run(scenario).probability == pytest.approx(expected, abs=1e-8)

    def test_impossible_postselection_is_an_error(self):
        # equal amplitudes, no kicks, orthogonal sign-flip: exact destructive interference;
        # the grid probe's state is identically zero, which `moments` rejects as a plain ValueError
        for probe in (gaussian(0.0, 1.0), to_grid(gaussian(0.0, 1.0))):
            scenario = Scenario(SourceState.from_amplitudes(1.0, 1.0),
                                SourceState.from_amplitudes(-1.0, 1.0), probe, 0.0, 0.0)
            with pytest.raises(PostselectionImpossible):
                run(scenario)

    def test_completeness_randomized(self):
        probe = gaussian(0.0, 1.0, 1.0)
        for _ in range(1000):
            pre = random_source(RNG)
            kicks_and_phases = (*RNG.uniform(-1.5, 1.5, size=2), *RNG.uniform(-3, 3, size=2))
            basis_1 = random_source(RNG)
            basis_2 = SourceState(
                -complex(basis_1.amp_b).conjugate(), complex(basis_1.amp_a).conjugate()
            )
            total = 0.0
            for basis in (basis_1, basis_2):
                try:
                    total += run(Scenario(pre, basis, probe, *kicks_and_phases)).probability
                except PostselectionImpossible:
                    pass
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_phase_cancellation(self):
        # phase-matched sign-flip postselection: mean independent of phases
        reference = run(fig2_scenario()).mean_kick
        for _ in range(25):
            phi_a, phi_b = RNG.uniform(-math.pi, math.pi, size=2)
            scenario = fig2_scenario(
                post=paper_postselection(phi_a, phi_b), phi_a=phi_a, phi_b=phi_b
            )
            assert run(scenario).mean_kick == pytest.approx(reference, abs=1e-9)

    def test_conditional_is_normalized(self):
        result = run(fig2_scenario())
        assert moments(result.conditional).norm == pytest.approx(1.0, abs=1e-10)

    def test_conditional_rendered_once_on_first_read(self, superpose_calls):
        result = run(fig2_scenario(), n=65536)
        assert len(superpose_calls) == 0
        assert result.conditional.p.size == 65536
        assert len(superpose_calls) == 1
        assert result.conditional is result.conditional
        assert len(superpose_calls) == 1

    @pytest.mark.parametrize("preset", ["fig2", "amplification"])
    def test_lazy_conditional_matches_eager_render(self, preset):
        built = build_scenario(load_preset(preset))
        s = built.scenario
        w_a, w_b = pointer_weights(s)
        eager = normalize(superpose(
            [(w_a, displace(s.probe, s.delta_a)), (w_b, displace(s.probe, s.delta_b))],
            n=built.grid_points,
        ))
        lazy = run(s, n=built.grid_points).conditional
        assert np.array_equal(lazy.p, eager.p)
        assert np.array_equal(lazy.amps, eager.amps)


def pointer_weights(scenario: Scenario) -> tuple[complex, complex]:
    """The scenario's branch weights w_X = conj(post_X) pre_X exp(i phi_X)."""
    return branch_weights(scenario.pre, scenario.post, scenario.phi_a, scenario.phi_b)


def paper_scenario(beta: float, delta_a: float, delta_b: float) -> Scenario:
    return fig2_scenario(
        pre=SourceState(complex(math.sqrt(1 - beta**2)), complex(beta)),
        delta_a=delta_a,
        delta_b=delta_b,
    )


def random_phase_scenario(rng) -> Scenario:
    phi_a, phi_b = rng.uniform(-math.pi, math.pi, size=2)
    d_a, d_b = rng.uniform(-3.0, 3.0, size=2)
    return Scenario(
        pre=random_source(rng),
        post=random_source(rng),
        probe=gaussian(0.0, 1.0, 1.0),
        delta_a=d_a,
        delta_b=d_b,
        phi_a=phi_a,
        phi_b=phi_b,
    )


MP_BATCH_RNG = np.random.default_rng(314159)
MP_CASES = [
    ("amplification preset", build_scenario(load_preset("amplification")).scenario),
    ("gap 1e-6, d_A 1e-8", paper_scenario(math.sqrt(0.5) + 1e-6, 1e-8, 1e-9)),
    ("gap 1e-9, d_A 1e-12", paper_scenario(math.sqrt(0.5) + 1e-9, 1e-12, 1e-13)),
    ("d_A 1e4 sigma", paper_scenario(0.9, 1e4, 1e3)),
    ("d_A 1e5 sigma", paper_scenario(0.9, 1e5, 1e4)),
] + [(f"complex phases {i}", random_phase_scenario(MP_BATCH_RNG)) for i in range(20)]


class TestGaussianPostselection:
    @pytest.mark.parametrize("scenario", [c[1] for c in MP_CASES], ids=[c[0] for c in MP_CASES])
    def test_matches_mpmath(self, scenario):
        w_a, w_b = pointer_weights(scenario)
        sigma = scenario.probe.sigma
        args = (w_a, w_b, scenario.delta_a, scenario.delta_b, sigma)
        prob, mean, std = gaussian_postselection(*args)
        ref_prob, ref_mean, ref_std = oracles.two_gaussian_stats_mp(*args)
        assert prob == pytest.approx(ref_prob, rel=1e-12, abs=0.0)
        assert abs(mean - ref_mean) <= 1e-12 * max(abs(ref_mean), 1e-6 * sigma)
        assert std == pytest.approx(ref_std, rel=1e-12, abs=0.0)

    def test_oracle_matches_quadrature(self):
        scenario = random_phase_scenario(np.random.default_rng(7))
        w_a, w_b = pointer_weights(scenario)
        mp_stats = oracles.two_gaussian_stats_mp(w_a, w_b, scenario.delta_a, scenario.delta_b, 1.0)
        quad_stats = oracles.superposition_stats(
            [w_a, w_b], [scenario.delta_a, scenario.delta_b]
        )
        assert mp_stats == pytest.approx(quad_stats, abs=1e-9)

    def test_separated_pointers_on_default_grid(self):
        # The pointers no longer overlap (I = 0), so P = (alpha^2 + beta^2)/2 and
        # the conditional is the branch mixture.  The default 2048-point grid
        # spaces its samples more than 4 sigma apart here and cannot resolve it.
        alpha, beta, d_a, d_b = math.sqrt(0.19), 0.9, 1e4, 1e3
        result = run(paper_scenario(beta, d_a, d_b))
        assert result.probability == pytest.approx(0.5, rel=1e-12)
        assert result.mean_kick == pytest.approx(alpha**2 * d_a + beta**2 * d_b, rel=1e-12)
        assert result.std**2 == pytest.approx(
            1.0 + (alpha * beta * (d_a - d_b)) ** 2, rel=1e-12
        )

    def test_grid_probe_agrees_with_closed_form(self):
        probe = to_grid(gaussian(0.0, 1.0, 1.0), -12.0, 12.0, n=2048)
        rng = np.random.default_rng(2718)
        for scenario in [fig2_scenario()] + [random_phase_scenario(rng) for _ in range(10)]:
            grid = run(replace(scenario, probe=probe))
            closed = gaussian_postselection(
                *pointer_weights(scenario), scenario.delta_a, scenario.delta_b, 1.0
            )
            assert (grid.probability, grid.mean_kick, grid.std) == pytest.approx(
                closed, abs=1e-10
            )

    def test_zero_probability_has_no_moments(self):
        prob, mean, std = gaussian_postselection(-0.5, 0.5, 0.3, 0.3, 1.0)
        assert prob == 0.0
        assert math.isnan(mean) and math.isnan(std)


def mixture_mean_kick(weights, subensemble, kicks):
    """Mean kick of a classical mixture of the branch kicks, reweighted by a subensemble."""
    masses = np.multiply(weights, subensemble)
    return float(masses @ kicks / masses.sum())


class TestClassicalBaseline:
    # The mean is a convex combination of the kicks, so it stays inside the hull
    # [min(delta_A, delta_B), max(delta_A, delta_B)] (to rounding): a classical mixture
    # cannot flip the sign of the momentum transfer.
    def test_always_positive_for_positive_kicks(self):
        for _ in range(10000):
            w = RNG.uniform(0.0, 1.0)
            kicks = RNG.uniform(1e-6, 5.0, size=2)
            sub = RNG.uniform(0.0, 1.0, size=2)
            if sub[0] * w + sub[1] * (1 - w) <= 0:
                continue
            kick = mixture_mean_kick((w, 1.0 - w), sub, kicks)
            assert kick > 0
            assert kicks.min() * (1 - 1e-15) <= kick <= kicks.max() * (1 + 1e-15)

    def test_quantum_classical_separation(self):
        # the repulsion witness: the quantum mean leaves the hull, and is negative;
        # every classical mixture stays inside it
        kicks = np.array([FIG2_DELTA_A, FIG2_DELTA_B])
        quantum = run(fig2_scenario()).mean_kick
        assert quantum < 0 < kicks.min()
        for _ in range(10000):
            sub = RNG.uniform(0.0, 1.0, size=2)
            if sub.sum() == 0:
                continue
            kick = mixture_mean_kick((FIG2_ALPHA**2, FIG2_BETA**2), sub, kicks)
            assert kick >= kicks.min() * (1 - 1e-15) > quantum


def test_source_overlap_matches_inner_product():
    # without phases the branch weights sum to <post|pre>
    a = SourceState.from_amplitudes(1 + 2j, 0.5 - 1j)
    b = SourceState.from_amplitudes(-0.3, 0.8 + 0.1j)
    expected = (
        complex(b.amp_a).conjugate() * complex(a.amp_a)
        + complex(b.amp_b).conjugate() * complex(a.amp_b)
    )
    w_a, w_b = branch_weights(a, b)
    assert w_a + w_b == pytest.approx(expected)


class TestBranchWeights:
    def test_run_terms_carry_branch_weights(self):
        rng = np.random.default_rng(1618)
        for _ in range(200):
            s = random_phase_scenario(rng)
            (w_a, _), (w_b, _) = run(s).terms
            assert (w_a, w_b) == branch_weights(s.pre, s.post, s.phi_a, s.phi_b)

    def test_phases_turn_each_branch(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            pre, post = random_source(rng), random_source(rng)
            phi_a, phi_b = rng.uniform(-math.pi, math.pi, size=2)
            plain = branch_weights(pre, post)
            turned = branch_weights(pre, post, phi_a, phi_b)
            assert turned == pytest.approx(
                (plain[0] * cmath.exp(1j * phi_a), plain[1] * cmath.exp(1j * phi_b)), abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    beta=st.floats(min_value=0.45, max_value=0.95),
    delta=st.floats(min_value=0.0, max_value=1.5),
)
def test_evolve_then_postselect_probability_in_range(beta, delta):
    alpha = math.sqrt(1 - beta**2)
    scenario = Scenario(
        pre=SourceState(alpha, beta),
        post=paper_postselection(),
        probe=gaussian(0.0, 1.0, 1.0),
        delta_a=delta,
        delta_b=delta / 3.0,
    )
    try:
        result = run(scenario)
    except PostselectionImpossible:
        return
    assert 0.0 <= result.probability <= 1.0 + 1e-12
