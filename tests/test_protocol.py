import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravkick import protocol
from gravkick.config import build_scenario, load_preset
from gravkick.protocol import (
    PostselectedResult,
    PostselectionImpossible,
    Scenario,
    SourceState,
    branch_weights,
    gaussian_postselection,
    paper_postselection,
    postselect,
    run,
)
from gravkick.wavepacket import GaussianPacket, GridPacket, displace, moments, superpose

from . import oracles
from .probes import grid_probe
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
        probe=GaussianPacket(0.0, 1.0, 1.0),
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
        pre, probe = SourceState(1.0, 0.0), GaussianPacket(0.0, 1.0)
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
        pre, probe = SourceState.from_amplitudes(1.0, 2.0), GaussianPacket(0.0, 1.0)
        post = BRANCH_BASIS[0]
        assert branch_weights(pre, post, 0.0, 0.0)[0] == pre.amp_a
        assert run(Scenario(pre, post, probe, 0.0, 0.0)).mean_kick == moments(probe).mean

    def test_branch_pointer_means(self):
        pre, probe = SourceState.from_amplitudes(1.0, 1.0), GaussianPacket(0.0, 1.0)
        assert run(Scenario(pre, BRANCH_BASIS[0], probe, 0.7, 0.1)).mean_kick == pytest.approx(0.7)
        assert run(Scenario(pre, BRANCH_BASIS[1], probe, 0.7, 0.1)).mean_kick == pytest.approx(0.1)

    def test_unitarity_randomized(self):
        # grid pointers exercise the spectral-shift path; the kicked state's norm is the sum
        # of its postselection probabilities over the branch basis
        probe = grid_probe(GaussianPacket(0.0, 1.0, 1.0), -12.0, 12.0, n=512)
        for _ in range(1000):
            pre = random_source(RNG)
            delta = RNG.uniform(-2.0, 2.0, size=2)
            phi = RNG.uniform(-math.pi, math.pi, size=2)
            total = sum(run(Scenario(pre, post, probe, *delta, *phi)).probability
                        for post in BRANCH_BASIS)
            assert abs(total - 1.0) < 1e-10


class TestNonFiniteKick:
    @pytest.mark.parametrize("delta_a", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("probe", [GaussianPacket(0.0, 1.0),
                                       grid_probe(GaussianPacket(0.0, 1.0), -10.0, 10.0, n=256)])
    def test_run_refuses_non_finite_kick(self, probe, delta_a):
        scenario = Scenario(pre=SourceState.from_amplitudes(1.0, 1.0),
                            post=paper_postselection(), probe=probe,
                            delta_a=delta_a, delta_b=0.1)
        with pytest.raises(ValueError, match="displacement must be finite"):
            run(scenario)

    @pytest.mark.parametrize("delta_b, message", [
        (math.inf, "displacement must be finite"),
        (math.nan, "displacement must be finite"),
        (5.0, "exceeds the guard range"),  # exactly span/4
        (-7.5, "exceeds the guard range"),
    ])
    def test_grid_run_checks_delta_b_alone(self, delta_b, message):
        # the one spectral pass over both kicks still checks each of them
        scenario = Scenario(pre=SourceState.from_amplitudes(1.0, 1.0),
                            post=paper_postselection(), delta_a=0.1, delta_b=delta_b,
                            probe=grid_probe(GaussianPacket(0.0, 1.0), -10.0, 10.0, n=256))
        with pytest.raises(ValueError, match=message):
            run(scenario)

    @pytest.mark.parametrize("phase", ["phi_a", "phi_b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("probe", [GaussianPacket(0.0, 1.0),
                                       grid_probe(GaussianPacket(0.0, 1.0), -10.0, 10.0, n=256)])
    def test_run_names_a_non_finite_phase(self, probe, phase, value):
        scenario = replace(fig2_scenario(probe=probe), **{phase: value})
        with pytest.raises(ValueError, match=f"^phase {phase} must be finite, got {value!r}$"):
            run(scenario)

    @pytest.mark.parametrize("delta_a", [1e200, -1e160])
    def test_run_refuses_overflowing_statistics(self, delta_a):
        # kicks ~1e154 sigma apart overflow gap^2 in the closed form: std would be inf
        with pytest.raises(ValueError, match="not finite"):
            run(fig2_scenario(delta_a=delta_a, delta_b=delta_a / 10.0))


class TestPostselect:
    def test_single_branch_survives(self):
        result = run(Scenario(SourceState(0.0, 1.0), SourceState.from_amplitudes(-1.0, 1.0),
                              GaussianPacket(0.0, 1.0), 0.7, 0.1))
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
        for probe in (GaussianPacket(0.0, 1.0), grid_probe(GaussianPacket(0.0, 1.0), -10.0, 10.0)):
            scenario = Scenario(SourceState.from_amplitudes(1.0, 1.0),
                                SourceState.from_amplitudes(-1.0, 1.0), probe, 0.0, 0.0)
            with pytest.raises(PostselectionImpossible):
                run(scenario)

    def test_completeness_randomized(self):
        probe = GaussianPacket(0.0, 1.0, 1.0)
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

    @pytest.mark.parametrize("n", [8, 15, 2048.5])
    def test_gaussian_grid_size_refused_at_the_call(self, n):
        s = fig2_scenario()
        w_a, w_b = pointer_weights(s)
        for call in (lambda: run(s, n=n),
                     lambda: postselect(w_a, w_b, s.probe, s.delta_a, s.delta_b, n=n)):
            with pytest.raises(ValueError, match=r"^n must be an integer of at least 16, got "):
                call()

    @pytest.mark.parametrize("n", [16, np.int64(16)])
    def test_smallest_gaussian_grid_size_renders(self, n):
        assert run(fig2_scenario(), n=n).conditional.p.size == 16

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
        eager = superpose(
            [(w_a, displace(s.probe, s.delta_a)), (w_b, displace(s.probe, s.delta_b))],
            n=built.grid_points,
        )
        lazy = run(s, n=built.grid_points).conditional
        assert np.array_equal(lazy.p, eager.p)
        assert np.array_equal(lazy.amps, eager.amps / moments(eager).norm)


class TestGridRun:
    @pytest.mark.parametrize("n", [16, 17, 2048, 8192])
    def test_matches_separately_kicked_pointers(self, n):
        probe = grid_probe(GaussianPacket(0.3, 1.2), -12.0, 12.0, n=n)
        rng = np.random.default_rng(n)
        for _ in range(10):
            s = replace(random_phase_scenario(rng), probe=probe)
            w_a, w_b = pointer_weights(s)
            a, b = displace(probe, s.delta_a), displace(probe, s.delta_b)
            separate = moments(GridPacket(p=probe.p, amps=w_a * a.amps + w_b * b.amps))
            result = run(s)
            assert (result.probability, result.mean_kick, result.std) == pytest.approx(
                (separate.norm**2, separate.mean, separate.std), rel=1e-12)

    def test_one_fft_and_one_ifft_per_run(self, monkeypatch):
        # the probe keeps its spectrum: only the first run on it transforms it, and an
        # equal but distinct probe transforms its own
        calls = []
        for name in ("fft", "ifft"):
            original = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda a, _f=original, _n=name: calls.append(_n)
                                or _f(a))
        probe = grid_probe(GaussianPacket(0.0, 1.0), -12.0, 12.0, n=512)
        rng = np.random.default_rng(5)
        for expected in (["fft", "ifft"], ["ifft"], ["ifft"]):
            calls.clear()
            run(replace(random_phase_scenario(rng), probe=probe))
            assert calls == expected
        calls.clear()
        run(replace(random_phase_scenario(rng), probe=GridPacket(p=probe.p, amps=probe.amps)))
        assert calls == ["fft", "ifft"]

    def test_conditional_takes_no_further_moments(self, monkeypatch):
        passes = []
        original = GridPacket._trapezoid
        monkeypatch.setattr(GridPacket, "_trapezoid",
                            lambda self, y: passes.append(1) or original(self, y))
        probe = grid_probe(GaussianPacket(0.0, 1.0), -12.0, 12.0, n=512)
        result = run(replace(random_phase_scenario(np.random.default_rng(9)), probe=probe))
        assert len(passes) == 3
        conditional = result.conditional
        assert len(passes) == 3
        assert moments(conditional).norm == pytest.approx(1.0, abs=1e-12)

    def test_terms_are_the_displaced_branch_pointers(self, superpose_calls):
        probe = grid_probe(GaussianPacket(0.0, 1.0), -12.0, 12.0, n=512)
        s = replace(random_phase_scenario(np.random.default_rng(8)), probe=probe)
        result = run(s)
        (w_a, psi_a), (w_b, psi_b) = result.terms
        assert (w_a, w_b) == pointer_weights(s)
        for psi, delta in ((psi_a, s.delta_a), (psi_b, s.delta_b)):
            assert psi.p is probe.p
            assert np.array_equal(psi.amps, displace(probe, delta).amps)
        kicked = displace(probe, (s.delta_a, s.delta_b), weights=(w_a, w_b))
        assert moments(kicked).norm**2 == result.probability
        conditional = result.conditional
        assert superpose_calls == []
        assert conditional.p is probe.p
        assert np.array_equal(conditional.amps, kicked.amps / moments(kicked).norm)


@pytest.mark.parametrize("probe", [GaussianPacket(0.0, 1.0),
                                   grid_probe(GaussianPacket(0.0, 1.0), -12.0, 12.0, n=512)],
                         ids=["gaussian", "grid"])
class TestPostselectKernel:
    def test_run_calls_postselect_once(self, monkeypatch, probe):
        calls = []
        original = protocol.postselect
        monkeypatch.setattr(protocol, "postselect",
                            lambda *args: calls.append(args) or original(*args))
        s = replace(fig2_scenario(), probe=probe)
        result = run(s, n=256)
        w_a, w_b = pointer_weights(s)
        assert calls == [(w_a, w_b, probe, s.delta_a, s.delta_b, 256)]
        assert result == original(w_a, w_b, probe, s.delta_a, s.delta_b)

    @pytest.mark.parametrize("weights", [(math.nan, 0.5), (0.5, complex(0.0, math.inf)),
                                         (complex(math.nan, 0.0), -math.inf)])
    def test_refuses_non_finite_weights(self, probe, weights):
        with pytest.raises(ValueError, match=r"^branch weights must be finite"):
            postselect(*weights, probe, 0.3, 0.1)


def eager_reference(s: Scenario, n: int):
    """A Gaussian run built eagerly from both displaced pointer packets: its P, mean and std,
    its `terms`, and its `conditional` state rendered with `superpose` (or the type and
    message of the refusal), unless the run itself is refused."""
    w_a, w_b = pointer_weights(s)
    terms = ((w_a, displace(s.probe, s.delta_a)), (w_b, displace(s.probe, s.delta_b)))
    (_, psi_a), (_, psi_b) = terms
    stats = gaussian_postselection(w_a, w_b, psi_a.center, psi_b.center, psi_a.sigma)
    probability, mean, std = stats
    if probability < 1e-30:
        raise PostselectionImpossible(
            f"postselection numerically impossible (probability {probability!r})")
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(f"postselected mean {mean!r} or std {std!r} is not finite; "
                         "the kicks are too far apart for double precision")

    def render():
        grid = superpose(list(terms), n=n)
        return GridPacket(p=grid.p, amps=grid.amps / moments(grid).norm)

    return stats, terms, outcome(render)


def outcome(fn):
    """fn(), or the type and message of the ValueError it raised."""
    try:
        return fn()
    except ValueError as exc:  # PostselectionImpossible is one
        return type(exc), str(exc)


def equivalence_scenarios(count: int, seed: int) -> list[Scenario]:
    """Phased paper scenarios, beta - 1/sqrt(2) log-uniform in [1e-9, 1e-1] and d_A/sigma in
    [1e-12, 1e4], then scenarios that each refusal stops."""
    rng = np.random.default_rng(seed)
    scenarios = []
    for i in range(count):
        beta = math.sqrt(0.5) + 10.0 ** rng.uniform(-9.0, -1.0)
        probe = GaussianPacket(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        d_a = 10.0 ** rng.uniform(-12.0, 4.0) * probe.sigma * rng.choice((-1.0, 1.0))
        phi_a, phi_b = rng.uniform(-math.pi, math.pi, size=2)
        post = paper_postselection(phi_a, phi_b) if i % 2 else random_source(rng)
        scenarios.append(Scenario(SourceState(complex(math.sqrt(1.0 - beta * beta)), complex(beta)),
                                  post, probe, d_a, d_a * rng.uniform(0.05, 0.5), phi_a, phi_b))
    base = scenarios[0]
    return scenarios + [
        replace(base, delta_a=math.nan), replace(base, delta_b=-math.inf),
        replace(base, probe=GaussianPacket(1e308, 1.0), delta_a=1e308),
        replace(base, probe=GaussianPacket(-1e308, 1.0), delta_a=0.0, delta_b=-1e308),
        replace(base, delta_a=1e200, delta_b=1e199),
        Scenario(SourceState.from_amplitudes(1.0, 1.0), SourceState.from_amplitudes(-1.0, 1.0),
                 base.probe, 0.0, 0.0),
    ]


class TestGaussianRunMatchesEagerPointers:
    # `postselect` takes a Gaussian probe straight to the closed form and builds its pointer
    # packets only when `terms` or `conditional` is read; the reference builds them first
    @pytest.mark.parametrize("n", [256, 2048])
    def test_same_statistics_terms_conditional_and_refusals(self, n):
        refused = 0
        for s in equivalence_scenarios(120, seed=n):
            result = outcome(lambda: run(s, n=n))
            reference = outcome(lambda: eager_reference(s, n))
            if not isinstance(result, PostselectedResult):
                assert result == reference
                refused += 1
                continue
            stats, terms, state = reference
            assert (result.probability, result.mean_kick, result.std) == stats
            assert repr(result) == (
                "PostselectedResult(probability=%r, mean_kick=%r, std=%r)" % stats)
            assert result.terms == terms
            conditional = outcome(lambda: result.conditional)
            if isinstance(state, tuple):
                assert conditional == state
            else:
                assert np.array_equal(conditional.p, state.p)
                assert np.array_equal(conditional.amps, state.amps)
        assert refused == 6

    def test_pointer_packets_built_on_first_read(self, monkeypatch):
        s = fig2_scenario()
        built = []
        original = GaussianPacket.__post_init__
        monkeypatch.setattr(GaussianPacket, "__post_init__",
                            lambda self: built.append(self) or original(self))
        by_terms, by_conditional = run(s), run(s)
        assert built == []
        assert [psi for _, psi in by_terms.terms] == built
        assert [psi.center for psi in built] == [FIG2_DELTA_A, FIG2_DELTA_B]
        by_terms.conditional
        by_terms.terms
        assert len(built) == 2
        by_conditional.conditional
        assert len(built) == 4


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
        probe=GaussianPacket(0.0, 1.0, 1.0),
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
        probe = grid_probe(GaussianPacket(0.0, 1.0, 1.0), -12.0, 12.0, n=2048)
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
        probe=GaussianPacket(0.0, 1.0, 1.0),
        delta_a=delta,
        delta_b=delta / 3.0,
    )
    try:
        result = run(scenario)
    except PostselectionImpossible:
        return
    assert 0.0 <= result.probability <= 1.0 + 1e-12
