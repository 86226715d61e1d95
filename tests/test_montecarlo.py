import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

import gravkick.montecarlo
from gravkick.config import build_scenario, load_preset
from gravkick.montecarlo import (
    BLOCK_SAMPLES,
    RunConfig,
    _binomial,
    _block_rng,
    _conditional_cdf,
    _uniforms,
    expected_bin_masses,
    run_ensemble,
)
from gravkick.output import summary_csv
from gravkick.protocol import Scenario, SourceState, run
from gravkick.wavepacket import GaussianPacket

from .probes import fig2_scenario
from .refvals import (
    FIG2_DELTA_A,
    FIG2_DELTA_B,
    FIG2_MEAN,
    FIG2_PROBABILITY,
)


def fig2_config(trials=100000, seed=42, **kw):
    return RunConfig(scenario=fig2_scenario(), trials=trials, seed=seed, **kw)


def documented_uniforms(seed, block, n):
    """The first n uniforms of block `block`, as the module docstring states them."""
    words = random.Random((seed << 64) | block).randbytes(8 * n)
    return [(int.from_bytes(words[i:i + 8], "little") >> 11) * 2.0**-53
            for i in range(0, 8 * n, 8)]


def gap_walk_binomial(trials, p, seed):
    """The count of block 0, one geometric gap at a time in Python integers: the number of
    running sums of floor(log1p(-u) / log1p(-p)) + 1 within `trials`, with the failures
    counted at 1 - p when p > 1/2."""
    if p > 0.5:
        return trials - gap_walk_binomial(trials, 1.0 - p, seed)
    rng = random.Random(seed << 64)
    count, position = 0, 0
    while True:
        u = (int.from_bytes(rng.randbytes(8), "little") >> 11) * 2.0**-53
        position += math.floor(math.log1p(-u) / math.log1p(-p)) + 1
        if position > trials:
            return count
        count += 1


class CountingRandom(random.Random):
    """A block's stream that records how many 64-bit words each draw takes."""

    def __init__(self, seed, block, drawn):
        super().__init__((seed << 64) | block)
        self.words = drawn.setdefault(block, [])

    def randbytes(self, n):
        self.words.append(n // 8)
        return super().randbytes(n)


def count_draws(monkeypatch):
    """Route every block through CountingRandom; returns {block: [words per draw]}."""
    drawn = {}
    monkeypatch.setattr(gravkick.montecarlo, "_block_rng",
                        lambda seed, block: CountingRandom(seed, block, drawn))
    return drawn


def bundle_text(stats):
    """The summary.csv rows of `stats` and its histogram.csv, as `montecarlo` writes them."""
    return summary_csv(stats.summary_rows()), stats.histogram_csv()


class TestDeterminism:
    def test_same_seed_reproduces(self):
        cfg = fig2_config(trials=20000)
        assert bundle_text(run_ensemble(cfg)) == bundle_text(run_ensemble(cfg))

    def test_different_seeds_differ(self):
        a = run_ensemble(fig2_config(trials=5000, seed=1))
        b = run_ensemble(fig2_config(trials=5000, seed=2))
        assert not np.array_equal(a.histogram_counts, b.histogram_counts)

    def test_worker_count_invariance(self):
        cfg = fig2_config(trials=50000)
        assert bundle_text(run_ensemble(cfg, workers=1)) == bundle_text(
            run_ensemble(cfg, workers=8))


class TestStatistics:
    def test_acceptance_rate_matches_probability(self):
        cfg = fig2_config(trials=200000)
        stats = run_ensemble(cfg)
        margin = 4 * math.sqrt(FIG2_PROBABILITY * (1 - FIG2_PROBABILITY) / cfg.trials)
        assert abs(stats.acceptance_rate - FIG2_PROBABILITY) < margin

    def test_mean_estimate_converges_to_exact(self):
        stats = run_ensemble(fig2_config(trials=1000000))
        assert stats.std_error is not None
        assert abs(stats.mean_kick_estimate - FIG2_MEAN) < 4 * stats.std_error

    def test_negative_mean_witness_at_5_sigma(self):
        stats = run_ensemble(fig2_config(trials=1000000))
        assert stats.mean_kick_estimate + 5 * stats.std_error < 0

    def test_unkicked_scenario_centered_at_zero(self):
        scenario = fig2_scenario(delta_a=0.0, delta_b=0.0)
        stats = run_ensemble(RunConfig(scenario=scenario, trials=400000, seed=9))
        assert abs(stats.mean_kick_estimate) < 4 * stats.std_error

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8])
    def test_std_error_is_the_two_pass_value_far_from_zero(self, offset):
        # both kicks moved by `offset` sigma: sums of the raw kicks' squares would cancel
        scenario = fig2_scenario(delta_a=offset + FIG2_DELTA_A, delta_b=offset + FIG2_DELTA_B)
        cfg = RunConfig(scenario=scenario, trials=200000, seed=5)
        stats = run_ensemble(cfg)
        _, p, cdf, _ = _conditional_cdf(cfg)
        # block 0 draws the accepted count, blocks 1, 2, ... BLOCK_SAMPLES samples each
        n = gap_walk_binomial(cfg.trials, stats.exact.probability, cfg.seed)
        u = [documented_uniforms(cfg.seed, 1 + start // BLOCK_SAMPLES,
                                 min(BLOCK_SAMPLES, n - start))
             for start in range(0, n, BLOCK_SAMPLES)]
        x = np.interp(np.concatenate(u), cdf, p)
        assert x.size == stats.accepted > 20000
        two_pass = math.sqrt(np.sum((x - x.mean()) ** 2) / (x.size - 1) / x.size)
        assert stats.std_error == pytest.approx(two_pass, rel=1e-12, abs=0.0)
        assert abs(stats.mean_kick_estimate - offset - FIG2_MEAN) < 4 * stats.std_error

    def test_single_trial_edge_case(self):
        stats = run_ensemble(fig2_config(trials=1))
        assert stats.accepted in (0, 1)
        assert stats.std_error is None
        assert stats.trials == 1

    def test_histogram_totals(self):
        stats = run_ensemble(fig2_config(trials=30000))
        assert stats.histogram_counts.sum() == stats.accepted
        assert stats.histogram_edges.size == stats.histogram_counts.size + 1

    def test_sampled_histogram_chi_squared(self):
        # fixed seed; 1e6 trials gives ~1.25e5 accepted samples
        cfg = fig2_config(trials=1000000, seed=1234, bins=64)
        stats = run_ensemble(cfg)
        assert stats.accepted > 100000
        _, masses = expected_bin_masses(cfg)
        expected = masses * stats.accepted
        keep = expected >= 5.0
        observed = np.append(stats.histogram_counts[keep], stats.histogram_counts[~keep].sum())
        predicted = np.append(expected[keep], expected[~keep].sum())
        observed = observed * predicted.sum() / observed.sum()
        chi2, p_value = scipy_stats.chisquare(observed, predicted)
        assert p_value > 0.001

    def test_error_scaling_one_over_sqrt_accepted(self):
        sizes = [1000, 10000, 100000, 1000000]
        rms_errors, inv_sqrt_accepted = [], []
        for trials in sizes:
            errs, accepted = [], []
            for seed in range(8):
                stats = run_ensemble(fig2_config(trials=trials, seed=100 + seed))
                errs.append((stats.mean_kick_estimate - FIG2_MEAN) ** 2)
                accepted.append(stats.accepted)
            rms_errors.append(math.sqrt(np.mean(errs)))
            inv_sqrt_accepted.append(1.0 / math.sqrt(np.mean(accepted)))
        slope = np.polyfit(np.log(inv_sqrt_accepted), np.log(rms_errors), 1)[0]
        assert 0.7 < slope < 1.3  # |error| ~ 1/sqrt(accepted)


class TestRunConfig:
    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="trials"):
            RunConfig(scenario=fig2_scenario(), trials=0, seed=1)

    @pytest.mark.parametrize("overrides", [{"trials": 1000.5}, {"seed": 7.9}, {"bins": 64.0}],
                             ids=["trials", "seed", "bins"])
    def test_trials_must_be_an_integer(self, overrides):
        # a float seed would run as its truncation, a float bins fail later inside numpy
        with pytest.raises(TypeError):
            RunConfig(**{"scenario": fig2_scenario(), "trials": 1000, "seed": 1, **overrides})

    def test_bins_must_be_positive(self):
        with pytest.raises(ValueError, match="^bins must be >= 1$"):
            RunConfig(scenario=fig2_scenario(), trials=1000, seed=1, bins=0)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_must_fit_in_128_bits(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
            RunConfig(scenario=fig2_scenario(), trials=1, seed=seed)

    def test_largest_seed_runs(self):
        stats = run_ensemble(RunConfig(scenario=fig2_scenario(), trials=1000, seed=2**128 - 1))
        assert stats.trials == 1000

    def test_impossible_scenario_propagates(self):
        from gravkick.protocol import PostselectionImpossible

        scenario = Scenario(
            pre=SourceState.from_amplitudes(1.0, 1.0),
            post=SourceState.from_amplitudes(-1.0, 1.0),
            probe=GaussianPacket(0.0, 1.0, 1.0),
            delta_a=0.0,
            delta_b=0.0,
        )
        with pytest.raises(PostselectionImpossible):
            run_ensemble(RunConfig(scenario=scenario, trials=100, seed=1))


def test_amplified_scenario_rare_acceptance():
    # acceptance expectation ~2.3 counts in 1e7 trials at probability 2.3e-7
    from .refvals import AMP_ALPHA, AMP_BETA

    scenario = fig2_scenario(
        pre=SourceState(complex(AMP_ALPHA), complex(AMP_BETA)),
        delta_a=1e-5,
        delta_b=1e-6,
    )
    exact = run(scenario).probability
    stats = run_ensemble(RunConfig(scenario=scenario, trials=10000000, seed=3))
    lam = exact * stats.trials
    assert stats.accepted <= lam + 4 * math.sqrt(lam) + 1


def test_one_uniform_per_accepted_sample(monkeypatch):
    # no uniform is spent on a rejected trial: block 0 spends one per acceptance and stops
    # in the chunk that passes the trials; blocks 1, 2, ... one per sample
    drawn = count_draws(monkeypatch)
    stats = run_ensemble(fig2_config(trials=100000))
    chunks = drawn.pop(0)
    assert sum(chunks[:-1]) <= stats.accepted < sum(chunks) <= stats.accepted + chunks[-1]
    assert sum(chunks) < 1.05 * stats.accepted  # chunks sized to the expected count
    assert 10000 < stats.accepted == sum(map(sum, drawn.values()))
    assert sorted(drawn) == list(range(1, 1 + math.ceil(stats.accepted / BLOCK_SAMPLES)))


def test_binomial_block_uniforms_repeat_and_differ():
    first = _uniforms(_block_rng(7, 3), 1000)
    assert np.array_equal(first, _uniforms(_block_rng(7, 3), 1000))
    assert first.tolist() == documented_uniforms(7, 3, 1000)
    assert 0.0 <= first.min() and first.max() < 1.0
    # a block is read in order, however its draws are chunked
    rng = _block_rng(7, 3)
    assert np.array_equal(first, np.concatenate([_uniforms(rng, n) for n in (1, 600, 399)]))
    for seed, block in [(7, 0), (7, 2), (7, 4), (8, 3), (2**128 - 1, 3)]:
        assert not np.array_equal(first, _uniforms(_block_rng(seed, block), 1000))


@pytest.mark.parametrize("trials, p", [
    (1, 0.3), (40, 0.25), (200, 0.9), (200000, 0.125), (2**63 - 1, 1e-16),
    (2**63 - 1, 3e-18), (2**63 - 1, 1.0 - 2.0**-53), (2**63 - 1, 1e-30),
])
def test_binomial_is_the_gap_walk_in_python_integers(trials, p):
    # the chunked, capped uint64 positions count exactly what unbounded integers count
    for seed in (0, 1, 2**128 - 1):
        assert _binomial(trials, p, _block_rng(seed, 0)) == gap_walk_binomial(trials, p, seed)


@pytest.mark.parametrize("trials, p", [
    (40, 0.25), (2**63 - 1, 3e-18), (100000, 0.1), (200, 0.9), (2**63 - 1, 1e-16),
], ids=["np-10", "np-28-at-max-trials", "np-1e4", "p-above-half", "np-922-at-max-trials"])
def test_binomial_follows_its_law(trials, p):
    counts = [_binomial(trials, p, _block_rng(seed, 0)) for seed in range(2000)]
    law = scipy_stats.binom(trials, p)
    # about 20 bins of equal mass under the law; a bin [a, b] holds the counts a..b
    inner = np.unique(law.ppf(np.linspace(0.0, 1.0, 21)[1:-1])) + 0.5
    edges = np.concatenate(([-0.5], inner, [trials + 0.5]))
    observed = np.histogram(counts, edges)[0]
    assert observed.sum() == len(counts)
    expected = len(counts) * np.diff(law.cdf(edges))
    assert scipy_stats.chisquare(observed, expected).pvalue > 0.001


def test_binomial_position_sums_stay_below_2_64():
    # gaps that end exactly on trial 2**63 - 1, then one past 2**63 trials, all in the first
    # chunk: uncut, that gap would take the sum to 2**64, 0 in uint64, and the count on
    trials, p = 2**63 - 1, 2.0**-58

    def gap(m):  # the gap of the uniform m / 2**53, computed as the count computes it
        u = np.array([m], dtype=np.uint64) * 2.0**-53
        return int(np.minimum(np.log1p(-u) / math.log1p(-p), 2.0**63)[0]) + 1

    def largest_m_with_gap_within(n):
        lo, hi = 0, 2**53 - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if gap(mid) <= n else (lo, mid - 1)
        return lo

    big = largest_m_with_gap_within(2**62)
    medium = largest_m_with_gap_within(trials - 2 * gap(big))
    within = [big, big, medium]
    within += [0] * (trials - sum(map(gap, within)))  # gaps of 1
    assert sum(map(gap, within)) == trials and len(within) < 40
    words = within + [2**53 - 1] * 32  # gaps beyond 2**63

    class Crafted(random.Random):
        def randbytes(self, n):
            drawn, words[:n // 8] = words[:n // 8], []
            return b"".join((m << 11).to_bytes(8, "little") for m in drawn)

    assert _binomial(trials, p, Crafted(0)) == len(within)


def test_binomial_at_the_smallest_probability_accepts_nothing():
    # P = 1e-30 is the smallest a run allows: gaps near 4e31 trials, capped, overflow nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert {_binomial(2**63 - 1, 1e-30, _block_rng(seed, 0)) for seed in range(200)} == {0}


@pytest.mark.parametrize("trials", [1, 5000, 2**63 - 1])
def test_binomial_at_p_one_accepts_every_trial_without_a_draw(trials):
    rng = CountingRandom(3, 0, drawn := {})
    assert _binomial(trials, 1.0, rng) == trials
    assert drawn == {0: []}


def test_amplification_witness_at_its_5_sigma_budget():
    # N = ceil(25 std^2 / ((delta_B - mean)^2 P)) trials put the postselected mean 5 standard
    # errors below delta_B, outside the classical hull [delta_B, delta_A]
    built = build_scenario(load_preset("amplification"))
    s, exact = built.scenario, run(built.scenario, n=built.grid_points)
    gap = s.delta_b - exact.mean_kick
    trials = math.ceil(25 * exact.std**2 / (gap * gap * exact.probability))
    assert trials == 1235581875522
    z = []
    for seed in range(20):
        stats = run_ensemble(replace(built.mc, trials=trials, seed=seed))
        z.append((s.delta_b - stats.mean_kick_estimate) / stats.std_error)
    assert abs(np.mean(z) - 5.0) < 0.7


def test_postselection_that_keeps_the_whole_state_accepts_every_trial(monkeypatch):
    # post = pre with no kicks: P rounds to 1 + 4e-16, which the count clamps to 1
    alpha, beta = 0.8884398201263108, 0.4589931219679968
    built = build_scenario({
        "units": "natural",
        "source": {"alpha": alpha, "beta": beta},
        "kicks": {"delta_A": 0, "delta_B": 0},
        "postselection": {"amp_A": alpha, "amp_B": beta},
        "montecarlo": {"trials": 5000, "seed": 4},
    })
    assert run(built.scenario, n=built.grid_points).probability > 1.0
    drawn = count_draws(monkeypatch)
    stats = run_ensemble(built.mc)
    assert stats.accepted == stats.trials == 5000
    assert drawn[0] == []  # the count at P clamped to 1 draws nothing


@pytest.mark.parametrize("name", ["caseA", "caseB"])
def test_si_preset_accepts_enough_for_a_kick_estimate(name):
    # P is 2.0e-7 (caseA) and 2.0e-5 (caseB); each preset's trials expect over 1000 acceptances
    built = build_scenario(load_preset(name))
    stats = run_ensemble(built.mc)
    p = stats.exact.probability
    assert stats.trials * p >= 1000
    assert stats.accepted >= 2
    assert abs(stats.accepted - stats.trials * p) <= 5 * math.sqrt(stats.trials * p * (1 - p))
