"""Stochastic simulation of repeated postselected runs.

The accepted count is one Binomial(trials, P) draw at the exact postselection
probability, and each accepted trial one momentum draw from the conditional
distribution (inverse CDF on the grid).  Block b of the random stream is
random.Random((seed << 64) | b), so it depends only on the seed and b; its
uniforms are the top 53 bits of its little-endian 64-bit words.  Block 0 draws
the count by summing geometric gaps between acceptances until they pass the
trials; blocks 1, 2, ... draw BLOCK_SAMPLES samples each, one uniform per sample,
sorted within the block before the inverse CDF (the samples are exchangeable).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field

import numpy as np

from . import protocol
from .output import table_csv
from .units import DEFAULT_GRID_POINTS, DEFAULT_HISTOGRAM_BINS, MAX_SEED, MAX_TRIALS

BLOCK_SAMPLES = 8192
_MAX_CHUNK = 1 << 14  # larger draws of bytes run slower, out of cache


@dataclass(frozen=True)
class RunConfig:
    scenario: protocol.Scenario
    trials: int
    seed: int
    bins: int = DEFAULT_HISTOGRAM_BINS
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self) -> None:
        if not 1 <= operator.index(self.trials) <= MAX_TRIALS:
            raise ValueError(f"trials must be in [1, 2**63), got {self.trials!r}")
        if operator.index(self.bins) < 1:
            raise ValueError("bins must be >= 1")
        if not 0 <= operator.index(self.seed) <= MAX_SEED:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    trials: int
    accepted: int
    acceptance_rate: float
    mean_kick_estimate: float | None
    std_error: float | None  # sample std / sqrt(accepted); None below 2 samples
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    exact: protocol.PostselectedResult = field(repr=False)  # the run the samples come from

    def summary_rows(self) -> list[tuple[str, object]]:
        return [
            ("trials", self.trials),
            ("accepted", self.accepted),
            ("acceptance_rate", self.acceptance_rate),
            ("mean_kick_estimate", self.mean_kick_estimate),
            ("std_error", self.std_error),
        ]

    def histogram_csv(self) -> str:
        edges = self.histogram_edges
        return table_csv("bin_left,bin_right,count", (edges[:-1], edges[1:], self.histogram_counts))


def _conditional_cdf(
    cfg: RunConfig,
) -> tuple[protocol.PostselectedResult, np.ndarray, np.ndarray, np.ndarray]:
    """The exact run, its conditional grid, the grid's piecewise-linear CDF and the
    histogram edges."""
    result = protocol.run(cfg.scenario, n=cfg.grid_points)
    grid = result.conditional
    w = np.abs(grid.amps) ** 2
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (w[:-1] + w[1:]) * grid.dp)))
    cdf /= cdf[-1]
    return result, grid.p, cdf, np.linspace(grid.p[0], grid.p[-1], cfg.bins + 1)


def _block_rng(seed: int, block: int) -> random.Random:
    return random.Random((seed << 64) | block)


def _uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The block's next n uniforms on [0, 1): the top 53 bits of each 64-bit word."""
    return (np.frombuffer(rng.randbytes(8 * n), dtype="<u8") >> 11) * 2.0**-53


def _binomial(trials: int, p: float, rng: random.Random) -> int:
    """Binomial(trials, p) for 0 <= p <= 1, exactly: the number of geometric gaps
    floor(log1p(-u) / log1p(-p)) + 1 whose running sum stays within `trials`.
    Draws about min(k, trials - k) uniforms, in chunks sized to the expected count."""
    if p > 0.5:
        return trials - _binomial(trials, 1.0 - p, rng)  # 1 - p is exact here (Sterbenz)
    if p == 0.0:
        return 0
    log_q = math.log1p(-p)
    count, left = 0, trials  # left: the trials after the last acceptance
    while True:
        expected = left * p
        size = min(int(expected + 3.0 * math.sqrt(expected)) + 8, _MAX_CHUNK)
        # truncation floors the ratios, which are >= 0; a gap past the `left` trials is cut
        # to left + 1, so each sum up to the first one past `left` is below 2**64
        gaps = np.minimum(np.log1p(-_uniforms(rng, size)) / log_q, 2.0**63).astype(np.uint64)
        np.minimum(gaps, left, out=gaps)
        gaps += 1
        past = np.cumsum(gaps, out=gaps) > left  # sums after that one may wrap
        first = int(past.argmax())
        if past[first]:
            return count + first
        count += size
        left -= int(gaps[-1])


def run_ensemble(cfg: RunConfig, workers: int = 1) -> EnsembleStats:
    """Simulate cfg.trials runs; deterministic given cfg.seed.  `workers` is
    accepted and ignored: a thread pool measured no faster than this loop."""
    exact, p, cdf, edges = _conditional_cdf(cfg)

    # P rounds above 1 on a few documents whose postselection keeps the whole state
    accepted = _binomial(cfg.trials, min(exact.probability, 1.0), _block_rng(cfg.seed, 0))
    # deviations from the exact mean: sums of raw kicks far from zero would cancel
    dev, dev_sq = 0.0, 0.0
    counts = np.zeros(cfg.bins, dtype=np.int64)
    for block, start in enumerate(range(0, accepted, BLOCK_SAMPLES), start=1):
        u = _uniforms(_block_rng(cfg.seed, block), min(BLOCK_SAMPLES, accepted - start))
        u.sort()  # sorted, np.interp finds each sample's cell next to the last one
        samples = np.interp(u, cdf, p)
        deviations = samples - exact.mean_kick
        dev += float(deviations.sum())
        dev_sq += float(np.sum(deviations**2))
        counts += np.histogram(samples, bins=edges)[0]

    mean = exact.mean_kick + dev / accepted if accepted >= 1 else None
    std_error = None
    if accepted >= 2:
        var = max(dev_sq - dev * dev / accepted, 0.0) / (accepted - 1)
        std_error = math.sqrt(var / accepted)
    return EnsembleStats(
        trials=cfg.trials,
        accepted=accepted,
        acceptance_rate=accepted / cfg.trials,
        mean_kick_estimate=mean,
        std_error=std_error,
        histogram_edges=edges,
        histogram_counts=counts,
        exact=exact,
    )


def expected_bin_masses(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Histogram edges and the exact per-bin masses the sampler targets."""
    _, p, cdf, edges = _conditional_cdf(cfg)
    return edges, np.diff(np.interp(edges, p, cdf))

