"""Stochastic simulation of repeated postselected runs.

The accepted count is one Binomial(trials, P) draw at the exact postselection
probability, and each accepted trial one momentum draw from the conditional
distribution (inverse CDF on the grid).  Randomness is counter-based: block b
draws from Philox(key=seed, counter=b << 64), so its stream depends only on
the seed and b; block 0 draws the count, blocks 1, 2, ... the samples.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import protocol
from .output import table_csv
from .wavepacket import DEFAULT_GRID_POINTS

BLOCK_SAMPLES = 8192
DEFAULT_HISTOGRAM_BINS = 64
MAX_TRIALS = 2**63 - 1  # the int64 count of the binomial draw, which would truncate a float
MAX_SEED = 2**128 - 1  # the Philox key


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
        edges = self.histogram_edges.tolist()
        return table_csv("bin_left,bin_right,count", "%.8e,%.8e,%d",
                         zip(edges[:-1], edges[1:], self.histogram_counts.tolist()))


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


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=block << 64))


def run_ensemble(cfg: RunConfig, workers: int = 1) -> EnsembleStats:
    """Simulate cfg.trials runs; deterministic given cfg.seed.  `workers` is
    accepted and ignored: a thread pool measured no faster than this loop."""
    exact, p, cdf, edges = _conditional_cdf(cfg)

    # P rounds above 1 on a few documents whose postselection keeps the whole state
    accepted = int(_block_rng(cfg.seed, 0).binomial(cfg.trials, min(exact.probability, 1.0)))
    # deviations from the exact mean: sums of raw kicks far from zero would cancel
    dev, dev_sq = 0.0, 0.0
    counts = np.zeros(cfg.bins, dtype=np.int64)
    for block, start in enumerate(range(0, accepted, BLOCK_SAMPLES), start=1):
        u = _block_rng(cfg.seed, block).random(min(BLOCK_SAMPLES, accepted - start))
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

