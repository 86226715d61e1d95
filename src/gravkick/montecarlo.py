"""Stochastic simulation of repeated postselected runs.

Each trial is a Bernoulli acceptance at the exact postselection probability
followed, when accepted, by one momentum draw from the conditional
distribution (inverse CDF on the grid).  Randomness is counter-based: trials
are grouped into fixed blocks and block b draws from Philox(key=seed,
counter=b << 64), so a block's stream depends only on the seed and b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import protocol
from .output import table_csv
from .wavepacket import DEFAULT_GRID_POINTS

BLOCK_TRIALS = 8192
DEFAULT_HISTOGRAM_BINS = 64


@dataclass(frozen=True)
class RunConfig:
    scenario: protocol.Scenario
    trials: int
    seed: int
    bins: int = DEFAULT_HISTOGRAM_BINS
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if not 0 <= self.seed < 2**128:  # the Philox key
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

    accepted, total, total_sq = 0, 0.0, 0.0
    counts = np.zeros(cfg.bins, dtype=np.int64)
    for block in range((cfg.trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS):
        nb = min(BLOCK_TRIALS, cfg.trials - block * BLOCK_TRIALS)
        u = _block_rng(cfg.seed, block).random(2 * nb)
        accepted_mask = u[:nb] < exact.probability
        samples = np.interp(u[nb:][accepted_mask], cdf, p)
        accepted += int(accepted_mask.sum())
        total += float(samples.sum())
        total_sq += float(np.sum(samples**2))
        counts += np.histogram(samples, bins=edges)[0]

    mean = total / accepted if accepted >= 1 else None
    std_error = None
    if accepted >= 2:
        var = max(total_sq - total * total / accepted, 0.0) / (accepted - 1)
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

