"""Output checks shared by the workloads: CSV readers, oracle comparison, statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

import oracle

TOLERANCE = 1e-6  # relative, against the mpmath oracle
MEAN_FLOOR = 1e-6  # a mean's error is scaled by max(|ref|, MEAN_FLOOR * sigma)
Z_LIMIT = 5.0  # statistical checks fail beyond five standard deviations
CHI2_P_MIN = 1e-6


@dataclass
class Outcome:
    """What the check of one operation found.

    A check that may fail because of a known defect of the program names it
    in `known`; its failure is then listed as known, and its error does not
    count towards oracle_digits even when it passes.  Any other failure,
    including a raise, is unexpected.
    """

    failures: list[tuple[str, str | None]] = field(default_factory=list)  # (message, known)
    errors: list[float] = field(default_factory=list)  # relative errors of passing scalars
    work: float = 1.0  # units of work for the family rate

    def compare(self, label: str, value, ref, floor: float = 0.0, digits: bool = True,
                known: str | None = None) -> None:
        """Fail beyond TOLERANCE; a passing error counts towards oracle_digits if `digits`."""
        err = oracle.rel_error(value, ref, floor)
        if err > TOLERANCE:
            self.fail(f"{label} = {value!r}, oracle {ref!r} (rel err {err:.2e})", known)
        elif digits and known is None:
            self.errors.append(err)

    def require(self, ok: bool, message: str, known: str | None = None) -> None:
        if not ok:
            self.fail(message, known)

    def fail(self, message: str, known: str | None = None) -> None:
        self.failures.append((message, known))

    @property
    def unexpected(self) -> list[str]:
        return [message for message, known in self.failures if known is None]


def read_rows(path) -> dict[str, str]:
    """`quantity,value` CSV as a dict of strings."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    return dict(line.split(",", 1) for line in lines)


def read_table(path, skip: int = 1) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def same_bytes(paths_a, paths_b) -> list[str]:
    """Names of files whose bytes differ between two bundles."""
    differ = []
    for a, b in zip(paths_a, paths_b):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                differ.append(str(a))
    return differ


def check_stats(out: Outcome, rows: dict[str, str], keys: dict[str, str],
                ref: oracle.Stats, sigma: float, unit: float = 1.0) -> None:
    """Compare summary rows named by keys {'P': .., 'mean': .., 'std': ..} with the oracle.

    Momenta are divided by `unit` for display, as the CLI does.
    """
    out.compare(keys["P"], float(rows[keys["P"]]), ref.probability)
    out.compare(keys["mean"], float(rows[keys["mean"]]), ref.mean / unit,
                floor=MEAN_FLOOR * sigma / unit)
    if "std" in keys:
        out.compare(keys["std"], float(rows[keys["std"]]), ref.std / unit)


def check_curves(out: Outcome, path, proto: oracle.Protocol, sigma: float,
                 known: str | None = None) -> None:
    """The `postselected` curve must have the modulus of the true conditional state.

    Curves are drawn in units of sigma, so the kicks are rescaled first.
    """
    table = read_table(path)
    scaled = oracle.Protocol(proto.pre_a, proto.pre_b, proto.post_a, proto.post_b,
                             proto.delta_a / sigma, proto.delta_b / sigma,
                             proto.phi_a, proto.phi_b)
    want = np.abs(np.array(oracle.conditional_amplitude(scaled, 1.0, table[:, 0].tolist())))
    worst = float(np.max(np.abs(np.abs(table[:, 3]) - want)))
    peak = float(np.max(want))
    out.require(worst <= TOLERANCE * peak,
                f"postselected curve off the conditional state by {worst:.3g} (peak {peak:.3g})",
                known)


def binomial_z(accepted: int, trials: int, p: float) -> float:
    sd = math.sqrt(trials * p * (1.0 - p))
    return abs(accepted - trials * p) / sd if sd > 0 else math.inf


def chi_square_p(counts: np.ndarray, masses: np.ndarray) -> float:
    """Upper-tail p-value of the histogram against expected bin masses.

    Adjacent bins are merged until each expects at least five samples.
    """
    total = counts.sum()
    obs, exp = [], []
    o_acc = e_acc = 0.0
    for o, m in zip(counts, masses * total / masses.sum()):
        o_acc += o
        e_acc += m
        if e_acc >= 5.0:
            obs.append(o_acc)
            exp.append(e_acc)
            o_acc = e_acc = 0.0
    if obs:
        obs[-1] += o_acc
        exp[-1] += e_acc
    if len(obs) < 2:
        return 1.0
    obs_a, exp_a = np.array(obs), np.array(exp)
    chi2 = float(np.sum((obs_a - exp_a) ** 2 / exp_a))
    return float(mp.gammainc((len(obs) - 1) / 2.0, chi2 / 2.0, mp.inf, regularized=True))
