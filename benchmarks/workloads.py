"""The four workloads: seeded inputs, the timed call into gravkick, and its check.

Each workload yields a fixed number of cycles of operations whose
composition never changes; the seed varies only the values inside them.
An operation's `run` is the timed part and returns what its `check` needs;
checks, reruns and oracle evaluations are never timed.  `run` can be called again: a repeat
must reproduce the files under `scratch` and `output(result)` exactly.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import oracle
from checks import MEAN_FLOOR, TOLERANCE, Outcome
from gravkick import analysis, cli, config, montecarlo, protocol, wavepacket

SQRT_HALF = 1.0 / math.sqrt(2.0)
LAUNCHER = Path(__file__).with_name("launch.py")

# Known defects of the program, each tied to one check on one region of the
# inputs.  Only that check may fail there as known; see checks.Outcome.
GRID_SEPARATION = ("grid-separation (P, mean, std on 2048 points with d_A >= 1e3 sigma: "
                   "the grid under-resolves the pointers)")
CANCELLATION = ("cancellation (mean where the grid's round-off, 2.2e-16 / sqrt(P) relative to "
                "max(|mean|, 1e-6 sigma), exceeds a tenth of the tolerance)")
FIG2_CURVE = "fig2-curve (postselected curve of simulate --svg with a non-paper postselection)"


@dataclass
class Op:
    family: str  # "a" or "b", see Workload.families
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    doc: dict | None = None
    scratch: tuple = ()  # directories written by `run`, removed once it is checked
    output: Callable[[object], object] = repr  # what of `run`'s result a repeat reproduces
    collect: Callable[[object], None] = lambda result: None  # untimed, after every run
    cycle: int = 0


def loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def stratified(rng: random.Random, lo: float, hi: float, stratum: int, strata: int) -> float:
    """Log-uniform within the `stratum`-th of `strata` equal slices of [lo, hi] on a log scale."""
    return lo * (hi / lo) ** ((stratum + rng.random()) / strata)


def _phases(rng):
    return {"phi_A": rng.uniform(-math.pi, math.pi), "phi_B": rng.uniform(-math.pi, math.pi)}


def fig2_doc(rng, postselection="paper-default", trials=None) -> dict:
    """The decomposition-figure family: beta near 0.9, kicks of order sigma, P near 0.125."""
    doc = {
        "units": "natural",
        "source": {"beta": rng.uniform(0.85, 0.95)},
        "probe": {"W": 1.0, "grid_points": 2048},
        "kicks": {"delta_A": rng.uniform(0.5, 0.9), "delta_B": rng.uniform(0.05, 0.2)},
        "postselection": postselection,
        "phases": _phases(rng),
    }
    if trials:
        doc["montecarlo"] = {"trials": trials, "seed": rng.randrange(2**31), "bins": 64}
    return doc


def amplification_doc(rng, expected_accepted=None) -> dict:
    """The amplification family: near-orthogonal postselection, P from 1.25e-7 to 3.2e-7."""
    d_a = loguniform(rng, 5e-6, 2e-5)
    doc = {
        "units": "natural",
        "source": {"beta": SQRT_HALF + loguniform(rng, 2.5e-4, 4e-4)},
        "probe": {"W": 1.0, "grid_points": 2048},
        "kicks": {"delta_A": d_a, "delta_B": d_a * rng.uniform(0.05, 0.2)},
        "postselection": "paper-default",
    }
    if expected_accepted:
        proto, sigma = oracle.from_doc(doc)
        p = oracle.protocol_stats(proto, [(1.0, 0.0, sigma)]).probability
        doc["montecarlo"] = {"trials": math.ceil(expected_accepted / p),
                             "seed": rng.randrange(2**31), "bins": 64}
    return doc


def si_doc(rng, case: str) -> dict:
    """Physical scenarios around the caseA (cold atom) and caseB (heavy probe) presets."""
    u = rng.uniform
    if case == "caseA":
        M, m, T, W, x_a, g = 2e-8 * u(0.5, 2), 2.3e-25 * u(0.8, 1.25), None, \
            1e-5 * u(0.8, 1.25), 5e-5 * u(0.8, 1.25), u(500, 2000)
    else:
        M, m, T, W, x_a, g = 1e-14 * u(0.5, 2), 1e-20 * u(0.8, 1.25), 0.5 * u(0.5, 2), \
            1e-7 * u(0.8, 1.25), 4e-7 * u(0.8, 1.25), u(50, 200)
    return {
        "units": "si",
        "source": {"gain": g},
        "probe": {"W": W},
        "kicks": {"M": M, "m": m, "T": T, "x_A": x_a, "x_B": x_a * u(2.5, 4.0)},
        "postselection": "paper-default",
    }


def si_params(doc) -> dict:
    """Sweepable fields of an SI document, T resolved to the spreading time when null."""
    k, W = doc["kicks"], doc["probe"]["W"]
    T = k["T"] if k["T"] is not None else k["m"] * W * W / (2.0 * oracle.HBAR_FLOAT)
    return {"M": k["M"], "m": k["m"], "T": T, "x_A": k["x_A"], "x_B": k["x_B"], "W": W,
            "g": doc["source"]["gain"]}


def random_axes(rng, doc, fields, shape):
    """Two sweep axes spanning [0.5..0.9, 1.1..2] times the base value (x_B stays > x_A)."""
    base = si_params(doc)
    return [(f, base[f] * rng.uniform(0.5, 0.9), base[f] * rng.uniform(1.1, 2.0), n)
            for f, n in zip(fields, shape)]


def axis_args(axes) -> list[str]:
    (f1, s1, e1, c1), (f2, s2, e2, c2) = axes
    return ["--axis", f"{f1}={s1!r}:{e1!r}:{c1}", "--axis2", f"{f2}={s2!r}:{e2!r}:{c2}"]


def call_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# --- checks of CLI bundles ---


def check_simulate(out: Outcome, bundle: Path, doc, display=None, svg=False,
                   curve_known=None) -> None:
    proto, sigma = oracle.from_doc(doc)
    unit = sigma if doc["units"] == "si" and display == "natural" else 1.0
    rows = checks.read_rows(bundle / "summary.csv")
    ref = oracle.protocol_stats(proto, [(1.0, 0.0, sigma)])
    checks.check_stats(out, rows, {"P": "postselection_probability", "mean": "exact_mean",
                                   "std": "exact_std"}, ref, sigma, unit)
    wv = oracle.weak_values(proto)
    floor = MEAN_FLOOR * sigma / unit
    out.compare("delta_a", float(rows["delta_a"]), proto.delta_a / unit)
    out.compare("delta_b", float(rows["delta_b"]), proto.delta_b / unit)
    out.compare("delta_ef", float(rows["delta_ef"]), wv.effective_kick / unit, floor)
    out.compare("gain", float(rows["gain"]), wv.gain, MEAN_FLOOR)
    wave = checks.read_table(bundle / "wavefunction.csv", skip=2)
    p, density = wave[:, 0], wave[:, 1] ** 2 + wave[:, 2] ** 2
    norm = float(np.trapezoid(density, p))
    out.require(abs(norm - 1.0) <= TOLERANCE, f"wavefunction.csv norm {norm!r}")
    out.compare("wavefunction.csv mean", float(np.trapezoid(p * density, p)) / norm,
                ref.mean / unit, floor)
    if svg:
        checks.check_curves(out, bundle / "fig2_curves.csv", proto, sigma, curve_known)
        image = (bundle / "fig2.svg").read_text(encoding="utf-8")
        out.require(image.startswith("<svg") and image.count("<polyline") == 3,
                    "fig2.svg is not a three-curve SVG")


def check_feasibility(out: Outcome, bundle: Path, doc, solve=None) -> None:
    prm = si_params(doc)
    ref = oracle.feasibility_row(prm["M"], prm["m"], prm["T"], prm["x_A"], prm["x_B"],
                                 prm["W"], prm["g"])
    rows = checks.read_rows(bundle / "summary.csv")
    for key in ("delta_a", "delta_b", "ratio", "tau", "ps_prob"):
        out.compare(key, float(rows[key]), getattr(ref, key))
    out.require(rows["valid_flag"] == str(int(prm["x_A"] >= 10.0 * prm["W"])), "valid_flag")
    table = checks.read_table(bundle / "sweep.csv")
    out.require(table.shape == (1, 13), f"sweep.csv has shape {table.shape}")
    out.compare("sweep.csv ratio", float(table[0, 9]), ref.ratio)
    if solve:
        field, target = solve
        solved = dict(prm, **{field: float(rows[f"solved_{field}"])})
        got = oracle.ratio_for(solved["M"], solved["m"], solved["T"], solved["x_A"],
                               solved["W"], solved["g"])
        out.compare(f"|ratio| at solved_{field}", got, abs(target))


MC_FILES = ("summary.csv", "histogram.csv")
SWEEP_FILES = ("sweep.csv", "summary.csv", "sweep.svg")


def check_montecarlo(out: Outcome, bundle: Path, rerun: Path, doc, rare: bool) -> None:
    """Oracle values, binomial acceptance, mean within 5 sigma, histogram, and byte
    identity with the `--workers 2` rerun in `rerun`."""
    proto, sigma = oracle.from_doc(doc)
    ref = oracle.protocol_stats(proto, [(1.0, 0.0, sigma)])
    rows = checks.read_rows(bundle / "summary.csv")
    checks.check_stats(out, rows, {"P": "exact_probability", "mean": "exact_mean"}, ref, sigma)
    mc = doc["montecarlo"]
    trials, accepted = int(rows["trials"]), int(rows["accepted"])
    out.require(trials == mc["trials"], f"trials {trials} != {mc['trials']}")
    z = checks.binomial_z(accepted, trials, ref.probability)
    out.require(z <= checks.Z_LIMIT, f"accepted {accepted} of {trials} is {z:.1f} sd off")
    counts = checks.read_table(bundle / "histogram.csv")[:, 2]
    out.require(int(counts.sum()) == accepted, "histogram counts do not sum to accepted")
    if accepted >= 2:
        # The conditional spread is known exactly; a 5-sd z-test on it does not
        # inherit the noise of a sample std taken from ten-odd samples.
        err = abs(float(rows["mean_kick_estimate"]) - ref.mean)
        bound = checks.Z_LIMIT * ref.std / math.sqrt(accepted)
        out.require(err <= bound, f"mean_kick_estimate off by {err:.3g} > {bound:.3g}")
    if not rare:
        built = config.build_scenario(doc)
        cfg = montecarlo.RunConfig(scenario=built.scenario, trials=trials, seed=mc["seed"],
                                   bins=mc["bins"], grid_points=built.grid_points)
        _, masses = montecarlo.expected_bin_masses(cfg)
        p_value = checks.chi_square_p(counts, masses)
        out.require(p_value >= checks.CHI2_P_MIN, f"histogram chi-square p = {p_value:.2e}")
    differ = checks.same_bytes([bundle / f for f in MC_FILES], [rerun / f for f in MC_FILES])
    out.require(not differ, f"--workers 2 rerun differs: {differ}")
    out.work = trials if rare else accepted


def expected_sweep(doc, axes) -> dict[str, np.ndarray]:
    """Every sweep.csv column from closed forms in float64, cancellation-free."""
    (f1, s1, e1, c1), (f2, s2, e2, c2) = axes
    base = si_params(doc)
    cols = {k: np.full(c1 * c2, v) for k, v in base.items()}
    cols[f1] = np.repeat(np.linspace(s1, e1, c1), c2)
    cols[f2] = np.tile(np.linspace(s2, e2, c2), c1)
    M, m, T, x_a, x_b, W, g = (cols[k] for k in ("M", "m", "T", "x_A", "x_B", "W", "g"))
    G, hbar = float(oracle.G_NEWTON), oracle.HBAR_FLOAT
    d_a, d_b = G * M * m * T / x_a**2, G * M * m * T / x_b**2
    r = (x_a / x_b) ** 2
    t = (r + g) / (1.0 + g)
    beta = 1.0 / np.sqrt(1.0 + t * t)
    alpha = t * beta
    diff = beta * (1.0 - r) / (1.0 + g)  # beta - alpha without cancellation
    x = (d_a - d_b) ** 2 * W * W / (8.0 * hbar * hbar)
    cols.update(deltaA=d_a, deltaB=d_b, ratio=-g * G * M * m * W * T / (hbar * x_a**2),
                tau=m * W * W / (2.0 * hbar),
                ps_prob=(diff**2 - 2.0 * alpha * beta * np.expm1(-x)) / 2.0)
    return cols


SWEEP_COLUMNS = ("M", "m", "T", "x_A", "x_B", "W", "g", "deltaA", "deltaB", "ratio", "tau",
                 "ps_prob")


def check_sweep(out: Outcome, bundle: Path, rerun: Path, doc, axes, rng) -> None:
    """Every row against closed forms, eight against mpmath, and byte identity with the
    `--workers 2` rerun in `rerun`."""
    differ = checks.same_bytes([bundle / f for f in SWEEP_FILES], [rerun / f for f in SWEEP_FILES])
    out.require(not differ, f"--workers 2 rerun differs: {differ}")
    n = axes[0][3] * axes[1][3]
    table = checks.read_table(bundle / "sweep.csv")
    out.require(table.shape == (n, 13), f"sweep.csv has shape {table.shape}, want ({n}, 13)")
    if table.shape != (n, 13):
        return
    want = expected_sweep(doc, axes)
    for j, name in enumerate(SWEEP_COLUMNS):
        err = np.abs(table[:, j] - want[name]) / np.abs(want[name])
        worst = int(np.argmax(err))
        out.compare(f"sweep.csv {name} row {worst}", float(table[worst, j]),
                    float(want[name][worst]))
    flags = (want["x_A"] >= 10.0 * want["W"]).astype(float)
    out.require(bool(np.all(table[:, 12] == flags)), "sweep.csv valid_flag")
    for i in rng.sample(range(n), 8):
        ref = oracle.feasibility_row(*(want[k][i] for k in ("M", "m", "T", "x_A", "x_B", "W", "g")))
        for j, key in zip(range(7, 12), ("delta_a", "delta_b", "ratio", "tau", "ps_prob")):
            out.compare(f"sweep.csv row {i} {key} (mpmath)", float(table[i, j]), getattr(ref, key))
    rows = checks.read_rows(bundle / "summary.csv")
    out.require(rows.get("rows") == str(n), "summary.csv rows")
    image = (bundle / "sweep.svg").read_text(encoding="utf-8")
    out.require(image.count("<rect ") == n + 1, "sweep.svg does not hold one cell per point")
    out.work = n


# --- workloads ---


class Workload:
    name = ""
    families = ("", "")  # what family a and family b are, and their unit of work
    peak_rss_kib = 0  # set by a workload whose operations run in child processes
    repeats = 1  # back-to-back runs of an operation in each round
    host_load = "compute"  # what measures the host's speed beside the operations, see run.py
    # Cycles per second of --seconds: at the commit that added the benchmark,
    # on a 2-CPU x86_64 host, a run did about --seconds of timed work.
    cycles_per_second = 0.1

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed, self.root, self.work = seed, root, work
        self.tracer = None
        self.env = dict(os.environ)
        inherited = [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
        self.env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + inherited)
        self._count = 0

    def cycles(self, seconds: float) -> int:
        """How many cycles a run of `seconds` holds; fixed, so a seed fixes the operations."""
        return max(1, round(seconds * self.cycles_per_second))

    def start(self, rng, cycles: int) -> None:
        """Draw what the cycles of a run share, before the first one."""

    def cycle(self, rng, index: int) -> list[Op]:
        """One cycle of operations; every cycle holds both families."""
        raise NotImplementedError

    def ops(self, cycles: int):
        """`cycles` cycles of operations; a fresh call replays the same sequence."""
        self._count = 0
        rng = random.Random(f"{self.name}:{self.seed}")
        self.start(rng, cycles)
        for index in range(cycles):
            for op in self.cycle(rng, index):
                op.cycle = index
                yield op

    def first_doc(self) -> dict:
        return next(op.doc for op in self.ops(1) if op.doc is not None)

    def path(self, stem: str) -> Path:
        self._count += 1
        return self.work / f"{stem}-{self._count}"

    def config_file(self, doc) -> str:
        path = self.path("config").with_suffix(".json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


class ExactKernel(Workload):
    """protocol.run + analysis.validity_check + analysis.weak_value_report, in process."""

    name = "exact-kernel"
    families = ("Gaussian-probe scenarios", "grid-probe scenarios")
    repeats = 4
    cycles_per_second = 2.9
    GAUSS_POINTS = (2048, 16384, 65536)
    GRID_POINTS = (2048, 8192)
    GRID_HALFSPAN = 40.0

    def start(self, rng, cycles):
        # Stratified draws: over a run, each grid size gets one gap and one
        # d_A/sigma from each of `cycles` equal log slices of their ranges, so
        # the known-defect regions hold the same share of every run.
        self.strata = cycles
        self.slices = {n: (rng.sample(range(cycles), cycles), rng.sample(range(cycles), cycles))
                       for n in self.GAUSS_POINTS}

    def cycle(self, rng, index):
        return ([self.gauss_op(rng, n, *(order[index] for order in self.slices[n]))
                 for n in self.GAUSS_POINTS]
                + [self.grid_op(rng, n) for n in self.GRID_POINTS])

    @staticmethod
    def compute(scenario, n):
        res = protocol.run(scenario, n=n)
        validity = analysis.validity_check(scenario, n=n)
        report = analysis.weak_value_report(scenario.pre, scenario.post, scenario.delta_a,
                                            scenario.delta_b)
        return res.probability, res.mean_kick, res.std, validity, report

    def check_compute(self, result, proto, probe_terms, known=lambda ref, sigma: {}) -> Outcome:
        """`known(ref, sigma)` maps "P", "mean" or "std" to the known defect that may fail it."""
        prob, mean, std, validity, report = result
        out = Outcome()
        ref = oracle.protocol_stats(proto, probe_terms)
        sigma = oracle.gaussian_sum_stats(probe_terms).std
        known = known(ref, sigma)
        out.compare("P", prob, ref.probability, known=known.get("P"))
        out.compare("mean", mean, ref.mean, MEAN_FLOOR * sigma, known=known.get("mean"))
        out.compare("std", std, ref.std, known=known.get("std"))
        wv = oracle.weak_values(proto)
        floor = MEAN_FLOOR * sigma
        out.require(validity.exact_mean == mean, "validity_check exact_mean != protocol.run mean")
        out.compare("first_order_mean", validity.first_order_mean, wv.effective_kick, floor,
                    digits=False)
        out.compare("kick_ratio_a", validity.kick_ratio_a, abs(proto.delta_a) / sigma,
                    digits=False)
        out.compare("effective_kick", report.effective_kick, wv.effective_kick, floor,
                    digits=False)
        out.compare("gain", report.gain, wv.gain, MEAN_FLOOR, digits=False)
        for label, got, want in (("projector weak value", report.projector_weak_value,
                                  wv.projector),
                                 ("postselection overlap", report.postselection_overlap,
                                  wv.overlap)):
            out.compare(label, got, want, digits=False)
        return out

    def gauss_op(self, rng, n, gap_slice, ratio_slice) -> Op:
        gap = stratified(rng, 1e-9, 1e-1, gap_slice, self.strata)
        width = rng.uniform(0.5, 2.0)
        ratio = stratified(rng, 1e-12, 1e4, ratio_slice, self.strata)
        d_a = ratio / width
        doc = {
            "units": "natural",
            "source": {"beta": SQRT_HALF + gap},
            "probe": {"W": width, "grid_points": n},
            "kicks": {"delta_A": d_a, "delta_B": d_a * rng.uniform(0.05, 0.5)},
            "postselection": "paper-default",
            "phases": _phases(rng),
        }
        built = config.build_scenario(doc)
        proto, sigma = oracle.from_doc(doc)

        def known(ref, sigma) -> dict:
            if n == 2048 and ratio >= 1e3:
                return dict.fromkeys(("P", "mean", "std"), GRID_SEPARATION)
            # Postselection cancels the amplitude to sqrt(P) of the probe's, so the
            # grid's round-off in the mean grows to about eps / sqrt(P).  At this
            # commit the observed error stays below 1.6 times this estimate.
            roundoff = 2.2e-16 / (math.sqrt(ref.probability)
                                  * max(abs(ref.mean) / sigma, MEAN_FLOOR))
            return {"mean": CANCELLATION} if roundoff > TOLERANCE / 10 else {}

        return Op("a", f"gauss n={n} beta-1/sqrt2={gap:.3e} d_A/sigma={ratio:.3e}",
                  lambda: self.compute(built.scenario, n),
                  lambda r: self.check_compute(r, proto, [(1.0, 0.0, sigma)], known),
                  doc=doc)

    def grid_op(self, rng, n) -> Op:
        terms = [(rng.uniform(0.3, 1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
                  rng.uniform(-3.0, 3.0), rng.uniform(0.6, 1.5))
                 for _ in range(rng.choice((2, 3)))]
        norm = math.sqrt(oracle.gaussian_sum_stats(terms).probability)
        terms = [(c / norm, mu, s) for c, mu, s in terms]
        p = np.linspace(-self.GRID_HALFSPAN, self.GRID_HALFSPAN, n)
        amps = sum(c * (2 * math.pi * s * s) ** -0.25 * np.exp(-((p - mu) ** 2) / (4 * s * s))
                   for c, mu, s in terms)
        beta = rng.uniform(0.3, 0.95)
        scenario = protocol.Scenario(
            pre=protocol.SourceState(complex(math.sqrt(1.0 - beta * beta)), complex(beta)),
            post=protocol.SourceState.from_amplitudes(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),
            probe=wavepacket.GridPacket(p=p, amps=amps),
            delta_a=rng.uniform(-6.0, 6.0), delta_b=rng.uniform(-6.0, 6.0),
            phi_a=rng.uniform(-math.pi, math.pi), phi_b=rng.uniform(-math.pi, math.pi))
        s = scenario
        proto = oracle.Protocol(s.pre.amp_a, s.pre.amp_b, s.post.amp_a, s.post.amp_b,
                                s.delta_a, s.delta_b, s.phi_a, s.phi_b)
        return Op("b", f"grid n={n} terms={len(terms)} d_A={s.delta_a:.3f}",
                  lambda: self.compute(scenario, n),
                  lambda r: self.check_compute(r, proto, terms))


class McWitness(Workload):
    """cli.main(["montecarlo", ...]) on rare (P ~ 1e-7) and common (P ~ 0.125) jobs."""

    name = "mc-witness"
    families = ("rare jobs, trials", "common jobs, accepted samples")
    cycles_per_second = 0.2
    COMMON_PER_CYCLE = 6
    COMMON_TRIALS = 1_000_000
    RARE_EXPECTED_ACCEPTED = 10

    def cycle(self, rng, index):
        ops = [self.job(amplification_doc(rng, self.RARE_EXPECTED_ACCEPTED), rare=True)]
        ops += [self.job(fig2_doc(rng, trials=self.COMMON_TRIALS), rare=False)
                for _ in range(self.COMMON_PER_CYCLE)]
        return ops

    def job(self, doc, rare: bool) -> Op:
        cfg = self.config_file(doc)
        bundle, rerun = self.path("mc"), self.path("mc-w2")

        def check(rc) -> Outcome:
            out = Outcome()
            rc2 = call_cli(["montecarlo", cfg, "--out", str(rerun), "--workers", "2"])
            out.require(rc == 0 and rc2 == 0, f"montecarlo exited {rc} / {rc2} (--workers 2)")
            if rc == 0 and rc2 == 0:
                check_montecarlo(out, bundle, rerun, doc, rare)
            return out

        return Op("a" if rare else "b",
                  f"montecarlo {'rare' if rare else 'common'} "
                  f"trials={doc['montecarlo']['trials']} beta={doc['source']['beta']!r}",
                  lambda: call_cli(["montecarlo", cfg, "--out", str(bundle)]), check, doc=doc,
                  scratch=(bundle, rerun))


class SweepGrid(Workload):
    """cli.main(["sweep", ..., "--svg"]) over two-axis SI sweeps of 48k points."""

    name = "sweep-grid"
    families = ("caseA sweeps, points", "caseB sweeps, points")
    cycles_per_second = 0.1
    AXES = (("M", "x_A"), ("W", "g"), ("m", "T"), ("x_B", "M"))
    SHAPES = {"caseA": (240, 200), "caseB": (200, 240)}

    def cycle(self, rng, index):
        return [self.sweep_op(rng, rng.choice(self.AXES), shape, case)
                for case, shape in self.SHAPES.items()]

    def sweep_op(self, rng, fields, shape, case) -> Op:
        doc = si_doc(rng, case)
        axes = random_axes(rng, doc, fields, shape)
        cfg = self.config_file(doc)
        bundle, rerun = self.path("sweep"), self.path("sweep-w2")
        sample = random.Random(rng.random())
        args = ["sweep", cfg, *axis_args(axes), "--svg"]

        def check(rc) -> Outcome:
            out = Outcome()
            rc2 = call_cli(args + ["--out", str(rerun), "--workers", "2"])
            out.require(rc == 0 and rc2 == 0, f"sweep exited {rc} / {rc2} (--workers 2)")
            if rc == 0 and rc2 == 0:
                check_sweep(out, bundle, rerun, doc, axes, sample)
            return out

        return Op("a" if case == "caseA" else "b",
                  f"sweep {case} {axes[0][0]}x{axes[1][0]} {shape[0]}x{shape[1]}",
                  lambda: call_cli(args + ["--out", str(bundle)]), check, doc=doc,
                  scratch=(bundle, rerun))


class ColdCli(Workload):
    """Fresh `python -m gravkick` processes, one at a time, one subcommand each."""

    name = "cold-cli"
    host_load = "process"
    families = ("compute invocations (simulate, montecarlo, sweep)",
                "start-up-bound invocations (feasibility, fig2, presets)")
    MC_TRIALS = 10_000
    SWEEP_SHAPE = (20, 20)

    def process(self, argv, phase):
        """Run one CLI process through the launcher; a traced one also keeps its spans."""
        spans = None
        cmd = [sys.executable, str(LAUNCHER)]
        if self.tracer is not None:
            # Not from self.path: a repeat must see the same bundle paths as the first run.
            fd, spans = tempfile.mkstemp(prefix="spans-", suffix=".json", dir=self.work)
            os.close(fd)
            cmd += ["--spans", spans]
        proc = subprocess.run(cmd + argv, cwd=self.work, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return proc, (spans, phase)

    def absorb(self, result) -> None:
        """Keep a finished process's spans, when it was traced."""
        _, (spans, phase) = result
        if self.tracer is not None and spans is not None:
            self.tracer.absorb(spans, phase)

    def collect(self, result) -> None:
        """After a timed run: its spans, and the peak RSS it reported on stderr."""
        self.absorb(result)
        for line in result[0].stderr.splitlines():
            if line.startswith("peak_rss_kib "):
                self.peak_rss_kib = max(self.peak_rss_kib, int(line.split()[1]))

    def invocation(self, label, family, argv, check, doc=None, scratch=()) -> Op:
        """One CLI process; a repeat must print the same and write the same files."""
        def checked(result) -> Outcome:
            proc = result[0]
            out = Outcome()
            out.require(proc.returncode == 0,
                        f"exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            if proc.returncode == 0:
                check(out, proc)
            out.work = 1.0  # one invocation
            return out

        return Op(family, f"{label}: gravkick {' '.join(argv)}",
                  lambda: self.process(argv, "timed"), checked, doc=doc, scratch=scratch,
                  output=lambda result: (result[0].returncode, result[0].stdout),
                  collect=self.collect)

    def rerun(self, out: Outcome, argv, rerun: Path) -> bool:
        """The --workers 2 rerun, itself a separate process; True when it succeeded."""
        result = self.process(argv + ["--out", str(rerun), "--workers", "2"], "check")
        self.absorb(result)
        proc = result[0]
        out.require(proc.returncode == 0, f"--workers 2 rerun exited {proc.returncode}")
        return proc.returncode == 0

    def cycle(self, rng, index):
        ops = []

        def simulate(doc, flags, display=None, svg=False, curve_known=None):
            bundle = self.path("sim")
            ops.append(self.invocation(
                "simulate" + "".join(flags), "a",
                ["simulate", self.config_file(doc), "--out", str(bundle), *flags],
                lambda out, proc: check_simulate(out, bundle, doc, display, svg, curve_known),
                doc=doc, scratch=(bundle,)))

        simulate(amplification_doc(rng), [])
        case = rng.choice(("caseA", "caseB"))
        simulate(si_doc(rng, case), ["--units", "natural"], display="natural")
        simulate(fig2_doc(rng), ["--svg"], svg=True)
        other = {"amp_A": rng.uniform(0.4, 0.7), "amp_B": rng.uniform(0.6, 0.9)}
        simulate(fig2_doc(rng, postselection=other), ["--svg"], svg=True, curve_known=FIG2_CURVE)

        for solve in (None, (rng.choice(("M", "m", "W", "T", "x_A", "g")),
                             loguniform(rng, 1e-4, 1e-2))):
            doc, bundle = si_doc(rng, rng.choice(("caseA", "caseB"))), self.path("feas")
            extra = ["--solve", solve[0], "--target", repr(solve[1])] if solve else []
            ops.append(self.invocation(
                "feasibility" + (" --solve" if solve else ""), "b",
                ["feasibility", self.config_file(doc), "--out", str(bundle), *extra],
                lambda out, proc, d=doc, b=bundle, s=solve: check_feasibility(out, b, d, s),
                doc=doc, scratch=(bundle,)))

        doc = fig2_doc(rng, trials=self.MC_TRIALS)
        bundle, rerun, cfg = self.path("mc"), self.path("mc-w2"), self.config_file(doc)

        def mc_check(out, proc, doc=doc, bundle=bundle, rerun=rerun, cfg=cfg):
            if self.rerun(out, ["montecarlo", cfg], rerun):
                check_montecarlo(out, bundle, rerun, doc, rare=False)

        ops.append(self.invocation("montecarlo", "a", ["montecarlo", cfg, "--out", str(bundle)],
                                   mc_check, doc=doc, scratch=(bundle, rerun)))

        doc = si_doc(rng, rng.choice(("caseA", "caseB")))
        axes = random_axes(rng, doc, ("M", "x_A"), self.SWEEP_SHAPE)
        bundle, rerun, cfg = self.path("sweep"), self.path("sweep-w2"), self.config_file(doc)
        args = ["sweep", cfg, *axis_args(axes), "--svg"]
        sample = random.Random(rng.random())

        def sweep_check(out, proc, doc=doc, bundle=bundle, rerun=rerun, args=args, axes=axes):
            if self.rerun(out, args, rerun):
                check_sweep(out, bundle, rerun, doc, axes, sample)

        ops.append(self.invocation("sweep", "a", args + ["--out", str(bundle)], sweep_check,
                                   doc=doc, scratch=(bundle, rerun)))

        figure = self.path("fig2") / "fig2.svg"
        fig2_preset = json.loads((self.root / "src/gravkick/presets/fig2.json").read_text())

        def fig2_check(out, proc):
            proto, sigma = oracle.from_doc(fig2_preset)
            checks.check_curves(out, figure.with_suffix(".csv"), proto, sigma)
            out.require(figure.read_text(encoding="utf-8").count("<polyline") == 3,
                        "fig2.svg is not a three-curve SVG")

        ops.append(self.invocation("fig2", "b", ["fig2", "--out", str(figure)], fig2_check,
                                   scratch=(figure.parent,)))

        def presets_check(out, proc):
            names = [line.split("\t")[0] for line in proc.stdout.splitlines()]
            out.require(names == list(config.PRESET_NAMES), f"presets list printed {names}")

        ops.append(self.invocation("presets", "b", ["presets", "list"], presets_check))
        return ops


WORKLOADS = {w.name: w for w in (ColdCli, ExactKernel, McWitness, SweepGrid)}


def coverage_ops(work: Path) -> list[Op]:
    """One call into each layer, for a traced run whose workload never reaches it."""
    rng = random.Random("coverage")
    kernel = ExactKernel(0, work.parent, work)
    ops = [kernel.grid_op(rng, 2048)]
    sim = fig2_doc(rng, trials=20_000)
    sim_cfg = work / "coverage.json"
    sim_cfg.write_text(json.dumps(sim), encoding="utf-8")
    si = si_doc(rng, "caseA")
    si_cfg = work / "coverage-si.json"
    si_cfg.write_text(json.dumps(si), encoding="utf-8")
    sweep_args = ["sweep", str(si_cfg), *axis_args(random_axes(rng, si, ("M", "x_A"), (20, 20))),
                  "--svg"]
    for argv in (["simulate", str(sim_cfg), "--svg"],
                 ["montecarlo", str(sim_cfg)], ["montecarlo", str(sim_cfg), "--workers", "2"],
                 sweep_args, sweep_args + ["--workers", "2"]):
        ops.append(Op("a", "coverage",
                      lambda a=argv: call_cli(a + ["--out", str(work / "coverage")]),
                      lambda r: Outcome()))
    return ops
