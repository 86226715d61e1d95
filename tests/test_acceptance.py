"""Acceptance suite: one check per release criterion, printed pass/fail.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from gravkick.analysis import weak_value_report
from gravkick.cli import main
from gravkick.feasibility import (
    ProtocolParams,
    feasibility_ratio,
    solve_parameter,
    spreading_time,
)
from gravkick.montecarlo import RunConfig, run_ensemble
from gravkick.protocol import (
    PostselectionImpossible,
    Scenario,
    SourceState,
    paper_postselection,
    run,
)
from gravkick.wavepacket import GaussianPacket

from . import oracles
from .probes import grid_probe
from .refvals import (
    AMP_ALPHA,
    AMP_BETA,
    AMP_PROBABILITY_LIMIT,
    AMP_WEIGHT_DIFFERENCE,
    FIG2_ALPHA,
    FIG2_BETA,
    FIG2_DELTA_A,
    FIG2_DELTA_B,
)

RNG = np.random.default_rng(20251231)


def check(criterion: int, description: str, passed: bool) -> None:
    print(f"[acceptance {criterion:02d}] {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {criterion} failed: {description}"


def fig2_scenario(**overrides) -> Scenario:
    kwargs = dict(
        pre=SourceState(complex(FIG2_ALPHA), complex(FIG2_BETA)),
        post=paper_postselection(),
        probe=GaussianPacket(0.0, 1.0, 1.0),
        delta_a=FIG2_DELTA_A,
        delta_b=FIG2_DELTA_B,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def test_criterion_01_amplification_factor():
    delta_a = 1.0
    kick = weak_value_report(SourceState(AMP_ALPHA, AMP_BETA), paper_postselection(), delta_a,
                             delta_a / 10.0).effective_kick
    coefficient = -kick / delta_a
    check(
        1,
        f"amplified kick coefficient {coefficient:.4g} within factor 1.1 of 1e3",
        1e3 / 1.1 <= coefficient <= 1e3 * 1.1 and coefficient == pytest.approx(1.06e3, rel=0.01),
    )


def test_criterion_02_case_b_feasibility():
    params = ProtocolParams(
        M=1e-14, m=1e-20, T=0.5, x_A=4e-7, x_B=4e-7 * math.sqrt(10), W=1e-7, g=100.0
    )
    ratio = feasibility_ratio(params)
    tau = spreading_time(params.m, params.W)
    check(
        2,
        f"case B |ratio| = {abs(ratio):.4g} (~0.002), tau = {tau:.4g} s (~0.5 s)",
        abs(ratio) == pytest.approx(1.98e-3, rel=0.01)
        and abs(abs(ratio) - 0.002) / 0.002 < 0.05
        and tau == pytest.approx(0.474, rel=0.01)
        and abs(tau - 0.5) / 0.5 < 0.1,
    )


def test_criterion_03_case_a_inversion():
    m_cs, width = 2.3e-25, 1e-5
    tau = spreading_time(m_cs, width)
    params = ProtocolParams(
        M=1.0, m=m_cs, T=tau, x_A=5e-5, x_B=5e-5 * math.sqrt(10), W=width, g=1e3
    )
    mass = solve_parameter(params, "M", 1e-3)
    check(
        3,
        f"case A tau = {tau:.4g} s (~0.1 s), solved source mass M = {mass:.4g} kg",
        tau == pytest.approx(0.109, rel=0.01) and 1.4e-8 <= mass <= 2.2e-8,
    )


def test_criterion_04_fig2_reproduction():
    exact = run(fig2_scenario())
    _, oracle_mean, _ = oracles.superposition_stats(
        [FIG2_BETA / math.sqrt(2), -FIG2_ALPHA / math.sqrt(2)],
        [FIG2_DELTA_B, FIG2_DELTA_A],
    )
    pointer_overlap = math.exp(-((FIG2_DELTA_A - FIG2_DELTA_B) ** 2) / 8.0)
    closed_mean = (
        FIG2_BETA**2 * FIG2_DELTA_B
        + FIG2_ALPHA**2 * FIG2_DELTA_A
        - FIG2_ALPHA * FIG2_BETA * (FIG2_DELTA_A + FIG2_DELTA_B) * pointer_overlap
    ) / (1 - 2 * FIG2_ALPHA * FIG2_BETA * pointer_overlap)
    d_ef = weak_value_report(SourceState(FIG2_ALPHA, FIG2_BETA), paper_postselection(),
                             FIG2_DELTA_A, FIG2_DELTA_B).effective_kick
    check(
        4,
        f"exact mean {exact.mean_kick:.6f} (oracle {oracle_mean:.6f}), delta_ef {d_ef:.6f}",
        exact.mean_kick < 0
        and abs(exact.mean_kick - oracle_mean) < 1e-3
        and exact.mean_kick == pytest.approx(closed_mean, abs=1e-9)
        and abs(d_ef - (-0.4635)) < 1e-4,
    )


def test_criterion_05_picture_equivalence():
    # Schrodinger-picture first-order kick vs Heisenberg-picture weak value,
    # 1e4 random valid draws (degenerate beta ~ alpha excluded by construction)
    worst = 0.0
    for _ in range(10000):
        beta = RNG.uniform(0.05, 0.999)
        alpha = math.sqrt(1 - beta * beta)
        if abs(beta - alpha) < 1e-3:
            continue
        d_a, d_b = RNG.uniform(-3.0, 3.0, size=2)
        pre, post = SourceState(alpha, beta), paper_postselection()
        a = oracles.effective_kick(alpha, beta, d_a, d_b)
        b = weak_value_report(pre, post, d_a, d_b).effective_kick
        scale = max(abs(a), abs(b), abs(d_a), abs(d_b))
        worst = max(worst, abs(a - b) / scale)
    check(5, f"effective kick vs kick weak value, worst relative gap {worst:.2e}", worst <= 1e-12)


def test_criterion_06_weak_limit_convergence():
    scales = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    unit_first_order = weak_value_report(SourceState(FIG2_ALPHA, FIG2_BETA), paper_postselection(),
                                         FIG2_DELTA_A, FIG2_DELTA_B).effective_kick
    errors = [
        abs(
            run(fig2_scenario(delta_a=s * FIG2_DELTA_A, delta_b=s * FIG2_DELTA_B)).mean_kick
            - s * unit_first_order
        )
        for s in scales
    ]
    slope = float(np.polyfit(np.log(scales), np.log(errors), 1)[0])
    check(6, f"exact-vs-first-order error scaling slope {slope:.3f} >= 1.9", slope >= 1.9)


def test_criterion_07_classical_witness_separation():
    # A classical mixture reweighted by any subensemble has a convex combination of the
    # branch kicks as its mean, so it stays inside the hull [delta_B, delta_A].
    masses = RNG.uniform(0.0, 1.0, size=(10000, 2)) * [FIG2_ALPHA**2, FIG2_BETA**2]
    masses = masses[masses.sum(axis=1) > 0]
    classical = masses @ [FIG2_DELTA_A, FIG2_DELTA_B] / masses.sum(axis=1)
    edge = min(FIG2_DELTA_A, FIG2_DELTA_B)
    classical_ok = bool(np.all(classical >= edge * (1 - 1e-15)))
    stats = run_ensemble(RunConfig(scenario=fig2_scenario(), trials=1000000, seed=2718))
    significance = -stats.mean_kick_estimate / stats.std_error
    below_hull = (edge - stats.mean_kick_estimate) / stats.std_error
    check(
        7,
        f"classical kick always >= {edge} > 0; quantum mean {stats.mean_kick_estimate:.4f} "
        f"negative at {significance:.0f} sigma, below the hull at {below_hull:.0f} sigma",
        classical_ok and stats.mean_kick_estimate < 0 and significance >= 5.0
        and below_hull >= 5.0,
    )


def test_criterion_08_postselection_probability():
    result = run(
        fig2_scenario(
            pre=SourceState(complex(AMP_ALPHA), complex(AMP_BETA)),
            delta_a=1e-6,
            delta_b=1e-7,
        )
    )
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = "(beta - alpha)^2 / 2" in readme and "beta^2 - alpha^2" in readme
    check(
        8,
        f"weak-limit acceptance {result.probability:.4g} vs (beta-alpha)^2/2 = "
        f"{AMP_PROBABILITY_LIMIT:.4g}; weight difference {AMP_WEIGHT_DIFFERENCE:.3g} documented",
        result.probability == pytest.approx(AMP_PROBABILITY_LIMIT, rel=0.01) and documented,
    )


def test_criterion_09_unitarity_and_completeness():
    probe = grid_probe(GaussianPacket(0.0, 1.0, 1.0), -12.0, 12.0, n=512)
    unitary_ok = True
    complete_ok = True
    for _ in range(1000):
        raw = RNG.normal(size=4)
        source = SourceState.from_amplitudes(complex(raw[0], raw[1]), complex(raw[2], raw[3]))
        kicks_and_phases = (*RNG.uniform(-2, 2, size=2), *RNG.uniform(-3, 3, size=2))
        # the kicked state's norm: its probabilities over the branch basis {|A>, |B>}
        norm = sum(run(Scenario(source, post, probe, *kicks_and_phases)).probability
                   for post in (SourceState(1.0, 0.0), SourceState(0.0, 1.0)))
        if abs(norm - 1.0) > 1e-10:
            unitary_ok = False
            break
        raw = RNG.normal(size=4)
        basis_1 = SourceState.from_amplitudes(complex(raw[0], raw[1]), complex(raw[2], raw[3]))
        basis_2 = SourceState(
            -complex(basis_1.amp_b).conjugate(), complex(basis_1.amp_a).conjugate()
        )
        total = 0.0
        for basis in (basis_1, basis_2):
            try:
                total += run(Scenario(source, basis, probe, *kicks_and_phases)).probability
            except PostselectionImpossible:
                pass
        if abs(total - 1.0) > 1e-9:
            complete_ok = False
            break
    check(
        9,
        "the kicks preserve norm within 1e-10 and orthonormal postselection sums to 1 "
        "within 1e-9 over 1e3 randomized cases",
        unitary_ok and complete_ok,
    )


def test_criterion_10_montecarlo_determinism(tmp_path):
    outs = [tmp_path / name for name in ("run1", "run2", "workers8")]
    assert main(["montecarlo", "--scenario", "fig2", "--out", str(outs[0])]) == 0
    assert main(["montecarlo", "--scenario", "fig2", "--out", str(outs[1])]) == 0
    assert main(
        ["montecarlo", "--scenario", "fig2", "--out", str(outs[2]), "--workers", "8"]
    ) == 0
    files = ["summary.csv", "histogram.csv"]
    identical = all(
        (outs[0] / name).read_bytes() == (other / name).read_bytes()
        for other in outs[1:]
        for name in files
    )
    check(10, "montecarlo bundles byte-identical across reruns and 1-vs-8 workers", identical)
