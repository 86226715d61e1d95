import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gravkick
from gravkick.cli import main
from gravkick.config import load_preset

from . import oracles
from .refvals import (
    AMP_GAIN,
    CASE_A_DOC,
    CASE_A_MASS,
    CASE_B_DOC,
    CASE_B_RATIO,
    FIG2_CSV_SHA256,
    FIG2_DELTA_EF,
    FIG2_MEAN,
    FIG2_SVG_SHA256,
    HISTOGRAM_CSV_SHA256_FIG2,
    PHASED_DOC,
    SIMULATE_SUMMARY_SHA256,
    SOLVE_SUMMARY_SHA256_CASE_B,
    SWEEP_CSV_SHA256_CASE_B,
    SWEEP_SVG_SHA256_CASE_B,
    WAVEFUNCTION_CSV_SHA256_FIG2,
)


def read_summary(path):
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        key, value = line.split(",", 1)
        rows[key] = value
    return rows


def as_float(rows, key):
    return float(rows[key])


def doc_path(tmp_path, doc):
    """Write `doc` as a scenario file under `tmp_path` and return its path."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_refused(code, out, capsys, kind, message):
    """Exit code, no bundle, and a one-line JSON error record of `kind` naming `message`.

    Nothing else reaches stderr: the human-readable line and the record, no traceback or
    numpy warning.
    """
    assert code == {"config": 2, "runtime": 1}[kind]
    assert not out.exists()
    err = capsys.readouterr().err
    assert message in err
    human, line = err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == kind
    assert human == f"error: {record['message']}"
    return record


class TestSimulate:
    def test_fig2_summary_values(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["simulate", "--scenario", "fig2", "--out", str(out)]) == 0
        rows = read_summary(out / "summary.csv")
        assert as_float(rows, "exact_mean") == pytest.approx(FIG2_MEAN, abs=1e-8)
        assert as_float(rows, "delta_ef") == pytest.approx(FIG2_DELTA_EF, abs=1e-8)
        assert rows["regime"] == "strong"
        assert (out / "wavefunction.csv").exists()

    def test_wavefunction_bytes_frozen(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["simulate", "--scenario", "fig2", "--out", str(out)]) == 0
        assert sha256(out / "wavefunction.csv") == WAVEFUNCTION_CSV_SHA256_FIG2

    @pytest.mark.parametrize("name", sorted(SIMULATE_SUMMARY_SHA256))
    def test_summary_bytes_frozen(self, tmp_path, name):
        source = [doc_path(tmp_path, PHASED_DOC)] if name == "phased" else ["--scenario", name]
        out = tmp_path / "bundle"
        assert main(["simulate", *source, "--out", str(out)]) == 0
        assert sha256(out / "summary.csv") == SIMULATE_SUMMARY_SHA256[name]

    def test_amplification_gain(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["simulate", "--scenario", "amplification", "--out", str(out)]) == 0
        rows = read_summary(out / "summary.csv")
        assert as_float(rows, "gain") == pytest.approx(AMP_GAIN, rel=1e-6)
        assert rows["regime"] == "weak"

    def test_equal_kicks_exact_matches_first_order(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "units": "natural",
                    "source": {"beta": 0.9},
                    "kicks": {"delta_A": 0.25, "delta_B": 0.25},
                }
            )
        )
        out = tmp_path / "bundle"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        rows = read_summary(out / "summary.csv")
        assert as_float(rows, "exact_mean") == pytest.approx(0.25, abs=1e-10)
        assert as_float(rows, "delta_ef") == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("gain, regime", [(1e3, "weak"), (1e5, "marginal"), (1e7, "strong")])
    def test_regime_reads_the_amplified_kick(self, tmp_path, gain, regime):
        # caseB's kicks are at most 3.2e-6 sigma, but the amplified kick is 3.2e-6 gain sigma
        doc = {**load_preset("caseB"), "source": {"gain": gain}}
        out = tmp_path / "bundle"
        assert main(["simulate", doc_path(tmp_path, doc), "--units", "natural",
                     "--out", str(out)]) == 0
        assert read_summary(out / "summary.csv")["regime"] == regime

    def test_si_scenario_in_natural_units(self, tmp_path):
        # exact mean over sigma must reproduce the feasibility ratio at first order
        out = tmp_path / "bundle"
        assert main(
            ["simulate", doc_path(tmp_path, CASE_B_DOC), "--out", str(out), "--units", "natural"]
        ) == 0
        rows = read_summary(out / "summary.csv")
        assert as_float(rows, "exact_mean") == pytest.approx(CASE_B_RATIO, rel=1e-3)
        assert rows["units"] == "natural"

    def test_natural_scenario_cannot_convert_to_si(self, tmp_path, capsys):
        code = main(
            ["simulate", "--scenario", "fig2", "--out", str(tmp_path / "x"), "--units", "si"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "SI anchor" in err
        assert json.loads(err.strip().splitlines()[-1])["error"] == "config"

    def test_svg_bundle_member(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["simulate", "--scenario", "fig2", "--out", str(out), "--svg"]) == 0
        assert (out / "fig2.svg").exists()
        assert (out / "fig2_curves.csv").exists()


class TestGridRenders:
    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_fig2_renders_the_conditional_once(self, tmp_path, superpose_calls, command):
        assert main([command, "--scenario", "fig2", "--out", str(tmp_path / "bundle")]) == 0
        assert len(superpose_calls) == 1

    def test_simulate_svg_runs_the_scenario_once(self, tmp_path, monkeypatch):
        from gravkick import analysis, protocol

        calls = []
        for module, name in [(protocol, "run"), (analysis, "weak_value_report")]:
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        out = tmp_path / "bundle"
        assert main(["simulate", "--scenario", "caseB", "--svg", "--out", str(out)]) == 0
        assert sorted(calls) == ["run", "weak_value_report"]
        # the curves are that run's: the postselected one is the branch sum over the
        # summary's probability, and so is normalised
        probability = as_float(read_summary(out / "summary.csv"), "postselection_probability")
        lines = (out / "fig2_curves.csv").read_text().splitlines()[1:]
        p, branch_b, branch_a, total = np.array([[float(x) for x in line.split(",")]
                                                 for line in lines]).T
        branch_sum = (branch_b + branch_a) / math.sqrt(2.0)
        assert np.trapezoid(branch_sum**2, p) == pytest.approx(probability, rel=2e-4)
        # the branch columns hold 9 significant digits, and they cancel in the sum
        np.testing.assert_allclose(total * math.sqrt(probability), branch_sum,
                                   rtol=0, atol=1e-8 * np.max(np.abs(branch_b)))

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    @pytest.mark.parametrize("delta_a, delta_b, miss", [
        (1e4, 1e3, "0.00025 std"),  # 2048 points 4.4 sigma apart
        (3e3, 3e2, None),  # misses by 1.2e-8 std
    ])
    def test_coarse_grid_warns(self, tmp_path, capsys, command, delta_a, delta_b, miss):
        doc = {"units": "natural", "source": {"beta": 0.9},
               "kicks": {"delta_A": delta_a, "delta_B": delta_b},
               "montecarlo": {"trials": 1000, "seed": 1}}
        out = tmp_path / "bundle"
        assert main([command, doc_path(tmp_path, doc), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        err = capsys.readouterr().err
        if miss is None:
            assert err == ""
            return
        human, record = err.strip().splitlines()
        assert human.startswith("warning: the 2048-point grid ") and miss in human
        assert json.loads(record) == {"warning": "grid-resolution", "field": "probe.grid_points",
                                      "message": human.removeprefix("warning: ")}


# non-paper postselections of an SI document: real, and complex with interaction phases
DOCUMENT_WEIGHTS = [
    {"postselection": {"amp_A": 0.6, "amp_B": 0.8}},
    {"postselection": {"amp_A": [0.3, -0.5], "amp_B": [0.7, 0.2]},
     "phases": {"phi_A": 0.4, "phi_B": -1.1}},
]


class TestFeasibility:
    def test_case_b_ratio(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["feasibility", doc_path(tmp_path, CASE_B_DOC), "--out", str(out)]) == 0
        rows = read_summary(out / "summary.csv")
        # CSV carries 9 significant digits
        assert abs(as_float(rows, "ratio")) == pytest.approx(abs(CASE_B_RATIO), rel=1e-8)
        assert abs(as_float(rows, "ratio")) == pytest.approx(0.002, rel=0.02)
        sweep_lines = (out / "sweep.csv").read_text().splitlines()
        assert len(sweep_lines) == 2

    def test_case_a_solve_mass(self, tmp_path):
        out = tmp_path / "bundle"
        code = main(
            ["feasibility", doc_path(tmp_path, CASE_A_DOC), "--solve", "M", "--target", "1e-3",
             "--out", str(out)]
        )
        assert code == 0
        rows = read_summary(out / "summary.csv")
        assert as_float(rows, "solved_M") == pytest.approx(CASE_A_MASS, rel=1e-9)

    def test_solve_target_zero_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        code = main(
            ["feasibility", doc_path(tmp_path, CASE_B_DOC), "--solve", "T", "--target", "0",
             "--out", str(out)]
        )
        assert code != 0
        assert not out.exists()
        err = capsys.readouterr().err
        assert "no solution" in err
        assert json.loads(err.strip().splitlines()[-1])["error"] == "runtime"

    def test_solve_at_zero_gain_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**CASE_B_DOC, "source": {"gain": 0}}))
        out = tmp_path / "bundle"
        code = main(["feasibility", str(config), "--solve", "M", "--target", "1e-3",
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "g = 0" in err
        assert json.loads(err.strip().splitlines()[-1])["error"] == "runtime"
        # the gain itself stays solvable
        assert main(["feasibility", str(config), "--solve", "g", "--target", "1e-3",
                     "--out", str(out)]) == 0
        solved = as_float(read_summary(out / "summary.csv"), "solved_g")
        assert solved == pytest.approx(100 * 1e-3 / abs(CASE_B_RATIO), rel=1e-8)

    @pytest.mark.parametrize("field", sorted(SOLVE_SUMMARY_SHA256_CASE_B))
    def test_solve_summary_bytes_frozen(self, tmp_path, field):
        out = tmp_path / "bundle"
        assert main(["feasibility", doc_path(tmp_path, CASE_B_DOC), "--solve", field,
                     "--target", "1e-3", "--out", str(out)]) == 0
        assert sha256(out / "summary.csv") == SOLVE_SUMMARY_SHA256_CASE_B[field]

    @pytest.mark.parametrize("field, target, broken", [
        ("x_A", "1e-6", "x_A = 1.779e-05 m >= x_B = 3.162e-06 m"),
        ("x_A", "1e-3", "x_A = 5.625e-07 m < 10 W = 1.000e-06 m"),
        ("W", "1e-3", "x_A = 1.000e-06 m < 10 W = 3.160e-06 m"),
    ])
    def test_solve_outside_domain_warns(self, tmp_path, capsys, field, target, broken):
        out = tmp_path / "bundle"
        assert main(["feasibility", "--scenario", "caseB", "--solve", field, "--target", target,
                     "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        human, record = capsys.readouterr().err.strip().splitlines()
        assert human.startswith(f"warning: solved {field} ") and human.endswith(broken)
        assert json.loads(record) == {"warning": "solve-domain", "field": field,
                                      "message": human.removeprefix("warning: ")}

    def test_solve_inside_domain_is_silent(self, tmp_path, capsys):
        assert main(["feasibility", "--scenario", "caseA", "--solve", "M", "--target", "1e-3",
                     "--out", str(tmp_path / "bundle")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("field, target", [("M", "nan"), ("x_A", "inf"), ("g", "-inf")])
    def test_non_finite_target_refused(self, tmp_path, capsys, field, target):
        out = tmp_path / "bundle"
        code = main(["feasibility", doc_path(tmp_path, CASE_B_DOC), "--solve", field,
                     f"--target={target}", "--out", str(out)])
        assert_refused(code, out, capsys, "runtime", "must be finite")

    @pytest.mark.parametrize("field, target, solved", [
        ("M", "1e308", "inf"), ("M", "1e-320", "0.0"), ("x_A", "1e308", "0.0"),
    ])
    def test_solution_outside_double_range_refused(self, tmp_path, capsys, field, target, solved):
        out = tmp_path / "bundle"
        code = main(["feasibility", "--scenario", "caseB", "--solve", field, "--target", target,
                     "--out", str(out)])
        assert_refused(code, out, capsys, "runtime", f"solved {field} = {solved} is outside")

    def test_beta_source_realises_its_gain(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**CASE_B_DOC, "source": {"beta": 0.9}}))
        feas, sim = tmp_path / "feas", tmp_path / "sim"
        assert main(["feasibility", str(config), "--out", str(feas)]) == 0
        assert main(["simulate", str(config), "--units", "natural", "--out", str(sim)]) == 0
        rows, exact = read_summary(feas / "summary.csv"), read_summary(sim / "summary.csv")
        assert as_float(rows, "ps_prob") == pytest.approx(
            as_float(exact, "postselection_probability"), rel=1e-8)
        gain = as_float(exact, "gain")
        assert gain > 0
        assert as_float(rows, "g") == pytest.approx(gain, rel=1e-8)
        # natural-unit delta_a is delta_A / sigma
        assert as_float(rows, "ratio") == pytest.approx(
            -gain * as_float(exact, "delta_a"), rel=1e-8)

    @pytest.mark.parametrize("extra", DOCUMENT_WEIGHTS, ids=["real", "complex-phased"])
    def test_ps_prob_follows_the_document_postselection(self, tmp_path, extra):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**CASE_B_DOC, **extra}))
        feas, sim, grid = tmp_path / "feas", tmp_path / "sim", tmp_path / "grid"
        assert main(["feasibility", str(config), "--out", str(feas)]) == 0
        assert main(["simulate", str(config), "--out", str(sim)]) == 0
        assert main(["sweep", str(config), "--axis", "M=1e-15:1e-14:10", "--out", str(grid)]) == 0
        exact = as_float(read_summary(sim / "summary.csv"), "postselection_probability")
        assert as_float(read_summary(feas / "summary.csv"), "ps_prob") == pytest.approx(
            exact, rel=1e-8)
        # the last sweep row is the document's own point
        last = (grid / "sweep.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[11]) == pytest.approx(exact, rel=1e-8)

    def test_beta_source_with_negative_gain_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**CASE_B_DOC, "source": {"beta": 0.999}}))
        out = tmp_path / "bundle"
        assert main(["feasibility", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "config"
        assert record["field"] == "source.beta"

    def test_beta_source_orthogonal_to_the_postselection_rejected(self, tmp_path, capsys):
        # alpha = sqrt(1 - beta^2) rounds to beta: the paper postselection's overlap is 0
        config = doc_path(tmp_path, {**CASE_B_DOC, "source": {"beta": 0.7071067811865476}})
        out = tmp_path / "bundle"
        code = main(["feasibility", config, "--out", str(out)])
        record = assert_refused(code, out, capsys, "config",
                                "leaves the source orthogonal to the paper postselection")
        assert record["field"] == "source.beta"

    def test_negative_exponent_target_is_a_number(self, tmp_path):
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        case = doc_path(tmp_path, CASE_B_DOC)
        assert main(["feasibility", case, "--solve", "M", "--target", "-1e-3",
                     "--out", str(spaced)]) == 0
        assert main(["feasibility", case, "--solve", "M", "--target=-1e-3",
                     "--out", str(joined)]) == 0
        assert (spaced / "summary.csv").read_bytes() == (joined / "summary.csv").read_bytes()
        assert read_summary(spaced / "summary.csv")["solve_target"] == "-1.00000000e-03"

    @pytest.mark.parametrize("preset", ["caseA", "caseB"])
    def test_si_presets_sit_outside_the_separation_limit(self, tmp_path, preset):
        out = tmp_path / "bundle"
        assert main(["feasibility", "--scenario", preset, "--out", str(out)]) == 0
        assert read_summary(out / "summary.csv")["valid_flag"] == "1"

    def test_natural_config_rejected(self, tmp_path, capsys):
        code = main(["feasibility", "--scenario", "fig2", "--out", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x").exists()


class TestMontecarlo:
    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        outs = [tmp_path / name for name in ("a", "b", "c")]
        assert main(["montecarlo", "--scenario", "fig2", "--out", str(outs[0])]) == 0
        assert main(["montecarlo", "--scenario", "fig2", "--out", str(outs[1])]) == 0
        assert main(
            ["montecarlo", "--scenario", "fig2", "--out", str(outs[2]), "--workers", "8"]
        ) == 0
        ref_summary = (outs[0] / "summary.csv").read_bytes()
        ref_hist = (outs[0] / "histogram.csv").read_bytes()
        for out in outs[1:]:
            assert (out / "summary.csv").read_bytes() == ref_summary
            assert (out / "histogram.csv").read_bytes() == ref_hist

    def test_histogram_format(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["montecarlo", "--scenario", "fig2", "--out", str(out)]) == 0
        lines = (out / "histogram.csv").read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 1 + 64

    def test_histogram_bytes_frozen(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["montecarlo", "--scenario", "fig2", "--out", str(out)]) == 0
        assert sha256(out / "histogram.csv") == HISTOGRAM_CSV_SHA256_FIG2

    def test_single_trial_marker(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "units": "natural",
                    "source": {"beta": 0.9},
                    "kicks": {"delta_A": 0.7, "delta_B": 0.1},
                    "montecarlo": {"trials": 1, "seed": 5},
                }
            )
        )
        out = tmp_path / "bundle"
        assert main(["montecarlo", str(config), "--out", str(out)]) == 0
        rows = read_summary(out / "summary.csv")
        assert rows["std_error"] == "n/a"
        assert int(rows["accepted"]) in (0, 1)

    def test_under_powered_run_warns(self, tmp_path, capsys):
        doc = load_preset("amplification")  # P = 1.8e-7
        doc["montecarlo"]["trials"] = 100000
        out = tmp_path / "bundle"
        assert main(["montecarlo", doc_path(tmp_path, doc), "--out", str(out)]) == 0
        rows = read_summary(out / "summary.csv")
        assert (rows["accepted"], rows["mean_kick_estimate"]) == ("0", "n/a")
        human, record = capsys.readouterr().err.strip().splitlines()
        assert human.startswith("warning: 0 of 100000 trials accepted at P = 1.8e-07")
        assert json.loads(record) == {"warning": "under-powered",
                                      "message": human.removeprefix("warning: ")}

    def test_powered_run_is_silent(self, tmp_path, capsys):
        assert main(["montecarlo", "--scenario", "fig2", "--out", str(tmp_path / "bundle")]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_section_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "units": "natural",
                    "source": {"beta": 0.9},
                    "kicks": {"delta_A": 0.7, "delta_B": 0.1},
                }
            )
        )
        assert main(["montecarlo", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "montecarlo" in capsys.readouterr().err


class TestSweep:
    def test_two_point_axis(self, tmp_path):
        out = tmp_path / "bundle"
        code = main(
            ["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", "M=1e-15:2e-15:2",
             "--out", str(out)]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        r1 = float(lines[1].split(",")[9])
        r2 = float(lines[2].split(",")[9])
        assert r2 == pytest.approx(2 * r1, rel=1e-9)

    def test_contains_case_b_row(self, tmp_path):
        out = tmp_path / "bundle"
        code = main(
            ["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", "M=1e-15:1e-14:10",
             "--out", str(out)]
        )
        assert code == 0
        last = (out / "sweep.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[9]) == pytest.approx(CASE_B_RATIO, rel=1e-8)

    def test_heatmap_needs_two_axes(self, tmp_path, capsys):
        code = main(
            ["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", "M=1e-15:1e-14:5", "--svg",
             "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_two_axis_heatmap(self, tmp_path):
        out = tmp_path / "bundle"
        code = main(
            ["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", "M=1e-15:1e-14:4",
             "--axis2", "W=5e-8:2e-7:3", "--svg", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 12
        svg_text = (out / "sweep.svg").read_text()
        assert svg_text.count("<rect") >= 12

    def test_csv_bytes_frozen(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", "M=1e-15:1e-13:6",
                     "--axis2", "x_A=2e-7:1e-6:5", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
        assert digest == SWEEP_CSV_SHA256_CASE_B

    def test_svg_bytes_frozen(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", "M=1e-15:1e-13:6",
                     "--axis2", "x_A=2e-7:1e-6:5", "--svg", "--out", str(out)]) == 0
        assert sha256(out / "sweep.svg") == SWEEP_SVG_SHA256_CASE_B

    @pytest.mark.parametrize("axis", ["g=10:inf:3", "g=nan:1e3:3", "M=-inf:1e-14:4"])
    def test_non_finite_bound_refused(self, tmp_path, capsys, axis):
        out = tmp_path / "bundle"
        code = main(["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", axis, "--out", str(out)])
        assert_refused(code, out, capsys, "config", "must be finite")

    @pytest.mark.parametrize("axis, message", [
        ("x_A=4e-7:2e-6:5", "x_B must exceed x_A"),
        ("g=10:-10:5", "amplification factor must be non-negative"),
        ("M=1e-14:0:5", "M must be positive"),
    ])
    def test_point_refusal_is_a_runtime_error(self, tmp_path, capsys, axis, message):
        out = tmp_path / "bundle"
        code = main(["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", "W=5e-8:2e-7:3",
                     "--axis2", axis, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert message in err
        assert json.loads(err.strip().splitlines()[-1])["error"] == "runtime"

    @pytest.mark.parametrize("svg", [[], ["--svg"]])
    def test_overflowing_ratio_refused(self, tmp_path, capsys, svg):
        out = tmp_path / "bundle"
        code = main(["sweep", "--scenario", "caseB", "--axis", "M=1e300:1e308:3",
                     "--axis2", "x_A=1e-6:2e-6:3", *svg, "--out", str(out)])
        assert_refused(code, out, capsys, "runtime", "ratio overflows the double range")

    def test_bad_axis_spec(self, tmp_path, capsys):
        code = main(
            ["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", "M=broken", "--out",
             str(tmp_path / "x")]
        )
        assert code == 2
        assert not (tmp_path / "x").exists()


class TestFig2Command:
    def test_svg_structure_and_samples(self, tmp_path):
        target = tmp_path / "fig2.svg"
        assert main(["fig2", "--out", str(target)]) == 0
        text = target.read_text()
        polylines = re.findall(r'<polyline[^>]*points="([^"]+)"', text)
        assert len(polylines) == 3
        for pts in polylines:
            assert len(pts.split()) == 401
        assert 'width="720" height="480"' in text

        csv_lines = (tmp_path / "fig2.csv").read_text().splitlines()
        assert csv_lines[0] == "p,beta_branch,neg_alpha_branch,postselected"
        assert len(csv_lines) == 1 + 401
        data = np.array([[float(x) for x in line.split(",")] for line in csv_lines[1:]])
        p, total = data[:, 0], data[:, 3]
        # normalized over the full line; the [-4, 4] window carries all but ~1e-4
        assert np.trapezoid(total**2, p) == pytest.approx(1.0, abs=2e-4)
        mean = np.trapezoid(p * total**2, p) / np.trapezoid(total**2, p)
        assert mean < 0
        assert mean == pytest.approx(FIG2_MEAN, abs=5e-3)
        # p = 0 samples match the analytic branch evaluations: exactly in memory,
        # to serialization precision (9 significant digits) in the file
        from gravkick import protocol
        from gravkick.cli import _decomposition_curves
        from gravkick.config import build_scenario

        grid, branch_b, branch_a, _ = _decomposition_curves(
            protocol.run(build_scenario(load_preset("fig2")).scenario))
        i0 = int(np.argmin(np.abs(grid)))
        amp = (2 * math.pi) ** (-0.25)
        assert branch_b[i0] == pytest.approx(0.9 * amp * math.exp(-0.01 / 4), abs=1e-10)
        assert branch_a[i0] == pytest.approx(
            -math.sqrt(0.19) * amp * math.exp(-0.49 / 4), abs=1e-10
        )
        at_zero = data[np.argmin(np.abs(p))]
        assert at_zero[1] == pytest.approx(0.9 * amp * math.exp(-0.01 / 4), abs=1e-8)
        assert at_zero[2] == pytest.approx(
            -math.sqrt(0.19) * amp * math.exp(-0.49 / 4), abs=1e-8
        )

    def test_bytes_frozen(self, tmp_path):
        target = tmp_path / "fig2.svg"
        assert main(["fig2", "--out", str(target)]) == 0
        assert sha256(target) == FIG2_SVG_SHA256
        assert sha256(tmp_path / "fig2.csv") == FIG2_CSV_SHA256

    def test_svg_follows_configured_postselection(self, tmp_path):
        doc = {
            "units": "natural",
            "source": {"beta": 0.9},
            "kicks": {"delta_A": 0.7, "delta_B": 0.1},
            "postselection": {"amp_A": 0.6, "amp_B": 0.8},
            "phases": {"phi_A": 0.4, "phi_B": -1.1},
        }
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "bundle"
        assert main(["simulate", str(config), "--svg", "--out", str(out)]) == 0

        coeffs = [
            0.6 * math.sqrt(0.19) * complex(math.cos(0.4), math.sin(0.4)),
            0.8 * 0.9 * complex(math.cos(-1.1), math.sin(-1.1)),
        ]
        centers = [0.7, 0.1]
        norm2, _, _ = oracles.superposition_stats(coeffs, centers)

        def modulus(p):
            amp = sum(c * oracles.gauss_amp(p, x0, 1.0) for c, x0 in zip(coeffs, centers))
            return np.abs(amp) / math.sqrt(norm2)

        from gravkick import protocol
        from gravkick.cli import _decomposition_curves
        from gravkick.config import build_scenario

        p, _, _, total = _decomposition_curves(protocol.run(build_scenario(doc).scenario))
        expected = modulus(p)
        peak = expected.max()
        assert np.max(np.abs(np.abs(total) - expected)) <= 1e-9 * peak
        lines = (out / "fig2_curves.csv").read_text().splitlines()[1:]
        data = np.array([[float(x) for x in line.split(",")] for line in lines])
        # the file holds 9 significant digits
        assert np.max(np.abs(np.abs(data[:, 3]) - modulus(data[:, 0]))) <= 1e-8 * peak

    def test_curves_off_the_window_warn(self, tmp_path, capsys):
        # kicks of 174 and -89 sigma leave the fixed [-4, 4] sigma window all but empty
        doc = {"units": "natural", "source": {"beta": 0.9}, "probe": {"W": 73.5},
               "kicks": {"delta_A": 2.36, "delta_B": -1.21}}
        out = tmp_path / "bundle"
        assert main(["simulate", doc_path(tmp_path, doc), "--svg", "--out", str(out)]) == 0
        assert (out / "fig2_curves.csv").exists() and (out / "fig2.svg").exists()
        human, record = capsys.readouterr().err.strip().splitlines()
        assert human.startswith("warning: the fig2 window p in [-4, 4] sigma holds 0 of ")
        assert json.loads(record) == {"warning": "fig2-window",
                                      "message": human.removeprefix("warning: ")}

    @pytest.mark.parametrize("name", ["fig2", "amplification", "caseA", "caseB"])
    def test_preset_curves_are_silent(self, tmp_path, capsys, name):
        assert main(["simulate", "--scenario", name, "--svg", "--out", str(tmp_path / "b")]) == 0
        assert main(["fig2", "--out", str(tmp_path / "fig2.svg")]) == 0
        assert capsys.readouterr().err == ""


class TestErrorChannels:
    def test_schema_violation_reports_field_and_writes_nothing(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"source": {"beta": 0.9}}))
        out = tmp_path / "bundle"
        assert main(["simulate", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        err_lines = capsys.readouterr().err.strip().splitlines()
        record = json.loads(err_lines[-1])
        assert record["error"] == "config"
        assert "kicks" in record["message"] or "root" in record["message"]

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_literal_is_a_config_error(self, tmp_path, capsys, literal):
        text = json.dumps(CASE_B_DOC).replace('"T": 0.5', f'"T": {literal}')
        assert literal in text
        config = tmp_path / "cfg.json"
        config.write_text(text)
        out = tmp_path / "bundle"
        code = main(["feasibility", str(config), "--out", str(out)])
        assert_refused(code, out, capsys, "config", f"{literal} is not a finite number")

    @pytest.mark.parametrize("command, literal, overflowing", [
        ("simulate", '"W": 1e-07', '"W": 1e400'),
        ("simulate", '"M": 1e-14', '"M": 1e400'),
        ("feasibility", '"gain": 100', '"gain": 1e400'),
        ("feasibility", '"T": 0.5', '"T": -1e400'),
    ])
    def test_overflowing_literal_is_a_config_error(self, tmp_path, capsys, command, literal,
                                                   overflowing):
        text = json.dumps(CASE_B_DOC)
        assert literal in text
        config = tmp_path / "cfg.json"
        config.write_text(text.replace(literal, overflowing))
        out = tmp_path / "bundle"
        code = main([command, str(config), "--out", str(out)])
        number = overflowing.split(": ")[1]
        assert_refused(code, out, capsys, "config", f"{number} overflows the double range")

    @pytest.mark.parametrize("command, literal, edited, kind, message", [
        ("feasibility", '"x_A": 4e-07, "x_B": 1.2649110640673517e-06',
         '"x_A": 1e-170, "x_B": 1e-160', "config", "kicks.x_A"),
        ("feasibility", '"M": 1e-14', '"M": ' + "1" * 401, "config",
         "overflows the double range"),
        ("simulate", '"W": 1.0}', '"W": 1e300}', "config", "probe.W"),
        ("feasibility", '"x_A": 4e-07, "x_B": 1.2649110640673517e-06',
         '"x_A": 1e-06, "x_B": 5e-07', "config", "kicks.x_B"),
        # sigma = 1e300 squares to inf
        ("simulate", '"W": 1.0}', '"W": 1e-300}', "config", "probe.W"),
        # x_A^2 overflows, so delta_A would underflow to 0
        ("feasibility", '"x_A": 4e-07, "x_B": 1.2649110640673517e-06',
         '"x_A": 1e200, "x_B": 1e201', "config", "kicks.x_A"),
        ("simulate", '"W": 1.0}', '"W": 1.0}, "postselection": {"amp_A": 1e300, "amp_B": 1e300}',
         "runtime", "OverflowError"),
        # kicks ~9e199 sigma apart: exact_std would be inf, and rendering the grid warns
        ("simulate", '"delta_A": 0.3, "delta_B": 0.05', '"delta_A": 1e200, "delta_B": 1e199',
         "runtime", "std inf is not finite"),
        # G M m T / x^2 overflows to inf on both branches
        ("feasibility", '"M": 1e-14, "m": 1e-20', '"M": 1e300, "m": 1e300', "config",
         "config field kicks: "),
        # G M m T / x^2 underflows to 0 on both branches
        ("feasibility", '"M": 1e-14, "m": 1e-20', '"M": 1e-300, "m": 1e-300', "config",
         "config field kicks: "),
    ], ids=["tiny-separation", "huge-integer", "wide-probe", "reversed-distances", "narrow-probe",
            "huge-distances", "huge-amplitudes", "huge-kicks", "huge-masses", "tiny-masses"])
    def test_out_of_range_document_is_refused(self, tmp_path, capsys, command, literal, edited,
                                              kind, message):
        natural = {"units": "natural", "source": {"beta": 0.9}, "probe": {"W": 1.0},
                   "kicks": {"delta_A": 0.3, "delta_B": 0.05}}
        text = json.dumps(CASE_B_DOC if command == "feasibility" else natural)
        assert literal in text
        config = tmp_path / "cfg.json"
        config.write_text(text.replace(literal, edited))
        out = tmp_path / "bundle"
        code = main([command, str(config), "--out", str(out)])
        assert_refused(code, out, capsys, kind, message)

    @pytest.mark.parametrize("seed, code", [(2**128 - 1, 0), (2**128, 2)])
    def test_seed_beyond_a_philox_key_is_a_config_error(self, tmp_path, capsys, seed, code):
        doc = load_preset("fig2")
        doc["montecarlo"] = {**doc["montecarlo"], "trials": 1000, "seed": seed}
        out = tmp_path / "bundle"
        assert main(["montecarlo", doc_path(tmp_path, doc), "--out", str(out)]) == code
        if code:
            record = assert_refused(code, out, capsys, "config", "montecarlo.seed")
            assert record["field"] == "montecarlo.seed"

    def test_unknown_flag_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "fig2", "--frobnicate"])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err.splitlines()[0])["error"] == "usage"

    def test_help_lists_flags(self, capsys):
        for command, flags in [
            ("simulate", ["--scenario", "--out", "--units", "--svg"]),
            ("feasibility", ["--solve", "--target"]),
            ("montecarlo", ["--workers"]),
            ("sweep", ["--axis", "--axis2", "--svg"]),
            ("fig2", ["--out"]),
        ]:
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text

    def test_impossible_postselection_exit_code(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "units": "natural",
                    "source": {"alpha": 0.7071067811865476, "beta": 0.7071067811865476},
                    "kicks": {"delta_A": 0.0, "delta_B": 0.0},
                }
            )
        )
        code = main(["simulate", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[-1])["error"] == "postselection-impossible"
        assert not (tmp_path / "x").exists()


class TestOutputDirDefaults:
    def test_env_var_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAVKICK_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--scenario", "fig2"]) == 0
        assert (tmp_path / "envout" / "summary.csv").exists()

    def test_out_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAVKICK_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--scenario", "fig2", "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "summary.csv").exists()
        assert not (tmp_path / "envout").exists()


def test_presets_list(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "amplification", "caseA", "caseB"):
        assert name in out


def test_module_entry_point(tmp_path):
    # run the copy of the package these tests import, whether or not PYTHONPATH names it
    src = str(Path(gravkick.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "gravkick", "presets", "list"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0
    assert "fig2" in result.stdout
