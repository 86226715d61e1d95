import cmath
import hashlib
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gravkick
from gravkick.cli import main
from gravkick.config import load_preset

from . import oracles
from .probes import child_env
from .refvals import (
    AMP_GAIN,
    CASE_A_DOC,
    CASE_A_MASS,
    CASE_B_DOC,
    CASE_B_RATIO,
    FIG2_BETA,
    FIG2_CSV_SHA256,
    FIG2_DELTA_EF,
    FIG2_MEAN,
    FIG2_STD,
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
        doc = {"phased": PHASED_DOC, "caseA": CASE_A_DOC, "caseB": CASE_B_DOC}.get(name)
        source = [doc_path(tmp_path, doc)] if doc else ["--scenario", name]
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

    @staticmethod
    def summary_rows(tmp_path, monkeypatch, doc, *flags):
        """The (name, value) rows that `simulate` formats into summary.csv for `doc`."""
        import gravkick.cli

        written, original = [], gravkick.cli.summary_csv

        def capture(rows):
            written.append(dict(rows))
            return original(rows)

        monkeypatch.setattr(gravkick.cli, "summary_csv", capture)
        assert main(["simulate", doc_path(tmp_path, doc), *flags,
                     "--out", str(tmp_path / "bundle")]) == 0
        (rows,) = written
        return rows

    @staticmethod
    def random_phased_doc(rng):
        """A natural document with random amplitudes, phases and kicks, and the oracle's
        (pre, post) amplitude pairs for it."""
        beta, phases = rng.uniform(-1.0, 1.0), (rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        pre = (math.sqrt(1.0 - beta * beta), beta)  # the derived alpha, as the config takes it
        doc = {"units": "natural", "source": {"beta": beta},
               "kicks": {f"delta_{x}": rng.choice((-1, 1)) * 10 ** rng.uniform(-4.0, 0.5)
                         for x in "AB"},
               "phases": {"phi_A": phases[0], "phi_B": phases[1]}}
        if rng.random() < 0.5:
            post = tuple(-cmath.exp(1j * phi) if x == "A" else cmath.exp(1j * phi)
                         for x, phi in zip("AB", phases))  # paper-default, up to its norm
        else:
            post = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in "AB")
            doc["postselection"] = {f"amp_{x}": [a.real, a.imag] for x, a in zip("AB", post)}
        return doc, pre, post, phases

    def test_first_order_mean_is_the_exact_slope(self, tmp_path, monkeypatch):
        # the phased first-order rows against mpmath's d(exact mean)/d lambda at lambda = 0
        rng = random.Random(41)
        for _ in range(40):
            doc, pre, post, phases = self.random_phased_doc(rng)
            rows = self.summary_rows(tmp_path, monkeypatch, doc)
            monkeypatch.undo()
            kicks = doc["kicks"]["delta_A"], doc["kicks"]["delta_B"]
            slope = oracles.first_order_slope_mp(pre, post, phases, *kicks)
            assert rows["first_order_mean"] == pytest.approx(slope, rel=1e-10, abs=0), doc
            exact = rows["exact_mean"]
            error = abs(exact - slope) / max(abs(exact), abs(kicks[0] - kicks[1]))
            assert rows["first_order_error"] == pytest.approx(error, rel=1e-6, abs=1e-12), doc

    def test_delta_ef_misses_the_phased_slope(self, tmp_path, monkeypatch):
        # PHASED_DOC: the first-order mean has the exact mean's sign, repulsion; delta_ef, of
        # the phase-free weights, reads attraction
        rows = self.summary_rows(tmp_path, monkeypatch, PHASED_DOC)
        phases = (1.0, -1.0)
        post = (-cmath.exp(1j), cmath.exp(-1j))
        slope = oracles.first_order_slope_mp((math.sqrt(1 - 0.81), 0.9), post, phases,
                                             0.007, 0.001)
        assert slope == pytest.approx(-4.635e-3, rel=1e-3)
        assert rows["first_order_mean"] == pytest.approx(slope, rel=1e-10, abs=0)
        assert rows["first_order_error"] < 1e-4
        assert rows["delta_ef"] == pytest.approx(2.598e-3, rel=1e-3)
        assert abs(rows["delta_ef"] - slope) > abs(slope)

    def test_first_order_rows_without_overlap_are_na(self, tmp_path):
        # alpha = beta: the phased weights cancel in the paper postselection, which carries the
        # phases; the phase-free weak values, which do not, still exist
        doc = {**PHASED_DOC, "source": {"alpha": 0.7071067811865476, "beta": 0.7071067811865476}}
        out = tmp_path / "bundle"
        assert main(["simulate", doc_path(tmp_path, doc), "--out", str(out)]) == 0
        rows = read_summary(out / "summary.csv")
        assert rows["first_order_mean"] == rows["first_order_error"] == "n/a"
        assert rows["delta_ef"] != "n/a"

    def test_first_order_mean_is_in_display_units(self, tmp_path, monkeypatch):
        si = self.summary_rows(tmp_path, monkeypatch, CASE_B_DOC)
        monkeypatch.undo()
        natural = self.summary_rows(tmp_path, monkeypatch, CASE_B_DOC, "--units", "natural")
        sigma = 1.054571817e-34 / CASE_B_DOC["probe"]["W"]
        assert natural["first_order_mean"] == pytest.approx(si["first_order_mean"] / sigma,
                                                            rel=1e-15)
        assert natural["first_order_error"] == si["first_order_error"]

    @pytest.mark.parametrize("gain, regime, extra", [
        pytest.param(gain, regime, extra, id=f"{gain}-{regime}{suffix}")
        for extra, suffix in (({}, ""), ({"phases": {"phi_A": 1, "phi_B": -1}}, "-phased"))
        for gain, regime in ((1e3, "weak"), (1e5, "marginal"), (1e7, "strong"))])
    def test_regime_reads_the_amplified_kick(self, tmp_path, gain, regime, extra):
        # caseB's kicks are at most 3.2e-6 sigma, but the amplified kick is 3.2e-6 gain sigma;
        # the paper postselection cancels the phases from the run whose regime this labels
        doc = {**load_preset("caseB"), "source": {"gain": gain}, **extra}
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
        record = json.loads(err.strip().splitlines()[-1])
        assert (record["error"], record["field"]) == ("config", "--units")

    @pytest.mark.parametrize("name", ["fig2", "amplification", "caseA", "caseB"])
    def test_regime_row_is_the_validity_check_regime(self, tmp_path, name):
        from gravkick.analysis import validity_check
        from gravkick.config import build_scenario

        built = build_scenario(load_preset(name))
        out = tmp_path / "bundle"
        assert main(["simulate", "--scenario", name, "--out", str(out)]) == 0
        regime = validity_check(built.scenario, n=built.grid_points).regime
        assert read_summary(out / "summary.csv")["regime"] == regime

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


# the commands that build an SI document
SI_COMMANDS = ("simulate", "feasibility", "montecarlo", "sweep")

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

    @pytest.mark.parametrize("command", SI_COMMANDS)
    @pytest.mark.parametrize("source", [{"gain": 100}, {"beta": 0.7075}], ids=["gain", "beta"])
    def test_an_si_document_is_evaluated_once_at_its_gain(self, tmp_path, monkeypatch, command,
                                                          source):
        # a beta source's gain is known from its amplitudes and x_A / x_B before the one
        # evaluation, as a gain source's is; a sweep evaluates its grid besides
        original, seen = gravkick.feasibility.evaluate_case, []

        def counted(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):  # wherever a caller looks it up
            if name.startswith("gravkick") and getattr(module, "evaluate_case", None) is original:
                monkeypatch.setattr(module, "evaluate_case", counted)
        axis = ["--axis", "M=1e-15:1e-14:3"] if command == "sweep" else []
        doc = doc_path(tmp_path, {**CASE_B_DOC, "source": source})
        assert main([command, doc, *axis, "--out", str(tmp_path / "bundle")]) == 0
        assert len(seen) == 1 + (command == "sweep")

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

    @pytest.mark.parametrize("field", ["M", "g"])
    def test_solve_on_an_underflowed_ratio_refused(self, tmp_path, capsys, field):
        # kicks of 6.67e-303 and 6.52e-304 are normal doubles, but the ratio underflows to -0
        doc = {"units": "si", "source": {"gain": 100}, "probe": {"W": 1e-100},
               "kicks": {"M": 1e-14, "m": 1e-20, "T": 1e-270, "x_A": 1e-6, "x_B": 3.2e-6}}
        out = tmp_path / "bundle"
        code = main(["feasibility", doc_path(tmp_path, doc), "--solve", field, "--target", "1e-3",
                     "--out", str(out)])
        record = assert_refused(code, out, capsys, "runtime", "the ratio underflows to 0")
        assert record["message"] == (f"the ratio underflows to 0 at these inputs; no {field} "
                                     "reaches target 0.001")

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

    def test_montecarlo_process_imports_neither_numpy_random_nor_hashlib(self, tmp_path):
        # the sampler's streams are stdlib random.Random; numpy.random adds about 6 MiB to the
        # process's peak RSS, and hashlib's SHAKE-256 would load libcrypto
        probe = ("import sys\nfrom gravkick import cli\n"
                 "assert cli.main(['montecarlo', '--scenario', 'fig2', '--out', sys.argv[1]]) == 0\n"
                 "print(sorted({'numpy.random', 'hashlib'} & sys.modules.keys()))")
        result = run_child(["-c", probe, str(tmp_path / "bundle")])
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "bundle" / "histogram.csv").is_file()

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


@pytest.mark.parametrize("offset", [1e5, 1e6, 1e8])
def test_kicks_far_from_zero_run(tmp_path, capsys, offset):
    # the natural fig2 document with both kicks moved by `offset` sigma
    doc = {"units": "natural", "source": {"beta": FIG2_BETA}, "probe": {"W": 1.0},
           "kicks": {"delta_A": offset + 0.7, "delta_B": offset + 0.1},
           "montecarlo": {"trials": 20000, "seed": 5}}
    config = doc_path(tmp_path, doc)
    for command in ("simulate", "montecarlo"):
        assert main([command, config, "--out", str(tmp_path / command)]) == 0
        assert capsys.readouterr().err == ""  # no grid-resolution or other warning
    rows = read_summary(tmp_path / "simulate" / "summary.csv")
    assert as_float(rows, "exact_mean") == pytest.approx(offset + FIG2_MEAN, rel=1e-8)
    # the kicks round at the offset's ulp, 1.5e-8 at 1e8, so their distance 0.6 does too
    assert as_float(rows, "exact_std") == pytest.approx(FIG2_STD, rel=1e-7)
    rows = read_summary(tmp_path / "montecarlo" / "summary.csv")
    assert int(rows["accepted"]) > 2000


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
        # rows is the point count, 6 x 5, not the number of columns
        assert (out / "summary.csv").read_text() == (
            "quantity,value\n"
            "rows,30\n"
            "axis1,M=1.00000000e-15:1.00000000e-13:6\n"
            "axis2,x_A=2.00000000e-07:1.00000000e-06:5\n"
        )

    def test_svg_bytes_frozen(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", "M=1e-15:1e-13:6",
                     "--axis2", "x_A=2e-7:1e-6:5", "--svg", "--out", str(out)]) == 0
        assert sha256(out / "sweep.svg") == SWEEP_SVG_SHA256_CASE_B

    def test_ps_prob_past_the_overlap_overflow_leaves_stderr_empty(self, tmp_path, capsys):
        # (gap / sigma)^2 overflows from M near 4.7e145: no numpy warning, and P is 1/2
        out = tmp_path / "bundle"
        assert main(["sweep", "--scenario", "caseB", "--axis", "M=1e-14:1e280:5",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()]
        assert rows[0][11] == "ps_prob"
        assert [row[11] for row in rows[2:]] == ["5.00000000e-01"] * 4

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

    @pytest.mark.parametrize("axes, message", [
        (["--axis", "Q=1:2:3"], "unknown sweep field 'Q'; valid fields: "),
        (["--axis", "M=1e-15:1e-13:1"], "each axis needs at least 2 points"),
        (["--axis", "M=1e-15:1e-13:3", "--axis2", "M=1e-14:1e-13:2"],
         "sweep axes must name distinct fields"),
    ], ids=["unknown-field", "one-point", "same-field-twice"])
    def test_axis_the_sweep_cannot_grid_is_a_config_error(self, tmp_path, capsys, axes,
                                                          message):
        out = tmp_path / "bundle"
        code = main(["sweep", doc_path(tmp_path, CASE_B_DOC), *axes, "--out", str(out)])
        assert_refused(code, out, capsys, "config", message)

    @pytest.mark.parametrize("axis", ["M=broken", "g=10:inf:3", "Q=1:2:3", "M=1e-15:1e-13:1"],
                             ids=["malformed", "non-finite", "unknown-field", "one-point"])
    @pytest.mark.parametrize("second, flag", [(None, "--axis"), ("W=5e-8:2e-7:3", "--axis2"),
                                              ("M=broken", "--axis"), ("g=1:nan:3", "--axis")],
                             ids=["alone", "second", "both-malformed", "both-non-finite"])
    def test_axis_refusal_names_its_flag(self, tmp_path, capsys, second, flag, axis):
        # the bad axis is the one on `flag`; where both are bad, the first is refused first
        if second is None:
            axes = ["--axis", axis]
        elif flag == "--axis2":
            axes = ["--axis", second, "--axis2", axis]
        else:
            axes = ["--axis", axis, "--axis2", second]
        out = tmp_path / "bundle"
        code = main(["sweep", doc_path(tmp_path, CASE_B_DOC), *axes, "--out", str(out)])
        assert assert_refused(code, out, capsys, "config", "")["field"] == flag

    def test_repeated_axis_field_names_axis2(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        code = main(["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", "M=1e-15:1e-13:3",
                     "--axis2", "M=1e-14:1e-13:2", "--out", str(out)])
        record = assert_refused(code, out, capsys, "config", "must name distinct fields")
        assert record["field"] == "--axis2"

    def test_svg_with_one_axis_is_refused_before_the_sweep(self, tmp_path, capsys,
                                                           monkeypatch):
        import gravkick.feasibility

        swept = []  # cli imports sweep from feasibility when the command runs
        monkeypatch.setattr(gravkick.feasibility, "sweep", lambda *args: swept.append(args))
        out = tmp_path / "bundle"
        code = main(["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", "M=1e-15:1e-13:3",
                     "--svg", "--out", str(out)])
        record = assert_refused(code, out, capsys, "config", "--svg heatmaps need two axes")
        assert record["field"] == "--svg"
        assert swept == []


class TestFig2Command:
    def test_out_that_is_its_own_curves_path_is_refused(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        code = main(["fig2", "--out", str(out)])
        record = assert_refused(code, out, capsys, "config", "is also the curves CSV path")
        assert record["field"] == "--out"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("form", ["missing-dir/", "existing-dir", "existing-dir/",
                                      "curves-dir"])
    def test_out_naming_a_directory_is_refused_before_the_work(self, tmp_path, capsys,
                                                               monkeypatch, form):
        import gravkick.cli

        built = []
        monkeypatch.setattr(gravkick.cli, "build_scenario", lambda doc: built.append(doc))
        (tmp_path / "existing-dir").mkdir()
        (tmp_path / "fig.csv").mkdir()
        out = str(tmp_path / form.rstrip("/")) + ("/" if form.endswith("/") else "")
        named = out
        if form == "curves-dir":
            out, named = str(tmp_path / "fig.svg"), str(tmp_path / "fig.csv")
        assert main(["fig2", "--out", out]) == 2
        human, line = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert (record["error"], record["field"]) == ("config", "--out")
        assert record["message"] == (
            f"--out {out!r} ends in a separator; give --out the SVG's file path"
            if form.endswith("/") else f"cannot write the bundle file {named!r}: it is a directory")
        assert human == f"error: {record['message']}"
        assert built == []
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["existing-dir", "fig.csv"]

    @pytest.mark.parametrize("form", ["afile/fig.svg", "afile/sub/fig.svg"])
    def test_out_under_a_file_is_refused_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                         form):
        import gravkick.cli

        built = []
        monkeypatch.setattr(gravkick.cli, "build_scenario", lambda doc: built.append(doc))
        (tmp_path / "afile").write_text("kept\n")
        out = str(tmp_path / form)
        assert main(["fig2", "--out", out]) == 2
        human, line = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert (record["error"], record["field"]) == ("config", "--out")
        assert record["message"] == (f"cannot make the bundle directory {os.path.dirname(out)!r}: "
                                     f"{str(tmp_path / 'afile')!r} is a file")
        assert human == f"error: {record['message']}"
        assert built == []
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_text() == "kept\n"

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
        # amplitudes of any finite size normalise; a zero pair has no direction
        ("simulate", '"W": 1.0}', '"W": 1.0}, "postselection": {"amp_A": 0, "amp_B": 0}',
         "config", "config field postselection: amplitudes must be finite and not both zero"),
        # kicks ~9e199 sigma apart: exact_std would be inf, and rendering the grid warns
        ("simulate", '"delta_A": 0.3, "delta_B": 0.05', '"delta_A": 1e200, "delta_B": 1e199',
         "runtime", "std inf is not finite"),
        # G M m T / x^2 overflows to inf on both branches
        ("feasibility", '"M": 1e-14, "m": 1e-20', '"M": 1e300, "m": 1e300', "config",
         "config field kicks: "),
        # G M m T / x^2 underflows to 0 on both branches
        ("feasibility", '"M": 1e-14, "m": 1e-20', '"M": 1e-300, "m": 1e-300', "config",
         "config field kicks: "),
        # the default T = m W^2 / (2 hbar) overflows: ProtocolParams refuses it for the document
        ("sweep", '"m": 1e-20, "T": 0.5', '"m": 1e300', "config",
         "config field kicks: T must be positive and finite"),
        # the default T underflows to 0: the same rule, and a config error as well
        ("sweep", '"W": 1e-07}, "kicks": {"M": 1e-14, "m": 1e-20, "T": 0.5',
         '"W": 1e-100}, "kicks": {"M": 1e-14, "m": 1e-300', "config",
         "config field kicks: T must be positive and finite"),
        # at M = 1e300 the ratio overflows at the gain either source realises: a beta source's
        # point is held to the rule at its own gain, as its gain twin's is
        *[(command, '"source": {"gain": 100}, "probe": {"W": 1e-07}, "kicks": {"M": 1e-14',
           f'"source": {source}, "probe": {{"W": 1e-07}}, "kicks": {{"M": 1e300', "config",
           "config field kicks: ratio overflows the double range; the inputs are too extreme")
          for source in ('{"gain": 100}', '{"beta": 0.9}') for command in SI_COMMANDS],
        # the postselection is read before the point: its zero pair is refused first
        ("feasibility", '"T": 0.5, "x_A": 4e-07, "x_B": 1.2649110640673517e-06}, '
         '"postselection": "paper-default"', '"T": 1e-320, "x_A": 4e-07, "x_B": '
         '1.2649110640673517e-06}, "postselection": {"amp_A": 0, "amp_B": 0}', "config",
         "config field postselection: amplitudes must be finite and not both zero"),
    ], ids=["tiny-separation", "huge-integer", "wide-probe", "reversed-distances", "narrow-probe",
            "huge-distances", "zero-amplitudes", "huge-kicks", "huge-masses", "tiny-masses",
            "huge-spreading-time", "zero-spreading-time",
            *[f"{source}-huge-ratio-{command}" for source in ("gain", "beta")
              for command in SI_COMMANDS], "zero-amplitudes-first"])
    def test_out_of_range_document_is_refused(self, tmp_path, capsys, command, literal, edited,
                                              kind, message):
        natural = {"units": "natural", "source": {"beta": 0.9}, "probe": {"W": 1.0},
                   "kicks": {"delta_A": 0.3, "delta_B": 0.05}}
        # the document holding the literal: simulate also takes the natural one
        (text,) = [text for text in map(json.dumps, (natural, CASE_B_DOC)) if literal in text]
        config = tmp_path / "cfg.json"
        config.write_text(text.replace(literal, edited))
        out = tmp_path / "bundle"
        axis = ["--axis", "M=1e-15:1e-14:3"] if command == "sweep" else []
        code = main([command, str(config), *axis, "--out", str(out)])
        record = assert_refused(code, out, capsys, kind, message)
        if record["message"].startswith("config field "):  # the field the message names
            assert record["message"].startswith(f"config field {record['field']}: ")

    def test_underflowing_document_is_refused_as_its_sweep_point(self, tmp_path, capsys):
        # one rule refuses both: a sweep's point as a runtime error, a document's as a config one
        out = tmp_path / "bundle"
        code = main(["sweep", doc_path(tmp_path, CASE_B_DOC), "--axis", "M=1e-300:2e-300:3",
                     "--out", str(out)])
        point = assert_refused(code, out, capsys, "runtime", "delta_b underflows")["message"]
        doc = {**CASE_B_DOC, "kicks": {**CASE_B_DOC["kicks"], "M": 1e-300, "m": 1e-300}}
        code = main(["feasibility", doc_path(tmp_path, doc), "--out", str(out)])
        record = assert_refused(code, out, capsys, "config", "config field kicks: ")
        assert record["message"] == f"config field kicks: {point}"

    @pytest.mark.parametrize("seed, code", [(2**128 - 1, 0), (2**128, 2)])
    def test_seed_beyond_128_bits_is_a_config_error(self, tmp_path, capsys, seed, code):
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

    @pytest.mark.parametrize("args, field, message", [
        (["feasibility", "--scenario", "caseB", "--solve", "M"], "--solve",
         "--solve and --target must be given together"),
        (["feasibility", "--scenario", "caseB", "--target", "1e-3"], "--target",
         "--solve and --target must be given together"),
        (["simulate", "cfg.json", "--scenario", "fig2"], "--scenario",
         "give either a config file or --scenario, not both"),
        (["simulate"], "--scenario", "a config file or --scenario preset is required"),
    ], ids=["solve-alone", "target-alone", "config-and-scenario", "neither"])
    def test_flag_refusal_names_its_flag(self, tmp_path, capsys, args, field, message):
        out = tmp_path / "bundle"
        code = main([*args, "--out", str(out)])
        record = assert_refused(code, out, capsys, "config", message)
        assert (record["message"], record["field"]) == (message, field)

    def test_memory_error_is_a_runtime_record(self, tmp_path, capsys, monkeypatch):
        import gravkick.analysis

        def refuse(*args, **kwargs):  # what numpy raises for an array it cannot allocate
            raise MemoryError("Unable to allocate 8.00 PiB for an array with shape (2**50,)")

        monkeypatch.setattr(gravkick.analysis, "validity_check", refuse)
        out = tmp_path / "bundle"
        code = main(["simulate", "--scenario", "fig2", "--out", str(out)])
        record = assert_refused(code, out, capsys, "runtime", "Unable to allocate")
        assert record["message"] == "Unable to allocate 8.00 PiB for an array with shape (2**50,)"

    def test_arithmetic_error_is_a_runtime_record(self, tmp_path, capsys, monkeypatch):
        import gravkick.analysis

        def overflow(*args, **kwargs):  # what math raises for a result past the doubles
            raise OverflowError("math range error")

        monkeypatch.setattr(gravkick.analysis, "validity_check", overflow)
        out = tmp_path / "bundle"
        code = main(["simulate", "--scenario", "fig2", "--out", str(out)])
        record = assert_refused(code, out, capsys, "runtime", "OverflowError")
        assert record["message"] == "OverflowError: math range error"

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


BUNDLE_COMMANDS = [
    ["simulate", "--scenario", "fig2"],
    ["feasibility", "--scenario", "caseB"],
    ["montecarlo", "--scenario", "fig2"],
    ["sweep", "--scenario", "caseB", "--axis", "M=1e-15:1e-13:3"],
]


# (label, command line, the files of its bundle) for every scenario command and flag
BUNDLE_MEMBERS = [
    ("simulate", ["simulate", "--scenario", "fig2"], ["summary.csv", "wavefunction.csv"]),
    ("simulate-svg", ["simulate", "--scenario", "fig2", "--svg"],
     ["fig2.svg", "fig2_curves.csv", "summary.csv", "wavefunction.csv"]),
    ("feasibility", ["feasibility", "--scenario", "caseB"], ["summary.csv", "sweep.csv"]),
    ("montecarlo", ["montecarlo", "--scenario", "fig2"], ["histogram.csv", "summary.csv"]),
    ("sweep", ["sweep", "--scenario", "caseB", "--axis", "M=1e-15:1e-13:3"],
     ["summary.csv", "sweep.csv"]),
    ("sweep-svg", ["sweep", "--scenario", "caseB", "--axis", "M=1e-15:1e-13:3",
                   "--axis2", "x_A=2e-7:1e-6:3", "--svg"], ["summary.csv", "sweep.csv", "sweep.svg"]),
]

class TestOutputDirDefaults:
    def test_env_var_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAVKICK_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--scenario", "fig2"]) == 0
        assert (tmp_path / "envout" / "summary.csv").exists()

    @pytest.mark.parametrize("command, files", [
        (["simulate", "--scenario", "fig2"], ["summary.csv", "wavefunction.csv"]),
        (["fig2"], ["fig2.csv", "fig2.svg"]),
    ], ids=["simulate", "fig2"])
    @pytest.mark.parametrize("env", [None, "envout"])
    def test_default_directory(self, tmp_path, capsys, monkeypatch, command, files, env):
        # $GRAVKICK_OUT, else gravkick-out in the working directory, for every command
        monkeypatch.chdir(tmp_path)
        if env:
            monkeypatch.setenv("GRAVKICK_OUT", env)
        else:
            monkeypatch.delenv("GRAVKICK_OUT", raising=False)
        assert main(command) == 0
        out = env or "gravkick-out"
        assert capsys.readouterr().out == f"wrote {', '.join(files)} to {out}\n"
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == files

    def test_out_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAVKICK_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--scenario", "fig2", "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "summary.csv").exists()
        assert not (tmp_path / "envout").exists()

    @pytest.mark.parametrize("command", BUNDLE_COMMANDS, ids=lambda command: command[0])
    @pytest.mark.parametrize("form", ["afile", "afile/sub"])
    @pytest.mark.parametrize("given", ["--out", "GRAVKICK_OUT"])
    def test_out_through_a_file_is_refused_before_the_work(self, tmp_path, capsys,
                                                           monkeypatch, command, form, given):
        import gravkick.cli

        built = []
        monkeypatch.setattr(gravkick.cli, "build_scenario", lambda doc: built.append(doc))
        (tmp_path / "afile").write_text("kept\n")
        out = str(tmp_path / form)
        if given == "--out":
            command = [*command, "--out", out]
        else:
            monkeypatch.setenv("GRAVKICK_OUT", out)
        assert main(command) == 2
        human, line = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert (record["error"], record["field"]) == ("config", "--out")
        assert record["message"] == (f"cannot make the bundle directory {out!r}: "
                                     f"{str(tmp_path / 'afile')!r} is a file")
        assert human == f"error: {record['message']}"
        assert built == []
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_text() == "kept\n"


    @pytest.mark.parametrize("command, member", [
        pytest.param(command, member, id=f"{label}-{member}")
        for label, command, files in BUNDLE_MEMBERS for member in files])
    def test_member_that_is_a_directory_is_refused_before_any_write(self, tmp_path, capsys,
                                                                     monkeypatch, command, member):
        # refused before the document is built, with every other file of the bundle kept
        import gravkick.cli

        out = tmp_path / "bundle"
        assert main([*command, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / member).unlink()
        (out / member).mkdir()
        built = []
        monkeypatch.setattr(gravkick.cli, "build_scenario", lambda doc: built.append(doc))
        capsys.readouterr()
        assert main([*command, "--out", str(out)]) == 2
        human, line = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert (record["error"], record["field"]) == ("config", "--out")
        assert record["message"] == (f"cannot write the bundle file {str(out / member)!r}: "
                                     "it is a directory")
        assert human == f"error: {record['message']}"
        assert built == []
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == {
            name: data for name, data in before.items() if name != member}
        assert list((out / member).iterdir()) == []

    @pytest.mark.parametrize("command, files", [
        pytest.param(command, files, id=label) for label, command, files in [
            *BUNDLE_MEMBERS,
            ("simulate-natural-svg", ["simulate", "--scenario", "caseB", "--units", "natural",
                                      "--svg"],
             ["fig2.svg", "fig2_curves.csv", "summary.csv", "wavefunction.csv"]),
            ("feasibility-solve", ["feasibility", "--scenario", "caseA", "--solve", "M",
                                   "--target", "1e-3"], ["summary.csv", "sweep.csv"]),
            ("fig2", ["fig2"], ["fig2.csv", "fig2.svg"]),
        ]])
    def test_checked_paths_are_the_written_files(self, tmp_path, monkeypatch, command, files):
        # the paths checked before the work, and again before the first write, are the
        # bundle's files: a member missing from the first check could end a long run
        import gravkick.cli

        checked = []
        out_dir = gravkick.cli._out_dir

        def recording(out, names=()):
            checked.append(sorted(names))
            return out_dir(out, names)

        monkeypatch.setattr(gravkick.cli, "_out_dir", recording)
        out = tmp_path / "bundle"
        path = out / "fig2.svg" if command == ["fig2"] else out
        assert main([*command, "--out", str(path)]) == 0
        assert sorted(p.name for p in out.iterdir()) == files
        assert checked == [files, files]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_output_files_take_the_umask_mode(tmp_path, umask, mode):
    # as a plain open() would create them, not mkstemp's 0o600
    previous = os.umask(umask)
    try:
        assert main(["simulate", "--scenario", "fig2", "--out", str(tmp_path / "bundle")]) == 0
        assert main(["fig2", "--out", str(tmp_path / "fig" / "fig2.svg")]) == 0
    finally:
        os.umask(previous)
    files = sorted((p for p in tmp_path.rglob("*") if p.is_file()), key=lambda p: p.name)
    assert [p.name for p in files] == ["fig2.csv", "fig2.svg", "summary.csv", "wavefunction.csv"]
    assert [p.stat().st_mode & 0o777 for p in files] == [mode] * 4


def test_presets_list(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "amplification", "caseA", "caseB"):
        assert name in out


def readme_commands():
    """The arguments of each `python -m gravkick` line in README's sh blocks, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines()]
    return [shlex.split(line.split("python -m gravkick", 1)[1])
            for line in lines if "python -m gravkick " in line]


def test_readme_usage_runs(tmp_path, capsys, monkeypatch):
    # each line exits 0 and writes the files it names where the output rule puts them
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GRAVKICK_OUT", raising=False)
    commands = readme_commands()
    assert {args[0] for args in commands} == {"simulate", "feasibility", "montecarlo", "sweep",
                                              "fig2", "presets"}
    for args in commands:
        assert main(args) == 0, args
        out = capsys.readouterr().out
        if args[0] == "presets":
            continue
        written = re.fullmatch(r"wrote (.*) to (.*)\n", out)
        assert written, (args, out)
        files, directory = set(written[1].split(", ")), written[2]
        named = args[args.index("--out") + 1] if "--out" in args else None
        if args[0] == "fig2":
            svg_path = named or os.path.join("gravkick-out", "fig2.svg")
            svg_name = os.path.basename(svg_path)
            assert (directory, files) == (os.path.dirname(svg_path),
                                          {svg_name, os.path.splitext(svg_name)[0] + ".csv"})
        else:
            assert directory == (named or "gravkick-out")
        assert all((tmp_path / directory / name).is_file() for name in files), (args, files)


# Runs `gravkick ARGS` through runpy as `python -m gravkick` does.  At exit it reports on
# stderr the collector's state and the passes that started before cli.main was called.
ENTRY_PROBE = """
import atexit, gc, json, runpy, sys

seen = {"main": False, "passes_before_main": 0, "frozen_before": gc.get_freeze_count()}

def on_call(frame, event, arg):
    called = (event, frame.f_code.co_name, frame.f_globals.get("__name__"))
    if called == ("call", "main", "gravkick.cli"):
        seen["main"] = True
        sys.setprofile(None)

def on_collect(phase, info):
    seen["passes_before_main"] += phase == "start" and not seen["main"]

def report():
    seen.update(enabled=gc.isenabled(), frozen=gc.get_freeze_count())
    print(json.dumps(seen), file=sys.stderr)

gc.collect()  # an empty generation 0: only allocations from here on can start a pass
gc.callbacks.append(on_collect)
sys.setprofile(on_call)
atexit.register(report)
sys.argv = ["gravkick", *sys.argv[1:]]
runpy.run_module("gravkick", run_name="__main__", alter_sys=True)
"""


def test_module_entry_point(capsys):
    result = run_child(["-c", ENTRY_PROBE, "presets", "list"])
    assert result.returncode == 0
    assert main(["presets", "list"]) == 0
    assert result.stdout == capsys.readouterr().out
    # the imports ran with the collector paused and were frozen; it is back on for main
    state = json.loads(result.stderr.splitlines()[-1])
    assert state["main"] and state["enabled"] and state["frozen"] > state["frozen_before"]
    assert state["passes_before_main"] == 0


def run_child(args):
    """`python args...` on the copy of the package these tests import, whether or not
    PYTHONPATH names it."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env())


# Runs `gravkick ARGS` as `python -m gravkick` does; at exit it prints on stderr the gravkick
# modules the process loaded.
MODULES_PROBE = """
import atexit, json, runpy, sys

atexit.register(lambda: print(json.dumps(sorted(
    name.removeprefix("gravkick.") for name in sys.modules if name.startswith("gravkick."))),
    file=sys.stderr))
sys.argv = ["gravkick", *sys.argv[1:]]
runpy.run_module("gravkick", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("args, loaded, absent", [
    (["presets", "list"], [], ["protocol", "wavepacket", "feasibility", "montecarlo", "analysis",
                               "svg"]),
    (["feasibility", {k: v for k, v in CASE_B_DOC.items() if k != "montecarlo"}],
     ["protocol", "wavepacket", "feasibility"], ["analysis", "montecarlo", "svg"]),
    (["simulate", PHASED_DOC], ["protocol", "wavepacket", "analysis"],
     ["feasibility", "montecarlo", "svg"]),
    (["simulate", "--scenario", "fig2"], ["protocol", "wavepacket", "analysis"],
     ["feasibility", "montecarlo", "svg"]),
    (["fig2"], ["protocol", "wavepacket", "svg"], ["analysis", "feasibility", "montecarlo"]),
], ids=["presets-list", "feasibility-gain", "simulate-natural", "simulate-fig2", "fig2"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, args, loaded, absent):
    # a gain source without a montecarlo section, and a natural one, reach neither the
    # modules of the other commands nor the figure's; nor does a preset's montecarlo section,
    # which only the montecarlo command reads
    args = [doc_path(tmp_path, arg) if isinstance(arg, dict) else arg for arg in args]
    if args[0] != "presets":
        args += ["--out", str(tmp_path / "out")]
    result = run_child(["-c", MODULES_PROBE, *args])
    assert result.returncode == 0, result.stderr
    modules = set(json.loads(result.stderr.splitlines()[-1]))
    assert {"cli", "config", "output", "units"} | set(loaded) <= modules
    assert not modules & set(absent)


@pytest.mark.parametrize("key, value, message", [
    ("trials", 0, "0 is less than the minimum of 1"),
    ("trials", 2**63, f"{2**63} is greater than the maximum of {2**63 - 1}"),
    ("seed", -1, "-1 is less than the minimum of 0"),
    ("seed", 2**128, f"{2**128} is greater than the maximum of {2**128 - 1}"),
    ("bins", 0, "0 is less than the minimum of 1"),
], ids=["trials-0", "trials-2**63", "seed-negative", "seed-2**128", "bins-0"])
def test_simulate_refuses_an_out_of_range_montecarlo_section(tmp_path, capsys, key, value,
                                                             message):
    # simulate never builds the run configuration; the schema refuses what RunConfig would
    doc = load_preset("fig2")
    doc["montecarlo"][key] = value
    out = tmp_path / "out"
    code = main(["simulate", doc_path(tmp_path, doc), "--out", str(out)])
    record = assert_refused(code, out, capsys, "config", message)
    assert record == {"error": "config", "message": f"config field montecarlo.{key}: {message}",
                      "field": f"montecarlo.{key}"}


@pytest.mark.parametrize("axis, code, kind, message, field", [
    ("M=-1e308:1e308:3", 2, "config", "M axis span stop - start must be finite, got inf",
     "--axis"),
    ("M=1e-300:2e-300:3", 1, "runtime",
     "delta_b underflows the double range; the inputs are too extreme", None),
], ids=["overflowing-span", "underflowing-kicks"])
def test_sweep_refusal_warns_nothing(tmp_path, axis, code, kind, message, field):
    # numpy would warn before the record; a RuntimeWarning raised as an error would end in a
    # traceback with no record
    out = tmp_path / "bundle"
    result = run_child(["-W", "error::RuntimeWarning", "-m", "gravkick", "sweep", "--scenario",
                        "caseB", "--axis", axis, "--out", str(out)])
    assert (result.returncode, result.stdout) == (code, "")
    assert not out.exists()
    human, line = result.stderr.strip().splitlines()
    record = json.loads(line)
    assert (record["error"], record["message"], record.get("field")) == (kind, message, field)
    assert human == f"error: {message}"


def test_cli_module_is_not_an_entry_point(tmp_path):
    # `python -m gravkick.cli` would bypass gravkick.__main__; it is refused, loudly
    out = tmp_path / "bundle"
    result = run_child(["-m", "gravkick.cli", "simulate", "--scenario", "fig2", "--out",
                        str(out)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert not out.exists()
    human, line = result.stderr.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "usage"
    assert "python -m gravkick`" in record["message"]
    assert human == f"error: {record['message']}"
