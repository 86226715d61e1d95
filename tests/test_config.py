import json
import math
import random
import types
from importlib import resources

import numpy as np
import pytest

import gravkick.config
from gravkick import protocol
from gravkick.analysis import weak_value_report
from gravkick.config import (
    ConfigError,
    PRESET_NAMES,
    build_scenario,
    load_config,
    load_preset,
    preset_descriptions,
    validate_config,
)
from gravkick.feasibility import amplitudes_for_gain, evaluate_case
from gravkick.montecarlo import DEFAULT_HISTOGRAM_BINS, MAX_SEED, MAX_TRIALS, RunConfig
from gravkick.wavepacket import DEFAULT_GRID_POINTS, MIN_GRID_POINTS, GridPacket

from . import oracles
from .refvals import AMP_GAIN, CASE_A_DOC, CASE_B_DOC, FIG2_ALPHA


def assert_case_is_fresh(built):
    """`built.case` is, bit for bit, a fresh evaluation of its point and the document's weights."""
    s = built.scenario
    fresh = evaluate_case(built.params, s.post, (s.phi_a, s.phi_b))
    assert ({name: (column.dtype, column.tobytes()) for name, column in built.case.items()}
            == {name: (column.dtype, column.tobytes()) for name, column in fresh.items()})


def minimal_natural(**overrides):
    doc = {
        "units": "natural",
        "source": {"beta": 0.9},
        "kicks": {"delta_A": 0.7, "delta_B": 0.1},
    }
    doc.update(overrides)
    return doc


class TestValidation:
    def test_all_presets_validate_and_build(self):
        for name, description in preset_descriptions():
            build_scenario(load_preset(name))
            assert description

    def test_missing_source_reports_path(self):
        with pytest.raises(ConfigError, match=r"\(root\)"):
            validate_config({"kicks": {"delta_A": 0.7, "delta_B": 0.1}})

    def test_wrong_type_reports_field(self):
        doc = minimal_natural()
        doc["kicks"]["delta_A"] = "big"
        with pytest.raises(ConfigError, match="kicks"):
            validate_config(doc)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(minimal_natural(extra={"x": 1}))

    def test_mixed_kick_forms_rejected(self):
        doc = minimal_natural()
        doc["kicks"]["M"] = 1e-14
        with pytest.raises(ConfigError, match="kicks"):
            validate_config(doc)

    def test_units_mismatch_explicit_kicks(self):
        with pytest.raises(ConfigError, match="natural"):
            build_scenario(minimal_natural(units="si"))

    def test_units_mismatch_physical_kicks(self):
        with pytest.raises(ConfigError, match="^physical kick parameters are stated in SI$") as e:
            build_scenario({**CASE_B_DOC, "units": "natural"})
        assert e.value.field == "units"

    def test_si_requires_probe_width(self):
        doc = {
            "units": "si",
            "source": {"gain": 100},
            "kicks": {"M": 1e-14, "m": 1e-20, "T": 0.5, "x_A": 4e-7, "x_B": 1.3e-6},
        }
        with pytest.raises(ConfigError, match="probe.W"):
            build_scenario(doc)

    def test_inconsistent_amplitudes_rejected(self):
        doc = minimal_natural()
        doc["source"] = {"alpha": 0.9, "beta": 0.9}
        with pytest.raises(ConfigError, match="alpha"):
            build_scenario(doc)

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "source": {,}\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))


    @pytest.mark.parametrize("text, key", [
        ('{"source": {"beta": 0.9, "beta": 0.1}, "kicks": {"delta_A": 0.7, "delta_B": 0.1}}',
         "source.beta"),
        ('{"kicks": {"delta_A": 0.7, "delta_B": 0.1}, "source": {"beta": 0.9}, "kicks": {}}',
         "kicks"),
        ('{"source": {"beta": 0.9}, "kicks": {"delta_A": 0.7, "delta_B": 0.1}, "postselection": '
         '{"amp_A": [{"re": 1, "re": 2}, 0], "amp_B": 1}}', "postselection.amp_A.0.re"),
    ], ids=["nested", "top-level", "in-array"])
    def test_repeated_key_refused(self, tmp_path, text, key):
        path = tmp_path / "repeated.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value) == f"config key {key!r} is given more than once in one object"
        assert exc.value.field == key

    def test_non_utf8_file_is_a_config_error(self, tmp_path, capsys):
        from gravkick.cli import main

        path = tmp_path / "latin1.json"
        head = b'{"units": "natural",\n"description": "caf'  # then a Latin-1 e-acute
        path.write_bytes(head + b'\xe9",\n"source": {"beta": 0.9}, '
                                b'"kicks": {"delta_A": 0.7, "delta_B": 0.1}}')
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value) == f"invalid UTF-8 at line 2: byte 0xe9 at offset {len(head)}"
        assert exc.value.field == "line 2"
        assert main(["simulate", str(path), "--out", str(tmp_path / "bundle")]) == 2
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (record["error"], record["field"]) == ("config", "line 2")

    @pytest.mark.parametrize("name, reason", [("adir", "Is a directory"),
                                              ("missing.json", "No such file or directory")])
    def test_unreadable_config_path_is_a_config_error(self, tmp_path, capsys, name, reason):
        from gravkick.cli import main

        (tmp_path / "adir").mkdir()
        path = str(tmp_path / name)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"cannot read config file {path!r}: {reason}"
        assert exc.value.field == "config"
        assert main(["simulate", path, "--out", str(tmp_path / "bundle")]) == 2
        human, line = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert (record["error"], record["field"]) == ("config", "config")
        assert human == f"error: cannot read config file {path!r}: {reason}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]

    def test_alpha_needs_beta(self):
        with pytest.raises(ConfigError) as exc:
            build_scenario({**CASE_B_DOC, "source": {"gain": 100, "alpha": 0.123}})
        assert str(exc.value) == "config field source: 'beta' is a dependency of 'alpha'"
        assert exc.value.field == "source"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_named(self, tmp_path, literal):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_natural()).replace("0.7", literal))
        with pytest.raises(ConfigError, match=f"^invalid JSON: {literal} is not"):
            load_config(str(path))

    @pytest.mark.parametrize("section, key, last, past", [
        ("probe", "grid_points", MIN_GRID_POINTS, MIN_GRID_POINTS - 1),
        ("montecarlo", "trials", MAX_TRIALS, MAX_TRIALS + 1),
        ("montecarlo", "seed", MAX_SEED, MAX_SEED + 1),
    ], ids=["grid_points", "trials", "seed"])
    def test_schema_bounds_are_the_library_bounds(self, section, key, last, past):
        # the schema accepts the last value the library takes and refuses the next one
        scenario = build_scenario(load_preset("fig2")).scenario
        library = {
            "grid_points": lambda n: GridPacket(p=np.linspace(-1.0, 1.0, n), amps=np.zeros(n)),
            "trials": lambda n: RunConfig(scenario, trials=n, seed=0),
            "seed": lambda n: RunConfig(scenario, trials=1, seed=n),
        }[key]
        doc = load_preset("fig2")
        doc[section][key] = last
        validate_config(doc)
        library(last)
        doc[section][key] = past
        with pytest.raises(ConfigError) as exc:
            validate_config(doc)
        assert exc.value.field == f"{section}.{key}"
        with pytest.raises(ValueError):
            library(past)


class TestAssembly:
    def test_alpha_derived_from_beta(self):
        built = build_scenario(minimal_natural())
        assert built.scenario.pre.amp_a == pytest.approx(FIG2_ALPHA, abs=1e-15)
        assert built.units == "natural"
        assert built.scenario.probe.hbar == 1.0

    def test_gain_derived_from_amplitudes(self):
        doc = minimal_natural(source={"beta": 0.7074067811865474})
        doc["kicks"] = {"delta_A": 1e-5, "delta_B": 1e-6}
        s = build_scenario(doc).scenario
        alpha, beta = s.pre.amp_a.real, s.pre.amp_b.real
        assert -oracles.effective_kick(alpha, beta, s.delta_a, s.delta_b) / s.delta_a == (
            pytest.approx(AMP_GAIN, rel=1e-12))

    def test_gain_specified_source(self):
        built = build_scenario(CASE_B_DOC)
        alpha, beta = built.scenario.pre.amp_a.real, built.scenario.pre.amp_b.real
        assert beta > alpha > 0
        assert alpha**2 + beta**2 == pytest.approx(1.0, abs=1e-14)
        assert built.params is not None
        assert built.params.T == 0.5

    def test_explicit_postselection_amplitudes(self):
        doc = minimal_natural(postselection={"amp_A": [-1.0, 0.0], "amp_B": 1.0})
        built = build_scenario(doc)
        assert built.scenario.post.amp_a == pytest.approx(-1 / math.sqrt(2))
        assert built.scenario.post.amp_b == pytest.approx(1 / math.sqrt(2))

    @pytest.mark.parametrize("amps", [{"amp_A": 0, "amp_B": 0}, {"amp_A": [0, 0], "amp_B": 0.0}])
    def test_zero_postselection_amplitudes_are_a_config_error(self, tmp_path, capsys, amps):
        from gravkick.cli import main

        doc = minimal_natural(postselection=amps)
        with pytest.raises(ConfigError) as exc:
            build_scenario(doc)
        assert exc.value.field == "postselection"
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "bundle")]) == 2
        human, line = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert (record["error"], record["field"]) == ("config", "postselection")
        assert record["message"] == ("config field postselection: amplitudes must be finite "
                                     "and not both zero")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["zero.json"]

    def test_tiny_and_huge_postselection_amplitudes_build(self):
        for amp_a, amp_b in [(1e-200, 0), (1e-170, 1e-170), (1e200, 1), (1e308, 1e308)]:
            post = build_scenario(minimal_natural(
                postselection={"amp_A": amp_a, "amp_B": amp_b})).scenario.post
            assert abs(post.amp_a) ** 2 + abs(post.amp_b) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_phases_threaded_through(self):
        doc = minimal_natural(phases={"phi_A": 0.4, "phi_B": -0.1})
        built = build_scenario(doc)
        assert built.scenario.phi_a == 0.4
        # paper-default postselection carries the matching phases
        assert built.scenario.post.amp_a == pytest.approx(
            -complex(math.cos(0.4), math.sin(0.4)) / math.sqrt(2)
        )

    def test_montecarlo_settings(self):
        built = build_scenario(load_preset("fig2"))
        assert built.mc.trials == 100000
        assert built.mc.seed == 42

    def test_montecarlo_section_builds_the_run_config(self):
        doc = minimal_natural(montecarlo={"trials": 10, "seed": 3})
        built = build_scenario(doc)
        assert built.mc == RunConfig(scenario=built.scenario, trials=10, seed=3,
                                     bins=DEFAULT_HISTOGRAM_BINS, grid_points=DEFAULT_GRID_POINTS)
        assert build_scenario(minimal_natural()).mc is None

    def test_trials_stop_at_the_int64_range_of_the_binomial_count(self):
        built = build_scenario(minimal_natural(montecarlo={"trials": 2**63 - 1, "seed": 3}))
        assert built.mc.trials == 2**63 - 1
        with pytest.raises(ConfigError) as exc:
            build_scenario(minimal_natural(montecarlo={"trials": 2**63, "seed": 3}))
        assert exc.value.field == "montecarlo.trials"
        assert str(exc.value).startswith("config field montecarlo.trials: ")
        with pytest.raises(ValueError, match=r"trials must be in \[1, 2\*\*63\)"):
            RunConfig(scenario=built.scenario, trials=2**63, seed=3)

    def test_beta_source_carries_its_gain_into_params(self):
        built = build_scenario({**CASE_B_DOC, "source": {"beta": 0.9}})
        s = built.scenario
        assert built.params.g == weak_value_report(s.pre, s.post, s.delta_a, s.delta_b).gain > 0
        assert_case_is_fresh(built)
        case = built.case
        assert case["ps_prob"] == pytest.approx(protocol.run(s).probability, rel=1e-12)
        assert case["ratio"] == pytest.approx(-built.params.g * s.delta_a / s.probe.sigma, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.7075, 0.9])
    def test_beta_source_gain_is_the_simulate_gain(self, beta):
        # for these two sources, g is bit for bit the `gain` row of `simulate`, which reads
        # the same report
        built = build_scenario({**CASE_B_DOC, "source": {"beta": beta}})
        s = built.scenario
        assert built.params.g == weak_value_report(s.pre, s.post, s.delta_a, s.delta_b).gain

    def test_random_beta_source_gains_are_the_simulate_gain_to_rounding(self):
        # g takes delta_B/delta_A as (x_A/x_B)^2, the `gain` row from the kicks G M m T / x^2;
        # those ratios differ in their last bit.  The gap reached 3 ulp over 6,000 documents
        # drawn as these are; near zero gain with x_B close to x_A, the gain's cancellation in
        # alpha - beta delta_B/delta_A takes it past 20 ulp.
        rng = random.Random(4200)
        for _ in range(240):
            base = rng.choice((CASE_A_DOC, CASE_B_DOC))
            kicks = {**base["kicks"], "M": base["kicks"]["M"] * 10 ** rng.uniform(-1.0, 1.0)}
            kicks["x_B"] = kicks["x_A"] * rng.uniform(2.0, 5.0)  # sqrt(10) in both presets
            gain = 10 ** rng.uniform(1.0, 4.0)  # caseB's 100 and caseA's 1000 included
            _, beta = amplitudes_for_gain(gain, (kicks["x_A"] / kicks["x_B"]) ** 2)
            built = build_scenario({**base, "kicks": kicks, "source": {"beta": float(beta)}})
            s = built.scenario
            row = weak_value_report(s.pre, s.post, s.delta_a, s.delta_b).gain
            assert abs(built.params.g - row) <= 4 * math.ulp(row), (kicks, beta)

    @pytest.mark.parametrize("extra", [
        {"postselection": {"amp_A": 0.6, "amp_B": 0.8}},
        {"postselection": {"amp_A": [0.3, -0.5], "amp_B": [0.7, 0.2]},
         "phases": {"phi_A": 0.4, "phi_B": -1.1}},
    ], ids=["real", "complex-phased"])
    def test_feasibility_weights_come_from_the_document(self, extra):
        built = build_scenario({**CASE_B_DOC, **extra})
        assert_case_is_fresh(built)
        (ps_prob,) = built.case["ps_prob"]
        assert ps_prob == pytest.approx(protocol.run(built.scenario).probability, rel=1e-12)

    @pytest.mark.parametrize("doc", [
        load_preset("caseA"),
        load_preset("caseB"),
        {**CASE_B_DOC, "kicks": {**CASE_B_DOC["kicks"], "T": None}},
        {**CASE_B_DOC, "source": {"alpha": 0.7067133, "beta": 0.7075}},
        {**CASE_B_DOC, "source": {"beta": 0.7075}, "phases": {"phi_A": 0.4, "phi_B": -0.3}},
    ], ids=["caseA", "caseB", "default-T", "alpha-beta", "phased-beta"])
    def test_built_case_is_a_fresh_evaluation(self, doc):
        # feasibility writes this case; a natural document has none
        assert_case_is_fresh(build_scenario(doc))
        assert build_scenario(minimal_natural()).case is None

    @pytest.mark.parametrize("source, reason", [
        ({"beta": 0.999}, "realises gain -0.05783339705044428"),
        ({"alpha": 0.7071067811865476, "beta": 0.7071067811865476},
         "= alpha leaves the source orthogonal to the paper postselection"),
    ], ids=["source0", "source1"])
    def test_si_beta_source_without_a_nonnegative_gain_rejected(self, source, reason):
        with pytest.raises(ConfigError) as exc:
            build_scenario({**CASE_B_DOC, "source": source})
        assert str(exc.value) == f"source.beta {reason}; SI scenarios need gain >= 0"
        assert exc.value.field == "source.beta"

    @pytest.mark.parametrize("overrides, field, message", [
        ({"source": {"beta": 1.5}}, "source.beta", "beta must be in [-1, 1] when alpha is derived"),
        ({"source": {"gain": 10}, "kicks": {"delta_A": 0.1, "delta_B": 0.7}}, "source.gain",
         "gain-specified sources need kicks with 0 < delta_B/delta_A < 1"),
    ], ids=["beta-above-1", "gain-with-delta_B-above-delta_A"])
    def test_natural_source_refusal_names_its_field(self, overrides, field, message):
        with pytest.raises(ConfigError) as exc:
            build_scenario(minimal_natural(**overrides))
        assert (str(exc.value), exc.value.field) == (message, field)

    @pytest.mark.parametrize("source", [
        {"beta": 0.999},
        {"alpha": 0.7071067811865476, "beta": 0.7071067811865476},
    ])
    def test_natural_beta_source_without_a_nonnegative_gain_builds(self, source):
        built = build_scenario(minimal_natural(source=source))
        assert built.params is None
        assert built.scenario.pre.amp_b == pytest.approx(source["beta"])

    def test_preset_listing(self):
        names = [name for name, _ in preset_descriptions()]
        assert names == list(PRESET_NAMES)

    def test_si_kicks_from_physical_parameters(self):
        built = build_scenario(CASE_B_DOC)
        assert built.scenario.delta_a == pytest.approx(2.08571875e-32, rel=1e-12)
        assert built.scenario.delta_b == pytest.approx(2.08571875e-33, rel=1e-12)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            load_preset("fig3")

    def test_round_trip_via_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_natural()))
        built = build_scenario(load_config(str(path)))
        assert built.scenario.delta_a == 0.7


class TestPresetReader:
    """Presets go through the strict reader of config files, the four hooks included."""

    @staticmethod
    def shipped(name):
        return resources.files("gravkick").joinpath(f"presets/{name}.json").read_text("utf-8")

    @staticmethod
    def serve(monkeypatch, tmp_path, name, text):
        """Make `load_preset(name)` read `text` in place of the shipped file."""
        (tmp_path / "presets").mkdir(exist_ok=True)
        (tmp_path / "presets" / f"{name}.json").write_text(text, encoding="utf-8")
        monkeypatch.setattr(gravkick.config, "resources", types.SimpleNamespace(
            files=lambda package: tmp_path, as_file=resources.as_file))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_parses_as_a_config_file(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(self.shipped(name), encoding="utf-8")
        doc = load_preset(name)
        assert doc == load_config(str(path)) == json.loads(self.shipped(name))
        assert json.dumps(doc) == json.dumps(json.loads(self.shipped(name)))  # int stays int

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("insert, message, field", [
        ('"grid": 1, "grid": 2, ', "config key 'source.grid' is given more than once",
         "source.grid"),
        ('"grid": NaN, ', "invalid JSON: NaN is not a finite number", ""),
        ('"grid": 1e400, ', "invalid JSON: 1e400 overflows the double range", ""),
    ], ids=["repeated-key", "nan", "overflow"])
    def test_malformed_preset_is_refused(self, monkeypatch, tmp_path, name, insert, message,
                                         field):
        text = self.shipped(name)
        assert text.count('"source": {') == 1
        self.serve(monkeypatch, tmp_path, name, text.replace('"source": {', '"source": {' + insert))
        with pytest.raises(ConfigError) as exc:
            load_preset(name)
        assert str(exc.value).startswith(message)
        assert exc.value.field == field

    def test_repeated_top_level_key_in_a_preset_is_refused(self, monkeypatch, tmp_path):
        text = self.shipped("fig2").rstrip()
        self.serve(monkeypatch, tmp_path, "fig2", text[:-1] + ', "kicks": {}}')
        with pytest.raises(ConfigError) as exc:
            load_preset("fig2")
        assert exc.value.field == "kicks"
