import json
import math

import pytest

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
from gravkick.feasibility import evaluate_case
from gravkick.montecarlo import DEFAULT_HISTOGRAM_BINS, RunConfig
from gravkick.units import UnitSystem
from gravkick.wavepacket import DEFAULT_GRID_POINTS

from . import oracles
from .refvals import AMP_GAIN, CASE_B_DOC, FIG2_ALPHA


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


    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_named(self, tmp_path, literal):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_natural()).replace("0.7", literal))
        with pytest.raises(ConfigError, match=f"^invalid JSON: {literal} is not"):
            load_config(str(path))

class TestAssembly:
    def test_alpha_derived_from_beta(self):
        built = build_scenario(minimal_natural())
        assert built.scenario.pre.amp_a == pytest.approx(FIG2_ALPHA, abs=1e-15)
        assert built.units is UnitSystem.NATURAL
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

    def test_beta_source_carries_its_gain_into_params(self):
        built = build_scenario({**CASE_B_DOC, "source": {"beta": 0.9}})
        s = built.scenario
        assert built.params.g == weak_value_report(s.pre, s.post, s.delta_a, s.delta_b).gain > 0
        case = evaluate_case(built.params)
        assert case.ps_prob == pytest.approx(protocol.run(s).probability, rel=1e-12)
        assert case.ratio == pytest.approx(-built.params.g * s.delta_a / s.probe.sigma, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.7075, 0.9])
    def test_beta_source_gain_is_the_simulate_gain(self, beta):
        # bit for bit the `gain` row of `simulate`, which reads the same report
        built = build_scenario({**CASE_B_DOC, "source": {"beta": beta}})
        s = built.scenario
        assert built.params.g == weak_value_report(s.pre, s.post, s.delta_a, s.delta_b).gain

    @pytest.mark.parametrize("extra", [
        {"postselection": {"amp_A": 0.6, "amp_B": 0.8}},
        {"postselection": {"amp_A": [0.3, -0.5], "amp_B": [0.7, 0.2]},
         "phases": {"phi_A": 0.4, "phi_B": -1.1}},
    ], ids=["real", "complex-phased"])
    def test_feasibility_weights_come_from_the_document(self, extra):
        built = build_scenario({**CASE_B_DOC, **extra})
        s = built.scenario
        (case,) = evaluate_case(built.params, s.post, (s.phi_a, s.phi_b))
        assert case.ps_prob == pytest.approx(protocol.run(s).probability, rel=1e-12)

    @pytest.mark.parametrize("source, reason", [
        ({"beta": 0.999}, "realises gain -0.05783339705044427"),
        ({"alpha": 0.7071067811865476, "beta": 0.7071067811865476},
         "= alpha leaves the source orthogonal to the paper postselection"),
    ], ids=["source0", "source1"])
    def test_si_beta_source_without_a_nonnegative_gain_rejected(self, source, reason):
        with pytest.raises(ConfigError) as exc:
            build_scenario({**CASE_B_DOC, "source": source})
        assert str(exc.value) == f"source.beta {reason}; SI scenarios need gain >= 0"
        assert exc.value.field == "source.beta"

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
