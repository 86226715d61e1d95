import pytest

from gravkick.cli import _momentum_unit
from gravkick.config import ConfigError, build_scenario, load_preset
from gravkick.units import G, HBAR, UnitSystem

from .refvals import CASE_A_DOC, MOMENTUM_UNIT_W_1E5


def test_constants_are_fixed():
    assert G == 6.67430e-11
    assert HBAR == 1.054571817e-34


def test_natural_momentum_unit_to_si():
    # the probe of an SI scenario has momentum spread hbar/W: one natural momentum unit
    built = build_scenario(CASE_A_DOC)
    assert built.scenario.probe.sigma == pytest.approx(MOMENTUM_UNIT_W_1E5, rel=1e-12)


def test_si_momentum_unit_to_natural():
    built = build_scenario(CASE_A_DOC)
    unit = _momentum_unit(built, UnitSystem.NATURAL)
    assert unit == HBAR / CASE_A_DOC["probe"]["W"]
    assert (HBAR / 1e-5) / unit == pytest.approx(1.0, rel=1e-12)


def test_si_to_si_is_identity():
    assert _momentum_unit(build_scenario(CASE_A_DOC), UnitSystem.SI) == 1.0


def test_missing_width_rejected():
    # a natural-unit scenario states no W, so nothing anchors it to SI
    with pytest.raises(ConfigError, match="SI anchor"):
        _momentum_unit(build_scenario(load_preset("fig2")), UnitSystem.SI)


def test_unit_system_is_dimensionally_consistent():
    # one natural momentum unit times one natural length unit is hbar, which is 1
    built = build_scenario(CASE_A_DOC)
    assert _momentum_unit(built, UnitSystem.NATURAL) * built.params.W == pytest.approx(
        HBAR, rel=1e-15)
