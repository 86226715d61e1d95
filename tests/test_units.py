import argparse
import io

import numpy as np
import pytest

from gravkick.cli import _momentum_unit, build_parser
from gravkick.config import CONFIG_SCHEMA, ConfigError, build_scenario, load_preset
from gravkick.units import G, HBAR, UNITS
from gravkick.wavepacket import GridPacket, to_csv

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
    unit = _momentum_unit(built, "natural")
    assert unit == HBAR / CASE_A_DOC["probe"]["W"]
    assert (HBAR / 1e-5) / unit == pytest.approx(1.0, rel=1e-12)


def test_si_to_si_is_identity():
    assert _momentum_unit(build_scenario(CASE_A_DOC), "si") == 1.0


def test_missing_width_rejected():
    # a natural-unit scenario states no W, so nothing anchors it to SI
    with pytest.raises(ConfigError, match="SI anchor"):
        _momentum_unit(build_scenario(load_preset("fig2")), "si")


def test_unit_system_is_dimensionally_consistent():
    # one natural momentum unit times one natural length unit is hbar, which is 1
    built = build_scenario(CASE_A_DOC)
    assert _momentum_unit(built, "natural") * built.params.W == pytest.approx(
        HBAR, rel=1e-15)


def test_units_is_the_one_list_of_unit_names():
    assert UNITS == ("si", "natural")
    assert CONFIG_SCHEMA["properties"]["units"]["enum"] == list(UNITS)
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    flag = next(a for a in subcommands.choices["simulate"]._actions if a.dest == "units")
    assert tuple(flag.choices) == UNITS


def test_to_csv_accepts_exactly_the_unit_names():
    packet = GridPacket(p=np.linspace(-1.0, 1.0, 16), amps=np.ones(16, dtype=complex))
    for units in UNITS:
        buf = io.StringIO()
        to_csv(packet, buf, units=units)
        assert buf.getvalue().startswith(f"# units={units}, W=1.0\n")
    for units in ("SI", "Natural", "natural ", ""):
        with pytest.raises(ValueError) as exc:
            to_csv(packet, io.StringIO(), units=units)
        assert str(exc.value) == f"units must be 'natural' or 'si', got {units!r}"
