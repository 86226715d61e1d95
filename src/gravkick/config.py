"""Scenario configuration: JSON schema, presets, and scenario assembly.

A scenario document specifies the source superposition, the probe packet,
the branch kicks (explicitly in natural units, or via physical parameters in
SI) and the postselection.  Validation reports the offending field path so
batch users can fix configs without reading tracebacks.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources

import jsonschema

from . import protocol
from .analysis import weak_value_report
from .feasibility import ProtocolParams, amplitudes_for_gain, delta_kick
from .montecarlo import DEFAULT_HISTOGRAM_BINS, RunConfig
from .units import HBAR, UnitSystem
from .wavepacket import DEFAULT_GRID_POINTS, GaussianPacket

_COMPLEX_ENTRY = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["source", "kicks"],
    "properties": {
        "description": {"type": "string"},
        "units": {"enum": ["si", "natural"]},
        "source": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha": {"type": "number"},
                "beta": {"type": "number"},
                "gain": {"type": "number", "minimum": 0},
            },
            "oneOf": [
                {"required": ["beta"]},
                {"required": ["gain"]},
            ],
        },
        "probe": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "W": {"type": "number", "exclusiveMinimum": 0},
                "grid_points": {"type": "integer", "minimum": 16},
            },
        },
        "kicks": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["delta_A", "delta_B"],
                    "properties": {
                        "delta_A": {"type": "number"},
                        "delta_B": {"type": "number"},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["M", "m", "x_A", "x_B"],
                    "properties": {
                        "M": {"type": "number", "exclusiveMinimum": 0},
                        "m": {"type": "number", "exclusiveMinimum": 0},
                        "T": {"type": ["number", "null"], "exclusiveMinimum": 0},
                        "x_A": {"type": "number", "exclusiveMinimum": 0},
                        "x_B": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            ]
        },
        "postselection": {
            "oneOf": [
                {"const": "paper-default"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["amp_A", "amp_B"],
                    "properties": {
                        "amp_A": _COMPLEX_ENTRY,
                        "amp_B": _COMPLEX_ENTRY,
                    },
                },
            ]
        },
        "phases": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "phi_A": {"type": "number"},
                "phi_B": {"type": "number"},
            },
        },
        "montecarlo": {
            "type": "object",
            "additionalProperties": False,
            "required": ["trials", "seed"],
            "properties": {
                "trials": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0, "maximum": 2**128 - 1},  # a Philox key
                "bins": {"type": "integer", "minimum": 1},
            },
        },
    },
}

PRESET_NAMES = ("fig2", "amplification", "caseA", "caseB")


class ConfigError(ValueError):
    """Invalid scenario document; carries the offending field path."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


def _refuse_constant(literal: str):
    raise ConfigError(f"invalid JSON: {literal} is not a finite number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):  # 1e400 parses to inf
        raise ConfigError(f"invalid JSON: {literal} overflows the double range")
    return value


def _double_int(literal: str) -> int:
    _finite_float(literal)  # a 401-digit integer parses to inf as well
    return int(literal)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_refuse_constant, parse_float=_finite_float,
                             parse_int=_double_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            field=f"line {exc.lineno}",
        ) from exc


def load_preset(name: str) -> dict:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = resources.files("gravkick").joinpath(f"presets/{name}.json").read_text("utf-8")
    return json.loads(text)


def preset_descriptions() -> list[tuple[str, str]]:
    return [(name, load_preset(name).get("description", "")) for name in PRESET_NAMES]


def validate_config(doc: dict) -> None:
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: len(list(e.absolute_path)))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        path = ".".join(str(part) for part in err.absolute_path) or "(root)"
        raise ConfigError(f"config field {path}: {err.message}", field=path)


def _refuse_square_out_of_range(value: float, field: str, name: str) -> None:
    """The kicks divide by x^2, and the probe's normalisation and statistics take sigma^2."""
    if not sys.float_info.min <= value * value < math.inf:
        raise ConfigError(f"config field {field}: {name} = {value!r} squares outside the double "
                          "range", field=field)


def _as_complex(entry) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry, 0.0)
    return complex(entry[0], entry[1])


@dataclass(frozen=True)
class BuiltScenario:
    """A validated config resolved into protocol-ready objects."""

    scenario: protocol.Scenario
    units: UnitSystem
    grid_points: int
    params: ProtocolParams | None  # physical parameters for SI scenarios
    mc: RunConfig | None


def build_scenario(doc: dict) -> BuiltScenario:
    """Validate and assemble a scenario document."""
    validate_config(doc)

    kicks = doc["kicks"]
    explicit = "delta_A" in kicks
    units = UnitSystem(doc.get("units", "natural" if explicit else "si"))
    if (units == UnitSystem.NATURAL) != explicit:
        raise ConfigError("explicit kicks are stated in natural units" if explicit
                          else "physical kick parameters are stated in SI", field="units")

    probe_sec = doc.get("probe", {})
    if units == UnitSystem.SI and "W" not in probe_sec:
        raise ConfigError("SI scenarios need probe.W in meters", field="probe.W")
    width = float(probe_sec.get("W", 1.0))
    grid_points = int(probe_sec.get("grid_points", DEFAULT_GRID_POINTS))
    hbar = HBAR if units == UnitSystem.SI else 1.0
    _refuse_square_out_of_range(hbar / width, "probe.W", "hbar/W")
    probe = GaussianPacket(0.0, width, hbar)

    params: ProtocolParams | None = None
    gain = doc["source"].get("gain")
    if explicit:
        delta_a = float(kicks["delta_A"])
        delta_b = float(kicks["delta_B"])
    else:
        for name in ("x_A", "x_B"):
            _refuse_square_out_of_range(float(kicks[name]), f"kicks.{name}", name)
        if not kicks["x_A"] < kicks["x_B"]:
            raise ConfigError(f"config field kicks.x_B: x_B = {kicks['x_B']!r} must exceed "
                              f"x_A = {kicks['x_A']!r}", field="kicks.x_B")
        params = ProtocolParams(
            M=float(kicks["M"]),
            m=float(kicks["m"]),
            x_A=float(kicks["x_A"]),
            x_B=float(kicks["x_B"]),
            W=width,
            g=float(gain if gain is not None else 0.0),  # a beta source sets g below
            T=kicks.get("T"),
        )
        delta_a = delta_kick(params.M, params.m, params.T, params.x_A)
        delta_b = delta_kick(params.M, params.m, params.T, params.x_B)
        if not (delta_a < math.inf and delta_b >= sys.float_info.min):  # delta_B < delta_A
            raise ConfigError(f"config field kicks: G M m T / x^2 gives delta_A = {delta_a!r} "
                              f"and delta_B = {delta_b!r}, outside the double range",
                              field="kicks")

    if gain is not None:
        if delta_a == 0.0 or not 0.0 < delta_b / delta_a < 1.0:
            raise ConfigError(
                "gain-specified sources need kicks with 0 < delta_B/delta_A < 1",
                field="source.gain",
            )
        alpha, beta = amplitudes_for_gain(float(gain), delta_b / delta_a)
    else:
        beta = float(doc["source"]["beta"])
        if "alpha" in doc["source"]:
            alpha = float(doc["source"]["alpha"])
            norm = alpha * alpha + beta * beta
            if abs(norm - 1.0) > 1e-6:
                raise ConfigError(
                    f"source amplitudes have |alpha|^2+|beta|^2 = {norm!r}, expected 1",
                    field="source.alpha",
                )
            scale = math.sqrt(norm)
            alpha, beta = alpha / scale, beta / scale
        else:
            if not -1.0 <= beta <= 1.0:
                raise ConfigError("beta must be in [-1, 1] when alpha is derived",
                                  field="source.beta")
            alpha = math.sqrt(1.0 - beta * beta)
    pre = protocol.SourceState(complex(alpha), complex(beta))

    phases = doc.get("phases", {})
    phi_a = float(phases.get("phi_A", 0.0))
    phi_b = float(phases.get("phi_B", 0.0))

    post_sec = doc.get("postselection", "paper-default")
    if post_sec == "paper-default":
        post = protocol.paper_postselection(phi_a, phi_b)
    else:
        post = protocol.SourceState.from_amplitudes(
            _as_complex(post_sec["amp_A"]), _as_complex(post_sec["amp_B"])
        )

    if params is not None and gain is None:
        try:  # the phase-free paper postselection's gain, what `simulate` prints without phases
            gain = weak_value_report(pre, protocol.paper_postselection(), delta_a, delta_b).gain
        except ValueError:
            raise ConfigError("source.beta = alpha leaves the source orthogonal to the paper "
                              "postselection; SI scenarios need gain >= 0",
                              field="source.beta") from None
        if not 0.0 <= gain < math.inf:
            raise ConfigError(f"source.beta realises gain {gain!r}; SI scenarios need gain >= 0",
                              field="source.beta")
        params = replace(params, g=gain)

    scenario = protocol.Scenario(
        pre=pre,
        post=post,
        probe=probe,
        delta_a=delta_a,
        delta_b=delta_b,
        phi_a=phi_a,
        phi_b=phi_b,
    )
    mc = None
    if "montecarlo" in doc:
        sec = doc["montecarlo"]
        mc = RunConfig(scenario=scenario, trials=int(sec["trials"]), seed=int(sec["seed"]),
                       bins=int(sec.get("bins", DEFAULT_HISTOGRAM_BINS)), grid_points=grid_points)

    return BuiltScenario(scenario=scenario, units=units, grid_points=grid_points, params=params,
                         mc=mc)
