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
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import TYPE_CHECKING

import jsonschema

from .units import DEFAULT_GRID_POINTS, HBAR, MAX_SEED, MAX_TRIALS, MIN_GRID_POINTS, UNITS

if TYPE_CHECKING:  # build_scenario imports each module on the branch that needs it
    from .feasibility import ProtocolParams
    from .montecarlo import RunConfig
    from .protocol import Scenario

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
        "units": {"enum": list(UNITS)},
        "source": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha": {"type": "number"},
                "beta": {"type": "number"},
                "gain": {"type": "number", "minimum": 0},
            },
            "dependentRequired": {"alpha": ["beta"]},  # a gain source derives alpha itself
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
                "grid_points": {"type": "integer", "minimum": MIN_GRID_POINTS},
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
                "trials": {"type": "integer", "minimum": 1, "maximum": MAX_TRIALS},
                "seed": {"type": "integer", "minimum": 0, "maximum": MAX_SEED},
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


def _unique_keys(node, path: str = ""):
    """The parsed document with each object, read as a tuple of (key, value) pairs, made a
    dict; a key given twice in one object is refused with its dotted path."""
    prefix = f"{path}." if path else ""
    if isinstance(node, list):
        return [_unique_keys(item, f"{prefix}{i}") for i, item in enumerate(node)]
    if not isinstance(node, tuple):
        return node
    doc = {}
    for key, value in node:
        if key in doc:  # json would keep the last value and drop the others silently
            raise ConfigError(f"config key {prefix + key!r} is given more than once in one "
                              "object", field=prefix + key)
        doc[key] = _unique_keys(value, prefix + key)
    return doc


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            pairs = json.load(fh, object_pairs_hook=tuple, parse_constant=_refuse_constant,
                              parse_float=_finite_float, parse_int=_double_int)
    except UnicodeDecodeError as exc:  # the file's bytes, read and decoded in one piece
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"invalid UTF-8 at line {line}: byte 0x{exc.object[exc.start]:02x} at "
                          f"offset {exc.start}", field=f"line {line}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            field=f"line {exc.lineno}",
        ) from exc
    except OSError as exc:  # a missing file, a directory, no read permission
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}",
                          field="config") from exc
    return _unique_keys(pairs)


def load_preset(name: str) -> dict:
    """A shipped preset, read by `load_config` like any scenario file."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    with resources.as_file(resources.files("gravkick").joinpath(f"presets/{name}.json")) as path:
        return load_config(str(path))


def preset_descriptions() -> list[tuple[str, str]]:
    return [(name, load_preset(name).get("description", "")) for name in PRESET_NAMES]


def validate_config(doc: dict) -> None:
    errors = jsonschema.Draft202012Validator(CONFIG_SCHEMA).iter_errors(doc)
    err = jsonschema.exceptions.best_match(errors)  # it ranks the shallowest errors first
    if err is not None:
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


def _evaluate_point(post, phases, **point) -> tuple[ProtocolParams, dict]:
    """An SI point and its case, refused by feasibility's rule: the one a sweep's point meets."""
    from .feasibility import ProtocolParams, evaluate_case

    try:  # without T, ProtocolParams takes m W^2 / (2 hbar)
        params = ProtocolParams(**point)
        return params, evaluate_case(params, post, phases)
    except ValueError as exc:
        raise ConfigError(f"config field kicks: {exc}", field="kicks") from None


@dataclass(frozen=True)
class BuiltScenario:
    """A validated config resolved into protocol-ready objects."""

    scenario: Scenario
    units: str  # "si" or "natural"
    grid_points: int
    params: ProtocolParams | None  # physical parameters for SI scenarios
    mc_section: dict | None = field(hash=False)  # the document's montecarlo section
    case: dict | None = field(compare=False)  # evaluate_case of `params`; numpy columns

    @cached_property
    def mc(self) -> RunConfig | None:
        """The montecarlo section's run, built on first read, so that only the montecarlo
        command loads `montecarlo`; the schema refuses each value that RunConfig refuses."""
        from .montecarlo import RunConfig

        sec = self.mc_section  # trials, seed and bins, RunConfig's names
        return None if sec is None else RunConfig(self.scenario, grid_points=self.grid_points,
                                                  **{k: int(v) for k, v in sec.items()})


def _source_amplitudes(source: dict) -> tuple[float, float]:
    """The real (alpha, beta) of a source given by beta, or by alpha and beta."""
    if "alpha" in source:
        alpha, beta = float(source["alpha"]), float(source["beta"])
        norm = alpha * alpha + beta * beta
        if abs(norm - 1.0) > 1e-6:
            raise ConfigError(
                f"source amplitudes have |alpha|^2+|beta|^2 = {norm!r}, expected 1",
                field="source.alpha",
            )
        scale = math.sqrt(norm)
        return alpha / scale, beta / scale
    beta = float(source["beta"])
    if not -1.0 <= beta <= 1.0:
        raise ConfigError("beta must be in [-1, 1] when alpha is derived", field="source.beta")
    return math.sqrt(1.0 - beta * beta), beta


def _realised_gain(pre, kick_ratio: float) -> float:
    """The gain that `pre` realises with the phase-free paper postselection, what `simulate`
    prints without phases.  It depends on the kicks only through kick_ratio = delta_B/delta_A."""
    from . import protocol
    from .analysis import weak_value_report

    try:
        gain = weak_value_report(pre, protocol.paper_postselection(), 1.0, kick_ratio).gain
    except ValueError:
        raise ConfigError("source.beta = alpha leaves the source orthogonal to the paper "
                          "postselection; SI scenarios need gain >= 0",
                          field="source.beta") from None
    if not 0.0 <= gain < math.inf:
        raise ConfigError(f"source.beta realises gain {gain!r}; SI scenarios need gain >= 0",
                          field="source.beta")
    return gain


def build_scenario(doc: dict) -> BuiltScenario:
    """Validate and assemble a scenario document.

    Each module loads on the branch that needs it: `protocol` and `wavepacket` for every
    document, `feasibility` for SI kicks or a `gain` source and `analysis` for an SI `beta`
    source; `montecarlo` loads when `BuiltScenario.mc` is first read.
    """
    validate_config(doc)

    from . import protocol
    from .wavepacket import GaussianPacket

    kicks = doc["kicks"]
    units = "natural" if "delta_A" in kicks else "si"  # explicit kicks, or physical parameters
    if doc.get("units", units) != units:
        raise ConfigError("explicit kicks are stated in natural units" if units == "natural"
                          else "physical kick parameters are stated in SI", field="units")

    probe_sec = doc.get("probe", {})
    if units == "si" and "W" not in probe_sec:
        raise ConfigError("SI scenarios need probe.W in meters", field="probe.W")
    width = float(probe_sec.get("W", 1.0))
    grid_points = int(probe_sec.get("grid_points", DEFAULT_GRID_POINTS))
    hbar = HBAR if units == "si" else 1.0
    _refuse_square_out_of_range(hbar / width, "probe.W", "hbar/W")
    probe = GaussianPacket(0.0, width, hbar)

    phases = doc.get("phases", {})
    phi_a = float(phases.get("phi_A", 0.0))
    phi_b = float(phases.get("phi_B", 0.0))

    post_sec = doc.get("postselection", "paper-default")
    if post_sec == "paper-default":
        post = protocol.paper_postselection(phi_a, phi_b)
    else:
        try:
            post = protocol.SourceState.from_amplitudes(_as_complex(post_sec["amp_A"]),
                                                        _as_complex(post_sec["amp_B"]))
        except ValueError as exc:  # both zero: the schema admits only finite numbers
            raise ConfigError(f"config field postselection: {exc}",
                              field="postselection") from None

    source = doc["source"]
    gain = source.get("gain")
    pre = None if gain is not None else protocol.SourceState(
        *map(complex, _source_amplitudes(source)))
    params = case = None
    if units == "natural":
        delta_a = float(kicks["delta_A"])
        delta_b = float(kicks["delta_B"])
    else:
        for name in ("x_A", "x_B"):
            _refuse_square_out_of_range(float(kicks[name]), f"kicks.{name}", name)
        if not kicks["x_A"] < kicks["x_B"]:
            raise ConfigError(f"config field kicks.x_B: x_B = {kicks['x_B']!r} must exceed "
                              f"x_A = {kicks['x_A']!r}", field="kicks.x_B")
        point = {name: float(kicks[name]) for name in ("M", "m", "T", "x_A", "x_B")
                 if kicks.get(name) is not None}
        # kicks go as 1/x^2, so a beta source's gain is known before its one evaluation
        g = float(gain) if pre is None else _realised_gain(
            pre, (point["x_A"] / point["x_B"]) ** 2)
        params, case = _evaluate_point(post, (phi_a, phi_b), **point, W=width, g=g)
        delta_a, delta_b = case["delta_a"].item(), case["delta_b"].item()

    if pre is None:
        from .feasibility import amplitudes_for_gain

        if delta_a == 0.0 or not 0.0 < delta_b / delta_a < 1.0:
            raise ConfigError(
                "gain-specified sources need kicks with 0 < delta_B/delta_A < 1",
                field="source.gain",
            )
        pre = protocol.SourceState(*map(complex, amplitudes_for_gain(float(gain),
                                                                     delta_b / delta_a)))

    scenario = protocol.Scenario(
        pre=pre,
        post=post,
        probe=probe,
        delta_a=delta_a,
        delta_b=delta_b,
        phi_a=phi_a,
        phi_b=phi_b,
    )
    return BuiltScenario(scenario=scenario, units=units, grid_points=grid_points, params=params,
                         mc_section=doc.get("montecarlo"), case=case)
