"""Spans around gravkick's public functions, and the per-layer metrics built from them.

The wrappers live here, not in the package: `install` replaces each traced
function in its defining module and in every gravkick module that bound it
by name (``from .feasibility import sweep`` makes ``cli.sweep`` a separate
name), and `uninstall` puts the originals back.  Spans stay in memory; a
span's self time is its duration minus the time of the spans it caused on
the same thread.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
from time import perf_counter


class Span:
    __slots__ = ("name", "op", "phase", "dur", "child", "attrs")

    def __init__(self, name, op, phase):
        self.name, self.op, self.phase = name, op, phase
        self.dur = self.child = 0.0
        self.attrs = None

    @property
    def self_time(self) -> float:
        return self.dur - self.child

    def to_json(self) -> dict:
        return {"name": self.name, "dur": self.dur, "child": self.child, "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op = None
        self.phase = None
        self._local = threading.local()

    def begin(self, op, phase) -> None:
        self.op, self.phase, self.active = op, phase, True

    def end(self) -> None:
        self.active = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, tracer.op, tracer.phase)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child += span.dur
                tracer.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_json() for s in self.spans], fh)

    def absorb(self, path, phase) -> None:
        """Add spans written by a traced child process, tagged with the current op."""
        if not os.path.exists(path):
            return
        with open(path, encoding="utf-8") as fh:
            for rec in json.load(fh):
                span = Span(rec["name"], self.op, phase)
                span.dur, span.child, span.attrs = rec["dur"], rec["child"], rec["attrs"]
                self.spans.append(span)
        os.unlink(path)


# --- what to wrap ---


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _displace_attrs(args, kwargs, result):
    psi, delta = _arg(args, kwargs, 0, "psi"), _arg(args, kwargs, 1, "delta")
    p = getattr(psi, "p", None)
    if p is None or delta == 0.0:
        return None
    n = int(p.size)
    return {"fft_n": n, "flops": 10.0 * n * math.log2(n) + 6.0 * n}


def _to_csv_attrs(args, kwargs, result):
    dest = _arg(args, kwargs, 1, "dest")
    if isinstance(dest, io.StringIO):
        return {"bytes": len(dest.getvalue())}
    if isinstance(dest, str) and os.path.exists(dest):
        return {"bytes": os.path.getsize(dest)}
    return None


def _len_attrs(args, kwargs, result):
    return {"bytes": len(result)}


def _ensemble_attrs(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    return {"workers": _arg(args, kwargs, 1, "workers") or 1, "trials": cfg.trials,
            "accepted": result.accepted}


def _sweep_attrs(args, kwargs, result):
    return {"workers": _arg(args, kwargs, 2, "workers") or 1, "points": len(result)}


def _bundle_attrs(args, kwargs, result):
    return {"bytes": sum(len(t) for t in _arg(args, kwargs, 1, "files").values())}


TARGETS = [
    ("config", "build_scenario", None),
    ("config", "validate_config", None),
    ("cli", "main", None),
    ("cli", "build_parser", None),
    ("wavepacket", "displace", _displace_attrs),
    ("wavepacket", "superpose", None),
    ("wavepacket", "moments", None),
    ("wavepacket", "to_csv", _to_csv_attrs),
    ("protocol", "run", None),
    ("protocol", "postselect", None),
    ("analysis", "validity_check", None),
    ("analysis", "weak_value_report", None),
    ("montecarlo", "run_ensemble", _ensemble_attrs),
    ("feasibility", "sweep", _sweep_attrs),
    ("feasibility", "evaluate_case", None),
    ("feasibility", "sweep_csv", _len_attrs),
    ("svg", "heatmap", _len_attrs),
    ("svg", "line_plot", _len_attrs),
    ("output", "write_bundle", _bundle_attrs),
    ("output", "write_text_atomic", None),
    ("output", "summary_csv", None),
]


def install(tracer: Tracer):
    """Wrap every target where callers look it up; returns the undo function."""
    for module in ("config", "cli", "wavepacket", "protocol", "analysis", "montecarlo",
                   "feasibility", "svg", "output"):
        importlib.import_module(f"gravkick.{module}")
    modules = [m for name, m in sys.modules.items()
               if name == "gravkick" or name.startswith("gravkick.")]
    undo = []
    for module, attr, attrs in TARGETS:
        original = getattr(sys.modules[f"gravkick.{module}"], attr)
        wrapped = tracer.wrap(f"{module}.{attr}", original, attrs)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    undo.append((mod, name, original))
    parse = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = tracer.wrap("cli.parse_args", parse)
    undo.append((argparse.ArgumentParser, "parse_args", parse))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


# --- per-layer metrics ---


class _View:
    """Spans of one source: the timed operations, or the coverage pass if they miss a layer."""

    def __init__(self, spans, n_ops):
        self.spans, self.n_ops = spans, max(n_ops, 1)

    def of(self, name, pred=None):
        return [s for s in self.spans
                if s.name == name and (pred is None or pred(s.attrs or {}))]


def _mean(xs):
    return sum(xs) / len(xs)


def _fft(a):
    return "fft_n" in a


def _serial(a):
    return a.get("workers", 1) == 1


def _parallel(a):
    return a.get("workers", 1) > 1


# name -> (unit, span name, predicate, function of (view, spans) -> value)
LAYERS = {
    "config.build_scenario_ms": ("ms", "config.build_scenario", None,
                                 lambda v, s: 1e3 * _mean([x.dur for x in s])),
    "config.validate_config_ms": ("ms", "config.validate_config", None,
                                  lambda v, s: 1e3 * _mean([x.dur for x in s])),
    "cli.parse_ms": ("ms", "cli.main", None,
                     lambda v, s: 1e3 * sum(x.dur for x in v.of("cli.build_parser")
                                            + v.of("cli.parse_args")) / len(s)),
    "cli.main_self_ms": ("ms", "cli.main", None,
                         lambda v, s: 1e3 * _mean([x.self_time for x in s])),
    "wavepacket.displace_us": ("us", "wavepacket.displace", _fft,
                               lambda v, s: 1e6 * _mean([x.dur for x in s])),
    "wavepacket.displace.calls": ("calls/op", "wavepacket.displace", _fft,
                                  lambda v, s: len(s) / v.n_ops),
    "wavepacket.displace.flops": ("computed-flop", "wavepacket.displace", _fft,
                                  lambda v, s: _mean([x.attrs["flops"] for x in s])),
    "wavepacket.superpose_us": ("us", "wavepacket.superpose", None,
                                lambda v, s: 1e6 * _mean([x.dur for x in s])),
    "wavepacket.moments_us": ("us", "wavepacket.moments", None,
                              lambda v, s: 1e6 * _mean([x.dur for x in s])),
    "wavepacket.to_csv_ms": ("ms", "wavepacket.to_csv", None,
                             lambda v, s: 1e3 * _mean([x.dur for x in s])),
    "wavepacket.to_csv.bytes": ("bytes", "wavepacket.to_csv", None,
                                lambda v, s: _mean([(x.attrs or {}).get("bytes", 0) for x in s])),
    "protocol.run_us": ("us", "protocol.run", None,
                        lambda v, s: 1e6 * _mean([x.dur for x in s])),
    "protocol.postselect_us": ("us", "protocol.postselect", None,
                               lambda v, s: 1e6 * _mean([x.dur for x in s])),
    "protocol.run.calls_per_job": ("calls/job", "protocol.run", None,
                                   lambda v, s: len(s) / len({x.op for x in s})),
    "analysis.validity_check_self_us": ("us", "analysis.validity_check", None,
                                        lambda v, s: 1e6 * _mean([x.self_time for x in s])),
    "analysis.weak_value_report_us": ("us", "analysis.weak_value_report", None,
                                      lambda v, s: 1e6 * _mean([x.dur for x in s])),
    "montecarlo.run_ensemble_self_ms": ("ms", "montecarlo.run_ensemble", _serial,
                                        lambda v, s: 1e3 * _mean([x.self_time for x in s])),
    "montecarlo.ns_per_trial": ("ns", "montecarlo.run_ensemble", _serial,
                                lambda v, s: 1e9 * sum(x.dur for x in s)
                                / sum(x.attrs["trials"] for x in s)),
    "montecarlo.ns_per_accepted": ("ns", "montecarlo.run_ensemble", _serial,
                                   lambda v, s: 1e9 * sum(x.dur for x in s)
                                   / max(sum(x.attrs["accepted"] for x in s), 1)),
    "montecarlo.acceptance_rate": ("ratio", "montecarlo.run_ensemble", _serial,
                                   lambda v, s: sum(x.attrs["accepted"] for x in s)
                                   / sum(x.attrs["trials"] for x in s)),
    "montecarlo.run_ensemble.workers2_ms": ("ms", "montecarlo.run_ensemble", _parallel,
                                            lambda v, s: 1e3 * _mean([x.dur for x in s])),
    "feasibility.sweep.us_per_point": ("us", "feasibility.sweep", _serial,
                                       lambda v, s: 1e6 * sum(x.dur for x in s)
                                       / sum(x.attrs["points"] for x in s)),
    "feasibility.evaluate_case.calls": ("calls/op", "feasibility.evaluate_case", None,
                                        lambda v, s: len(s) / v.n_ops),
    "feasibility.sweep_csv_ms": ("ms", "feasibility.sweep_csv", None,
                                 lambda v, s: 1e3 * _mean([x.dur for x in s])),
    "feasibility.sweep_csv.bytes": ("bytes", "feasibility.sweep_csv", None,
                                    lambda v, s: _mean([x.attrs["bytes"] for x in s])),
    "feasibility.sweep.workers2_ms": ("ms", "feasibility.sweep", _parallel,
                                      lambda v, s: 1e3 * _mean([x.dur for x in s])),
    "svg.heatmap_ms": ("ms", "svg.heatmap", None, lambda v, s: 1e3 * _mean([x.dur for x in s])),
    "svg.heatmap.bytes": ("bytes", "svg.heatmap", None,
                          lambda v, s: _mean([x.attrs["bytes"] for x in s])),
    "svg.line_plot_ms": ("ms", "svg.line_plot", None,
                         lambda v, s: 1e3 * _mean([x.dur for x in s])),
    "output.write_bundle_ms": ("ms", "output.write_bundle", None,
                               lambda v, s: 1e3 * _mean([x.dur for x in s])),
    "output.write_bundle.bytes": ("bytes", "output.write_bundle", None,
                                  lambda v, s: _mean([x.attrs["bytes"] for x in s])),
    "output.write_text_atomic.calls": ("calls/op", "output.write_text_atomic", None,
                                       lambda v, s: len(s) / v.n_ops),
    "output.summary_csv_us": ("us", "output.summary_csv", None,
                              lambda v, s: 1e6 * _mean([x.dur for x in s])),
}

# Parallel runs happen in the determinism checks, so those metrics also read the check phase.
_CHECK_PHASE_OK = {"montecarlo.run_ensemble.workers2_ms", "feasibility.sweep.workers2_ms"}


def missing_layers(tracer: Tracer, n_ops: int) -> list[str]:
    timed = _View([s for s in tracer.spans if s.phase == "timed"], n_ops)
    checked = _View([s for s in tracer.spans if s.phase in ("timed", "check")], n_ops)
    return [name for name, (_, span, pred, _) in LAYERS.items()
            if not (checked if name in _CHECK_PHASE_OK else timed).of(span, pred)]


def layer_metrics(tracer: Tracer, n_ops: int, n_coverage: int) -> dict:
    """name -> (value, unit, source) for every per-layer metric."""
    views = {
        "timed": _View([s for s in tracer.spans if s.phase == "timed"], n_ops),
        "check": _View([s for s in tracer.spans if s.phase in ("timed", "check")], n_ops),
        "coverage": _View([s for s in tracer.spans if s.phase == "coverage"], n_coverage),
    }
    out = {}
    for name, (unit, span, pred, fn) in LAYERS.items():
        order = ("check", "coverage") if name in _CHECK_PHASE_OK else ("timed", "coverage")
        for source in order:
            spans = views[source].of(span, pred)
            if spans:
                out[name] = (fn(views[source], spans), unit, source)
                break
    return out


def self_time_table(tracer: Tracer) -> list[str]:
    """One line per traced function of the timed phase: calls, total and self seconds."""
    totals: dict[str, list] = {}
    for s in tracer.spans:
        if s.phase == "timed":
            row = totals.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.dur
            row[2] += s.self_time
    return [f"  {name:32s} calls={c:8d} total={t:9.4f}s self={st:9.4f}s"
            for name, (c, t, st) in sorted(totals.items(), key=lambda kv: -kv[1][2])]


# --- import time ---

_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_times(python: str, env: dict, cwd: str, runs: int = 3) -> dict:
    """Median numpy / jsonschema cumulative and gravkick self import time (ms)."""
    samples: dict[str, list[float]] = {"numpy": [], "jsonschema": [], "gravkick": []}
    for _ in range(runs):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import gravkick.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=60,
                              check=True)
        own = 0
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            self_us, cumulative_us, name = int(m[1]), int(m[2]), m[4]
            if name in ("numpy", "jsonschema"):
                samples[name].append(cumulative_us / 1e3)
            if name == "gravkick" or name.startswith("gravkick."):
                own += self_us
        samples["gravkick"].append(own / 1e3)
    return {
        "import.numpy_ms": statistics.median(samples["numpy"]),
        "import.jsonschema_ms": statistics.median(samples["jsonschema"]),
        "import.gravkick_self_ms": statistics.median(samples["gravkick"]),
    }
