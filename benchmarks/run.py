"""gravkick benchmark: one workload, one seed, checked outputs, one JSON result line.

    python3 benchmarks/run.py --workload cold-cli --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout: the program is imported from
./src and scratch files go to ./.bench_work (removed at exit).  With
--trace 0 it times every operation in rounds, scales out the shared host's
slowness, and prints the end-to-end metrics; with --trace 1 it alternates
traced and untraced rounds of the same operations and prints the per-layer
metrics.  The last line of standard output is the JSON result.
`--workload all` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

SETUP_RUNS = 9
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
ROUNDS = 3  # untraced runs: rounds of the same operations
TRACE_ROUNDS = ("traced", "plain", "traced", "plain")  # traced runs: alternate with plain ones
# The reference loads, and their times on the host that times are scaled to.
COMPUTE_SECONDS = 0.3e-3
PROCESS_SECONDS = 0.15
REFERENCE_PROCESS = ("-c", "import json, numpy")


def timed_process(argv, cwd, env) -> float:
    """Run a process to its end; returns its wall time.

    Its output goes through pipes: with a timeout and no pipes, subprocess
    polls for the exit every 50 ms, which would round the time to that.
    """
    t0 = perf_counter()
    subprocess.run(argv, cwd=cwd, env=env, capture_output=True, check=True, timeout=60)
    return perf_counter() - t0


class HostSpeed:
    """How slow the shared host is, window by window, from a fixed reference load.

    The load never touches gravkick.  It runs, untimed, before every timed
    run.  A window is one cycle of operations in one round.  Its slowness is
    the median time of the load in it over the load's reference time.  Other
    tenants of the host slow the load and the operations alike, for seconds
    to minutes at a time, so a run's time divided by its window's slowness
    follows the program rather than the host: it is the run's time on a host
    where the load takes its reference time.

    The load has to be slowed as the operations are.  In process it is an
    FFT round trip of 4096 points and a Python loop (`compute`, reference
    COMPUTE_SECONDS).  For operations that are processes, it is a process
    too (`process`): a fresh interpreter that imports json and numpy
    (reference PROCESS_SECONDS).  On a 2-CPU x86_64 host, over windows of
    ten `simulate` processes whose median time varied by a third, the ratio
    of that median to this load's varied by 3 %, and to the in-process
    load's by 16 %.
    """

    def __init__(self, kind: str, env: dict, cwd: Path):
        import numpy

        self.fft = numpy.fft
        self.signal = numpy.random.default_rng(0).standard_normal(4096) + 0j
        self.kind, self.env, self.cwd = kind, env, cwd
        self.reference = PROCESS_SECONDS if kind == "process" else COMPUTE_SECONDS
        self.samples: dict[tuple, list[float]] = {}

    def load(self) -> float:
        """Run the load once; returns its time."""
        if self.kind == "process":
            return timed_process([sys.executable, *REFERENCE_PROCESS], self.cwd, self.env)
        t0 = perf_counter()
        self.fft.ifft(self.fft.fft(self.signal))
        total = 0.0
        for i in range(1000):
            total += math.sin(1e-3 * i)
        return perf_counter() - t0

    def sample(self, window: tuple) -> None:
        self.samples.setdefault(window, []).append(self.load())

    def slowness(self, window: tuple) -> float:
        return statistics.median(self.samples[window]) / self.reference

    def time(self, runs) -> float:
        """An operation's time from its (seconds, window) runs.

        In each window (one round) its fastest run, which steps over short
        bursts, is divided by the window's slowness; the median over rounds
        keeps one badly estimated window from setting the time.
        """
        fastest: dict[tuple, float] = {}
        for seconds, window in runs:
            fastest[window] = min(seconds, fastest.get(window, seconds))
        return statistics.median(t / self.slowness(w) for w, t in fastest.items())


@dataclass
class Record:
    """One operation: the check of its first run and the (seconds, window) of all its runs."""

    family: str
    label: str
    cycle: int
    outcome: object
    fingerprint: object
    plain: list[tuple[float, tuple]] = field(default_factory=list)
    traced: list[tuple[float, tuple]] = field(default_factory=list)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint(op, result):
    """What a repeat of `op` must reproduce: `op.output(result)` and the bytes it wrote."""
    files = {}
    for top in map(Path, op.scratch):
        for path in sorted(top.rglob("*")) if top.is_dir() else ():
            if path.is_file():
                files[str(path.relative_to(top.parent))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return op.output(result), files


def run_once(op, record, tracer, op_id):
    """Time one run of `op`, then (untimed) check it, or compare it with its first run.

    Returns (seconds, record); the record is new on a first run.
    """
    from checks import Outcome

    if tracer is not None:
        tracer.begin(op_id, "timed")
    t0 = perf_counter()
    try:
        result, error = op.run(), None
    except (Exception, SystemExit) as exc:  # a refused or crashed call is a failed operation
        result, error = None, exc
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.begin(op_id, "check")
    try:
        if error is None:
            op.collect(result)
            got = fingerprint(op, result)
        if record is None:
            if error is not None:
                outcome = Outcome(work=0.0)
                outcome.fail(f"raised {type(error).__name__}: {error}")
                return seconds, Record(op.family, op.label, op.cycle, outcome, None)
            try:
                outcome = op.check(result)
            except Exception as exc:
                outcome = Outcome(work=0.0)
                outcome.fail(f"check raised {type(exc).__name__}: {exc}")
            return seconds, Record(op.family, op.label, op.cycle, outcome, got)
        if error is not None:
            record.outcome.fail(f"repeat raised {type(error).__name__}: {error}")
        elif record.fingerprint is not None and got != record.fingerprint:
            output, files = record.fingerprint
            differ = sorted(k for k in files.keys() | got[1].keys()
                            if files.get(k) != got[1].get(k))
            if output != got[0]:
                differ.append("printed output")
            record.outcome.fail(f"repeat differs from the first run: {', '.join(differ)}")
        return seconds, record
    finally:
        if tracer is not None:
            tracer.end()
        for path in op.scratch:
            shutil.rmtree(path, ignore_errors=True)


@contextmanager
def traced_round(workload, tracer):
    """Install the span wrappers, in process and in cold-cli's child processes."""
    import tracing

    uninstall = tracing.install(tracer)
    workload.tracer = tracer
    try:
        yield tracer
    finally:
        workload.tracer = None
        uninstall()


def measure(workload, cycles, rounds, tracer=None, between=None):
    """Time `cycles` cycles of operations in rounds, each named "plain" or "traced".

    The number of cycles is fixed, so that a seed always gives the same
    operations, and the same failures.  Each round regenerates the same
    operations from the seed (keeping them would hold their arrays for the
    whole run) and runs them in the same order; the first round checks the
    first run of each.  In every round an operation runs `workload.repeats`
    times back to back.  A repeat must reproduce the first run byte for
    byte.  A shared host is slowed by other tenants in bursts of a fraction
    of a second, and in spells of seconds to minutes.  Back-to-back repeats
    step over the bursts, and HostSpeed scales out the spells.
    `between(progress)`, with progress the share of the run done, is called
    untimed before every operation.  Returns (records, HostSpeed).
    """
    records: list[Record] = []
    host = HostSpeed(workload.host_load, workload.env, workload.work)
    for k, mode in enumerate(rounds):
        scope = traced_round(workload, tracer) if mode == "traced" else nullcontext()
        with scope as active:
            for i, op in enumerate(workload.ops(cycles)):
                if between:
                    between((k + op.cycle / cycles) / len(rounds))
                record = records[i] if k else None
                window = (k, op.cycle)
                for j in range(workload.repeats):
                    host.sample(window)
                    dt, record = run_once(op, record, active, (k, i, j))
                    (record.traced if mode == "traced" else record.plain).append((dt, window))
                if not k:
                    records.append(record)
    return records, host


class SetupTimer:
    """Fresh interpreter until `import gravkick.cli` and the first build_scenario return.

    Samples are spread over the run, so one slow moment of the host cannot
    set the median.  Each follows a run of the process load of HostSpeed,
    and the median is scaled by their slowness, as the cold-cli operations
    are.
    """

    CODE = ("import json, sys; import gravkick.cli; from gravkick import config; "
            "config.build_scenario(json.load(open(sys.argv[1])))")

    def __init__(self, workload, root: Path):
        self.doc = workload.work / "setup.json"
        self.doc.write_text(json.dumps(workload.first_doc()), encoding="utf-8")
        self.root, self.env = root, workload.env
        self.host = HostSpeed("process", workload.env, root)
        self.samples: list[float] = []

    def sample(self) -> None:
        self.host.sample(("setup",))
        self.samples.append(timed_process([sys.executable, "-c", self.CODE, str(self.doc)],
                                          self.root, self.env))

    def between(self, progress: float) -> None:
        if len(self.samples) < SETUP_RUNS and progress >= len(self.samples) / SETUP_RUNS:
            self.sample()

    def median(self) -> float:
        """The scaled median; prints the unscaled one."""
        while len(self.samples) < SETUP_RUNS:
            self.sample()
        unscaled = statistics.median(self.samples)
        print(f"# unscaled: setup_s {unscaled:.6g}")
        return unscaled / self.host.slowness(("setup",))


def tail(seconds: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with TAIL_BEYOND beyond.

    When that percentile would fall below the median, the maximum.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1
    if index < n // 2:
        return ordered[-1], 100.0, 0
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def end_to_end(records, host, setup: float, workload) -> dict:
    times = [host.time(r.plain) for r in records]
    rates = {}
    for family in ("a", "b"):
        mine = [(r, t) for r, t in zip(records, times) if r.family == family]
        rates[family] = sum(r.outcome.work for r, _ in mine) / sum(t for _, t in mine)
    # Like a timing's tail: the largest error alone depends on how close the
    # seed's inputs come to the edge of a known defect's region.
    errors = [e for r in records for e in r.outcome.errors] or [0.0]
    worst, error_pct, error_beyond = tail(errors)
    peak_kib = workload.peak_rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_value, pct, beyond = tail(times)
    print(f"# {len(records)} operations in {len({r.cycle for r in records})} cycles, "
          f"each timed {len(records[0].plain)} times in {ROUNDS} rounds, "
          f"scaled to a host where the {host.kind} load takes {1e3 * host.reference:g} ms")
    print(f"# op_tail_ms is p{pct:.1f} with {beyond} samples beyond it")
    print(f"# oracle_digits is at p{error_pct:.1f} of {len(errors)} compared values, "
          f"with {error_beyond} beyond it; the largest error is {max(errors):.3g}")
    slowness = sorted(host.slowness(w) for w in host.samples)
    print(f"# host slowness over {len(slowness)} windows: min {slowness[0]:.3f}, "
          f"median {statistics.median(slowness):.3f}, max {slowness[-1]:.3f}")
    raw = [min(t for t, _ in r.plain) for r in records]
    print(f"# unscaled: op_p50_ms {1e3 * statistics.median(raw):.6g}, "
          f"op_tail_ms {1e3 * tail(raw)[0]:.6g}")
    return {
        "setup_s": (setup, "s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        "family_a_per_s": (rates["a"], "1/s"),
        "family_b_per_s": (rates["b"], "1/s"),
        "oracle_digits": (-math.log10(max(worst, 1e-17)), "digits"),
    }


def per_layer(workload, seconds, root):
    """Traced rounds alternating with plain ones over the same operations;
    returns (records, metrics)."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    records, host = measure(workload, workload.cycles(seconds), TRACE_ROUNDS, tracer)
    n_traced = sum(len(r.traced) for r in records)
    coverage = []
    if tracing.missing_layers(tracer, n_traced):
        coverage = workloads.coverage_ops(workload.work)
        with traced_round(workload, tracer):
            for i, op in enumerate(coverage):
                tracer.begin(i, "coverage")
                op.run()
                tracer.end()
    print("# self time by function, traced operations:")
    for line in tracing.self_time_table(tracer):
        print(line)
    metrics = {}
    for name, (value, unit, source) in tracing.layer_metrics(
            tracer, n_traced, len(coverage)).items():
        if source == "coverage":
            print(f"# {name} from the coverage pass (the workload does not reach this layer)")
        metrics[name] = (value, unit)
    for name, value in tracing.import_times(sys.executable, workload.env, str(root)).items():
        metrics[name] = (value, "ms")
    overhead = (sum(host.time(r.traced) for r in records)
                / sum(host.time(r.plain) for r in records) - 1.0)
    metrics["tracing_overhead_pct"] = (100.0 * overhead, "%")
    return records, metrics


def provenance(root: Path) -> dict:
    from importlib import metadata

    import numpy

    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == root.resolve():
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "machine": f"{platform.machine()} {platform.processor() or ''}".strip(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "git_commit": commit,
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own process; the last line sums them up."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "gravkick" / "__init__.py").is_file():
        print(f"error: no gravkick sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import oracle
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from all, {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    problems = oracle.self_check(str(root / "tests"))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 3

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, root, work)
        if args.trace:
            records, metrics = per_layer(workload, args.seconds, root)
        else:
            setup = SetupTimer(workload, root)
            records, host = measure(workload, workload.cycles(args.seconds), ("plain",) * ROUNDS,
                                    between=setup.between)
            metrics = end_to_end(records, host, setup.median(), workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    # After the measurement, so that scipy does not count towards the peak RSS.
    problems = oracle.quadrature_check(str(root / "tests"))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 3

    failed = [r for r in records if r.outcome.failures]
    unexpected = [r for r in failed if r.outcome.unexpected]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("# provenance " + json.dumps(provenance(root)))
    print(f"# family a: {workload.families[0]}; family b: {workload.families[1]}")
    print(f"# failure ledger: {len(failed)} failed of {len(records)} "
          f"({len(unexpected)} with a failure outside the known defects)")
    for r in failed:
        for message, known in r.outcome.failures:
            tag = f"known {known}" if known else "UNEXPECTED"
            print(f"#   [{tag}] {r.label}: {message}")
    print(f"# error_rate {len(failed) / len(records):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
