"""Run one gravkick command line as ``python -m gravkick`` does, and report its peak RSS.

    python3 launch.py [--spans SPANS.json] ARGS...

runs gravkick's ``__main__`` through runpy with ARGS and, at exit, writes
``peak_rss_kib N`` (the process's own VmHWM) to standard error.  A child
reads its high-water mark itself because a child's rusage also counts the
parent it was forked from.  With ``--spans`` it first installs the
benchmark's span wrappers and writes the spans of the call to SPANS.json.
The cold-cli workload starts every CLI process through this launcher.
"""

import atexit
import runpy
import sys


def report_peak_rss() -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write(f"peak_rss_kib {kib}\n")


def main() -> None:
    args = sys.argv[1:]
    atexit.register(report_peak_rss)
    if args[:1] != ["--spans"]:
        sys.argv = ["gravkick", *args]
        runpy.run_module("gravkick", run_name="__main__", alter_sys=True)
        return
    import tracing

    spans_path = args[1]
    sys.argv = ["gravkick", *args[2:]]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.begin(0, "timed")
    try:
        runpy.run_module("gravkick", run_name="__main__", alter_sys=True)
    finally:
        tracer.end()
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
