"""Benchmark for kscope: one workload per process, metrics as JSON.

Usage::

    python3 bench/run.py --workload single_large --seed 1 --seconds 20 --trace 0

The workload's inputs are made from ``--seed``.  With ``--trace 0`` the
workload repeats whole rounds until ``--seconds`` have passed and reports
the end-to-end metrics; with ``--trace 1`` it traces the set-up and one
round, run between two untraced rounds, all at one worker on the same
inputs, and reports the per-layer metrics.  Either way the outputs are checked, and the last line
printed is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

kscope is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

STARTED = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def process_age() -> float:
    """Seconds since this process was started, from /proc/self/stat.

    Falls back to the time since this module was loaded when /proc is
    unreadable, which leaves out the interpreter's own start-up.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - STARTED


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(rounds, setup_s, rss_mb) -> dict:
    def rate(tests, seconds):
        values = [getattr(r, tests) / getattr(r, seconds) for r in rounds
                  if getattr(r, seconds) > 0]
        return statistics.median(values) if values else 0.0

    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "one_sample_tests_per_s": {"value": rate("one_tests", "one_s"), "unit": "1/s"},
        "two_sample_tests_per_s": {"value": rate("two_tests", "two_s"), "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def timed_rounds(workload, seconds):
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(workload.run_round(len(rounds)))
    return rounds


def traced_run(workload, trace_path):
    """Set-up and one round traced, between two untraced rounds."""
    import tracing

    def timed_round():
        started = time.perf_counter()
        rnd = workload.run_round(0)
        return rnd, time.perf_counter() - started

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        workload.setup()
    # the traced round sits between two untraced ones, so that drift in the
    # machine's speed cancels from the overhead
    before, before_s = timed_round()
    with tracing.installed(tracer):
        traced, traced_s = timed_round()
    after, after_s = timed_round()
    tracer.write(trace_path)
    for layer in tracer.absent:
        print(f"layer absent: {layer}", file=sys.stderr)
    overhead = traced_s - (before_s + after_s) / 2.0
    return [before, traced, after], tracing.per_layer(tracer, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "kscope" / "__init__.py").is_file():
        print(f"error: kscope sources not found under {SRC}", file=sys.stderr)
        return 2
    # KSCOPE_THREADS would override each study's worker count
    os.environ.pop("KSCOPE_THREADS", None)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as scratch:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(scratch))
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            rounds, metrics = traced_run(workload, trace_path)
        else:
            workload.setup()
            setup_s = process_age()
            rounds = timed_rounds(workload, args.seconds)
            metrics = end_to_end(rounds, setup_s, peak_rss_mb())

        failures = workload.check(rounds)
    first = {}
    for k, rnd in enumerate(rounds):
        if rnd.outputs != first.setdefault(rnd.inputs, rnd).outputs:
            failures.append(f"round {k} outputs differ from an earlier round on the same inputs")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
