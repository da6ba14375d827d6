"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dse-future --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs a fixed amount of the same work with spans recorded
around the program's public functions and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is the JSON result.  The exit code is 0 only when every output
check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Dict

import common
import stats
from common import BenchmarkError
from hostspeed import HostSpeed

WORKLOADS = ("dse-future", "campaign-traces", "serve-mix")
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "fast_path_per_s": "1/s",
    "latency_ms": "ms",
}


def measured_run(workload: str, seed: int, seconds: float) -> common.Outcome:
    if workload == "serve-mix":
        import serve

        with HostSpeed() as speed:
            outcome = serve.measure(seed, seconds, speed)
        outcome.note(speed.summary())
        return outcome
    setup = common.SetupSamples([workload])
    with HostSpeed() as speed:
        if workload == "campaign-traces":
            import campaign

            outcome = campaign.measure(seed, seconds, setup.sample, speed)
        else:
            import dse

            outcome = dse.measure(seed, seconds, setup.sample, speed)
        outcome.metrics["setup_s"] = (setup.median(), "s")
    outcome.metrics["peak_rss_mb"] = (common.peak_rss_mb(), "MB")
    outcome.note("setup samples (s, scaled): "
                 + ", ".join(f"{s:.4f}" for s in setup.values))
    outcome.note("setup samples (s, unscaled): "
                 + ", ".join(f"{s:.4f}" for s in setup.raw))
    outcome.note(speed.summary())
    return outcome


def traced_run(workload: str, seed: int) -> common.Outcome:
    from tracer import Tracer, instrument

    if workload == "serve-mix":
        import serve

        return serve.trace(seed)

    tracer = Tracer()

    def traced(fn) -> float:
        instrumentation = instrument(tracer)
        started = time.perf_counter()
        try:
            fn()
        finally:
            wall = time.perf_counter() - started
            instrumentation.remove()
        return wall

    if workload == "campaign-traces":
        import campaign

        result = campaign.trace(seed, tracer, traced)
    else:
        import dse

        result = dse.trace(seed, tracer, traced)
    outcome = result["outcome"]
    # The program runs on this thread; other threads (a campaign run's
    # lease heartbeat) live only briefly, so only this one is reconciled.
    main = tracer.thread_index(threading.get_ident())
    extra = dict(result["extra"])
    extra["error_rate"] = stats.error_rate(outcome.attempted, outcome.failed)
    extra.update(common.reconciliation(
        result["wall_s"], tracer.layers([main]), 1, tracer.span_count,
        traced_work_s=result["wall_s"], untraced_work_s=result["untraced_s"]))
    values = common.per_layer_metrics(tracer.layers(), tracer.counts, extra)
    dump = common.out_dir() / f"trace-{workload}.csv.gz"
    tracer.dump(str(dump))
    outcome.note(f"spans written to {dump.relative_to(common.ROOT)}")
    outcome.metrics.update(
        {name: (value, common.PER_LAYER_UNITS[name]) for name, value in values.items()})
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        common.require_program()
        if args.trace:
            outcome = traced_run(args.workload, args.seed)
            expected = common.PER_LAYER_UNITS
        else:
            outcome = measured_run(args.workload, args.seed, args.seconds)
            expected = END_TO_END_UNITS
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    # The workloads are chosen so that no operation fails: a failure is a
    # changed program, and must not pass as a fast one.
    outcome.check(outcome.failed == 0,
                  f"{outcome.failed} of {outcome.attempted} operations failed")
    missing = set(expected) - set(outcome.metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2

    for line in outcome.notes:
        print(line)
    for name in expected:
        value, unit = outcome.metrics[name]
        print(f"{name:<42} {value:>14.6g} {unit}")
    for problem in outcome.problems:
        print(f"perfbench: WRONG OUTPUT: {problem}", file=sys.stderr)
    error_rate = stats.error_rate(max(1, outcome.attempted), outcome.failed)
    print(f"error_rate {error_rate:.6g} ({outcome.failed} failed of "
          f"{outcome.attempted} attempted)")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name][0],
                           "unit": outcome.metrics[name][1]} for name in expected},
    }
    print(json.dumps(result))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
