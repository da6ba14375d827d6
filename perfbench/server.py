"""Evaluation server of the ``serve-mix`` workload (one per subprocess).

Usage (with ``src/`` on ``PYTHONPATH``)::

    python3 perfbench/server.py [--trace 1 --spans FILE] [--sample 0]

It expands the workload's scenario generator first -- the TCP front
end resolves ``environment`` labels in this process -- then serves a
``ServeServer`` on a free localhost port and prints ``READY <port>
<set-up seconds>`` followed, when sampling, by the set-up seconds at
the reference host speed.
Commands arrive on standard input, one per line:

* ``reset`` -- start a new measurement window: fresh service
  statistics and, when tracing, an empty span record;
* ``report`` -- print one JSON line describing the window so far, with
  the host speed samples this process has taken (``hostspeed.py``);

and end of input stops the server.  ``--trace 1`` installs the span
wrappers of ``tracer.py`` before the server starts; ``--sample 0``
leaves out the host speed samples (as a traced run always does), so
that a traced and an untraced server do the same work.
"""

import argparse
import asyncio
import json
import resource
import sys
import threading
import time

from hostspeed import PERIOD_S, SHORT_PERIOD_S, HostSpeed


def _read_commands(loop, commands) -> None:
    for line in sys.stdin:
        loop.call_soon_threadsafe(commands.put_nowait, line.strip())
    loop.call_soon_threadsafe(commands.put_nowait, None)


def _report(service, tracer, speed, window_started: float, spans_path) -> dict:
    from repro.obs.registry import Histogram

    stats = service.stats
    wait: Histogram = stats.queue_wait_seconds
    occupancy: Histogram = stats.batch_occupancy
    report = {
        "window_s": time.perf_counter() - window_started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": stats.requests,
        "batches": stats.batches,
        "shed": stats.shed,
        "timeouts": stats.timeouts,
        "failures": stats.failures,
        "coalesce_rate": stats.coalesce_rate,
        "batch_occupancy": occupancy.sum / occupancy.count if occupancy.count else 0.0,
        "queue_wait_p99_ms": 1000.0 * (wait.quantile(0.99) or 0.0),
    }
    if speed is not None:
        report["speed"] = speed.samples()
    if tracer is not None:
        report["layers"] = tracer.layers()
        report["counts"] = dict(tracer.counts)
        report["threads"] = len(set(tracer.thread))
        report["spans"] = tracer.span_count
        if spans_path:
            tracer.dump(spans_path)
    return report


async def _serve(args, tracer, speed, started: float) -> None:
    from repro.serve.net import ServeServer
    from repro.serve.service import EvaluationService, ServeStats

    service = EvaluationService()
    async with service:
        server = await ServeServer(service, port=0).start()
        try:
            loop = asyncio.get_running_loop()
            commands: asyncio.Queue = asyncio.Queue()
            threading.Thread(target=_read_commands, args=(loop, commands),
                             daemon=True).start()
            ready = time.perf_counter()
            setup = ([speed.scaled(started, ready)] if speed is not None else [])
            print(" ".join(str(v) for v in (
                "READY", server.address[1], ready - started, *setup)), flush=True)
            if speed is not None:
                speed.every(PERIOD_S)
            window_started = time.perf_counter()
            while True:
                command = await commands.get()
                if command is None:
                    break
                if command == "reset":
                    service.stats = ServeStats()
                    if tracer is not None:
                        tracer.clear()
                    window_started = time.perf_counter()
                elif command == "report":
                    report = _report(service, tracer, speed, window_started,
                                     args.spans)
                    print(json.dumps(report), flush=True)
        finally:
            await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--sample", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()
    speed = (HostSpeed(SHORT_PERIOD_S).start()
             if args.sample and not args.trace else None)
    # Set-up is timed from here, before the program is imported, as in
    # probe.py.
    started = time.perf_counter()
    import serve

    serve.scenario_generator().expand()
    tracer = None
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    try:
        asyncio.run(_serve(args, tracer, speed, started))
    finally:
        if speed is not None:
            speed.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
