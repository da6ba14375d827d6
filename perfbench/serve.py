"""``serve-mix``: an open-loop load generator against a ``ServeServer``.

The server runs in its own process (``server.py``).  This process holds
at most two connections and sends pre-encoded JSON-lines requests:

* designs come from a pool over har/kws/mobilenet x both setups, drawn
  with Zipf popularity, so identical requests meet in flight
  (coalescing) and compatible ones share a flush (micro-batching);
* environments are ``paper`` plus generated traces, whose labels the
  server resolves after expanding the same scenario generator;
* most requests are analytical; a small share is step fidelity on a
  trace scenario, priced one at a time on the service's single
  evaluation thread.

The design pool, the scenarios and the popularity ranking are fixed
(:data:`POOL_SEED`); the run's seed draws the request sequence.  The
mix itself is an assumption, not a measured trace (see README.md).

Latency is measured from each request's *due* time at a fixed rate, so
a stall delays the requests behind it; this process and the server
share one core meanwhile.  Capacity is the completion rate with a fixed
window of requests in flight, for the mixed traffic and for analytical
requests alone, measured in alternating windows of a fixed number of
requests so that slow drifts of the machine affect both alike.  Every
distinct request's response must equal a direct ``repro.evaluate()``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.dataflow.mapping import LayerMapping
from repro.environments import ScenarioGenerator
from repro.explore.mapper_search import MappingOptimizer
from repro.explore.space import DesignSpace
from repro.serialize import design_to_dict, metrics_to_dict
from repro.workloads import zoo

import common
import stats
from common import (HERE, ROOT, SETUP_SAMPLES, BenchmarkError, Outcome,
                    out_dir, program_env)
from hostspeed import HostSpeed, raw

WORKLOADS = ("har", "kws", "mobilenet")
SETUPS = ("existing", "future")
#: Seed of the fixed request catalogue: design pool, scenarios, ranking.
POOL_SEED = 0
DESIGNS_PER_CELL = 8
FAMILIES = ("diurnal", "cloudy", "schedule", "trickle")
TRACE_SCENARIOS = 6
PAPER_SHARE = 0.4
STEP_SHARE = 0.03
STEP_KEYS = 24
ZIPF_EXPONENT = 1.1
CONNECTIONS = 2
#: Offered load of the latency measurement (requests/s): a sixth of the
#: mixed-traffic capacity on a 2-core x86 VM, so that the p50 stays a
#: service time, not a queue, when the host slows down.
NOMINAL_RATE = 150.0
#: Shares of ``--seconds`` spent on the latency and capacity phases.
NOMINAL_SHARE = 0.45
CAPACITY_SHARE = 0.35
#: Requests per second the capacity phase is sized for, about the
#: mixed-traffic capacity on a 2-core x86 VM: every window sends a fixed
#: number of requests, so that every run does the same work.
CAPACITY_RATE = 1500.0
#: Capacity windows per server, alternating mixed and analytical-only so
#: that slow drifts of the machine affect both alike.
CAPACITY_WINDOWS = 8
#: Requests kept in flight by the capacity measurement.
WINDOW = 64
#: A request still unanswered this long after the last one was due
#: counts as timed out.
DRAIN_TIMEOUT_S = 15.0


def scenario_generator() -> ScenarioGenerator:
    """The trace scenarios of the catalogue; the server expands it too."""
    return ScenarioGenerator(name="serve-mix", seed=POOL_SEED,
                             count=TRACE_SCENARIOS, families=FAMILIES)


# -- inputs ------------------------------------------------------------------------


class Traffic:
    """The request catalogue: a design pool, environments, popularity."""

    def __init__(self) -> None:
        rng = random.Random(POOL_SEED)
        self.environments = ["paper", *scenario_generator().expand()]
        self.designs: List[Tuple[str, object]] = []
        for workload in WORKLOADS:
            network = zoo.workload_by_name(workload)
            mapper = MappingOptimizer(network)
            defaults = tuple(LayerMapping.default(layer) for layer in network)
            for setup in SETUPS:
                space = (DesignSpace.existing_aut() if setup == "existing"
                         else DesignSpace.future_aut())
                found = 0
                while found < DESIGNS_PER_CELL:
                    genome = space.sample(rng)
                    seeded = space.to_design(genome, defaults)
                    mappings = mapper.optimize(seeded.energy, seeded.inference)
                    if mappings is not None:
                        self.designs.append(
                            (workload, space.to_design(genome, mappings)))
                        found += 1
        ranks = list(range(len(self.designs)))
        rng.shuffle(ranks)
        self.weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in ranks]
        # Step requests use the trace scenarios only -- a step simulation
        # of some mobilenet designs under "paper" takes up to a second,
        # so one such request more or less would decide a run's p99 --
        # and cycle through a fixed list, so that every run prices the
        # same mix of step costs (see README.md).
        self.step_keys = [
            (design, rng.choice(self.environments[1:]), "step")
            for design in rng.choices(range(len(self.designs)), self.weights,
                                      k=STEP_KEYS)]
        self._bodies: Dict[tuple, bytes] = {}
        #: Direct evaluations of every request key verified so far.
        self.verified: Dict[tuple, dict] = {}

    def draw_analytical(self, rng: random.Random) -> tuple:
        """One analytical request key ``(design index, environment, fidelity)``."""
        design = rng.choices(range(len(self.designs)), self.weights)[0]
        if rng.random() < PAPER_SHARE:
            return design, "paper", "analytical"
        return design, rng.choice(self.environments[1:]), "analytical"

    def body(self, key: tuple) -> bytes:
        """The request line after its id, encoded once per key."""
        body = self._bodies.get(key)
        if body is None:
            design, environment, fidelity = key
            workload, aut = self.designs[design]
            text = json.dumps({"design": design_to_dict(aut), "workload": workload,
                               "environment": environment, "fidelity": fidelity},
                              separators=(",", ":"))
            body = self._bodies[key] = text[1:].encode("utf-8") + b"\n"
        return body

    def expected(self, key: tuple) -> dict:
        """What the server must answer: direct ``repro.evaluate()``."""
        if key not in self.verified:
            self.verified[key] = self._evaluate(key)
        return self.verified[key]

    def _evaluate(self, key: tuple) -> dict:
        design, environment, fidelity = key
        workload, aut = self.designs[design]
        report = api.evaluate(aut, workload, environment, fidelity=fidelity)
        return json.loads(json.dumps({
            "workload": report.workload,
            "fidelity": report.fidelity,
            "feasible": report.feasible,
            "metrics": metrics_to_dict(report.metrics),
            "by_environment": {name: metrics_to_dict(metrics)
                               for name, metrics in report.by_environment.items()},
        }))


# -- the server process -------------------------------------------------------------


class Server:
    """One ``server.py`` subprocess."""

    def __init__(self, trace: bool = False, spans: Optional[str] = None,
                 sample: bool = True) -> None:
        command = [sys.executable, str(HERE / "server.py"), "--trace", str(int(trace)),
                   "--sample", str(int(sample and not trace))]
        if spans:
            command += ["--spans", spans]
        self.proc = subprocess.Popen(
            command, cwd=str(ROOT), env=program_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.stop()
            raise BenchmarkError(f"server did not start: {line!r}")
        fields = line.split()
        self.port = int(fields[1])
        #: Set-up seconds as measured, then scaled (untraced servers only).
        self.setup_s = [float(value) for value in fields[2:]]

    def command(self, text: str) -> Optional[dict]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if text != "report":
            return None
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- the load generator ---------------------------------------------------------------


class Load:
    """Two connections, responses matched to requests by id."""

    def __init__(self, traffic: Traffic) -> None:
        self.traffic = traffic
        self.conns: List[tuple] = []
        self.next_id = 0
        self.waiting: Dict[int, tuple] = {}
        self.responses: Dict[tuple, dict] = {}
        self.mismatched: List[tuple] = []
        self.readers: List[asyncio.Task] = []
        #: Position in the traffic's step-key rotation (``None``: not
        #: started; the start is drawn from the first rng that needs it).
        self.step_next: Optional[int] = None

    async def connect(self, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            self.conns.append((reader, writer))
            self.readers.append(asyncio.create_task(self._read(reader)))

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)
        for _, writer in self.conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def send(self, key: tuple, on_done) -> None:
        ident = self.next_id
        self.next_id += 1
        self.waiting[ident] = (key, on_done)
        _, writer = self.conns[ident % len(self.conns)]
        writer.write(b'{"id":%d,' % ident + self.traffic.body(key))

    async def _read(self, reader) -> None:
        loop = asyncio.get_running_loop()
        while True:
            line = await reader.readline()
            if not line:
                return
            now = loop.time()
            response = json.loads(line)
            key, on_done = self.waiting.pop(response["id"])
            ok = bool(response.get("ok"))
            if ok:
                report = response["report"]
                first = self.responses.setdefault(key, report)
                if first != report:
                    self.mismatched.append(key)
            on_done(now, ok)

    async def drain(self, until: float) -> None:
        loop = asyncio.get_running_loop()
        while self.waiting and loop.time() < until:
            await asyncio.sleep(0.005)
        for writer in (w for _, w in self.conns):
            await writer.drain()

    async def open_loop(self, rate: float, count: int, rng: random.Random) -> dict:
        """``count`` requests due at a fixed ``rate`` per second."""
        loop = asyncio.get_running_loop()
        keys = [self.draw(rng) for _ in range(count)]
        for key in keys:
            self.traffic.body(key)  # encode before the clock starts
        schedule = stats.OpenLoop(loop.time() + 0.05, rate, count)

        def finisher(index):
            return lambda now, ok: schedule.answered(index, now, ok)

        for index, key in enumerate(keys):
            delay = schedule.delay(index, loop.time())
            if delay > 0:
                await asyncio.sleep(delay)
            schedule.sent(index, loop.time())
            self.send(key, finisher(index))
            if index % 64 == 0:
                await asyncio.gather(*(w.drain() for _, w in self.conns))
        await self.drain(schedule.due[-1] + DRAIN_TIMEOUT_S)
        good = schedule.succeeded()
        return {"count": count, "failed": count - len(good), "schedule": schedule,
                "max_lag_s": schedule.max_lag,
                "wall_s": loop.time() - schedule.due[0]}

    def draw(self, rng: random.Random, step_share: float = STEP_SHARE) -> tuple:
        """The next request key of the traffic mix."""
        if rng.random() >= step_share:
            return self.traffic.draw_analytical(rng)
        keys = self.traffic.step_keys
        if self.step_next is None:
            self.step_next = rng.randrange(len(keys))
        self.step_next += 1
        return keys[self.step_next % len(keys)]

    def drawer(self, rng: random.Random, step_share: float = STEP_SHARE):
        """A key source drawing from the traffic mix."""
        return lambda: self.draw(rng, step_share)

    async def closed_loop(self, next_key, *, seconds: float = 0.0,
                          count: int = 0) -> dict:
        """Keep :data:`WINDOW` requests in flight; successes per second.

        Sends ``next_key()`` for ``seconds`` when given, else until
        ``count`` requests have been sent, then waits for the last.
        Error and shed replies free their slot but do not count as
        completed, so failing fast cannot raise the rate.
        """
        loop = asyncio.get_running_loop()
        finished = asyncio.Event()
        state = {"sent": 0, "answered": 0, "failed": 0}
        started = loop.time()
        deadline = started + seconds if seconds else math.inf

        def finish(now, succeeded):
            state["answered"] += 1
            state["failed"] += not succeeded
            if now < deadline and (not count or state["sent"] < count):
                issue()
            elif state["answered"] == state["sent"]:
                finished.set()

        def issue():
            state["sent"] += 1
            self.send(next_key(), finish)

        for _ in range(WINDOW if not count else min(WINDOW, count)):
            issue()
        give_up = (deadline if seconds else started + 600) + DRAIN_TIMEOUT_S
        while not finished.is_set() and loop.time() < give_up:
            await asyncio.gather(*(w.drain() for _, w in self.conns))
            try:
                await asyncio.wait_for(finished.wait(), timeout=0.05)
            except asyncio.TimeoutError:
                pass
        ended = loop.time()
        completed = state["answered"] - state["failed"]
        return {"count": state["sent"], "completed": completed,
                "failed": state["sent"] - completed, "wall_s": ended - started,
                "span": (started, ended)}


# -- the workload -----------------------------------------------------------------------


def _verify(traffic: Traffic, load: Load, outcome: Outcome) -> None:
    outcome.check(not load.mismatched,
                  f"{len(load.mismatched)} request keys got differing responses")
    for key, response in sorted(load.responses.items(), key=repr):
        outcome.check(response == traffic.expected(key),
                      f"response for {key} differs from repro.evaluate()")


def _count(outcome: Outcome, phase: dict) -> None:
    outcome.attempted += phase["count"]
    outcome.failed += phase["failed"]


def _pin(pids, cpus) -> None:
    """Bind every thread of the processes ``pids`` to ``cpus``."""
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            os.sched_setaffinity(int(tid), cpus)


async def _session(server: Server, traffic: Traffic, rng: random.Random,
                   outcome: Outcome, *, window_requests: int = 0,
                   nominal: int = 0, capacity_requests: int = 0) -> dict:
    """Warm one server, then measure; every response is verified.

    Warming prices every analytical request once, so the measurement
    starts with the program's caches filled.  ``nominal`` requests are
    then sent open-loop at :data:`NOMINAL_RATE`, with this process and
    the server on one core: a request then wakes its receiver on the
    core the sender runs on, not an idle vCPU, whose wake-up time is the
    hypervisor's and varies with the host's other load.  Capacity
    alternates :data:`CAPACITY_WINDOWS` mixed and analytical-only windows
    of ``window_requests`` each on every core, or sends
    ``capacity_requests`` mixed requests.
    """
    load = Load(traffic)
    await load.connect(server.port)
    result: Dict[str, dict] = {}
    try:
        warm = [(design, environment, "analytical")
                for design in range(len(traffic.designs))
                for environment in traffic.environments]
        _count(outcome, await load.closed_loop(iter(warm).__next__, count=len(warm)))
        server.command("reset")
        if nominal:
            cpus = os.sched_getaffinity(0)
            _pin((os.getpid(), server.proc.pid), {min(cpus)})
            try:
                result["nominal"] = await load.open_loop(NOMINAL_RATE, nominal, rng)
            finally:
                _pin((os.getpid(), server.proc.pid), cpus)
        if capacity_requests:
            result["capacity"] = await load.closed_loop(
                load.drawer(rng), count=capacity_requests)
        for window in range(CAPACITY_WINDOWS if window_requests else 0):
            kind = ("mixed", "analytical")[window % 2]
            phase = await load.closed_loop(
                load.drawer(rng, STEP_SHARE if kind == "mixed" else 0.0),
                count=window_requests)
            total = result.setdefault(kind, {"count": 0, "failed": 0, "windows": []})
            total["count"] += phase["count"]
            total["failed"] += phase["failed"]
            total["windows"].append((phase["completed"], phase["span"]))
        result["server"] = server.command("report")
    finally:
        await load.close()
    for name, phase in result.items():
        if name != "server":
            _count(outcome, phase)
    _verify(traffic, load, outcome)
    return result


def measure(seed: int, seconds: float, speed: HostSpeed) -> Outcome:
    """Latency and capacity on each of several servers.

    Every server is started (a set-up sample), warmed and measured.  It
    samples the host's speed itself (``hostspeed.py``), and its set-up,
    its capacity windows and its latencies are scaled to the reference
    host speed with its own samples.  What the samples cannot see -- a
    vCPU taken away by the hypervisor, which leaves the two processes
    one core -- only ever slows a server down, so the upper quartile of
    the capacity windows and the best server's p50 are reported, with
    the median set-up.  ``speed`` samples this process, for the record.
    """
    outcome = Outcome()
    traffic = Traffic()
    rng = random.Random(seed)
    setups: List[List[float]] = []
    windows: Dict[str, List[Tuple[float, float]]] = {"mixed": [], "analytical": []}
    p50s: List[Tuple[float, float]] = []
    pooled: List[float] = []
    rss: List[float] = []
    max_lag = 0.0
    for _ in range(SETUP_SAMPLES):
        server = Server()
        setups.append(server.setup_s)
        try:
            session = asyncio.run(_session(
                server, traffic, rng, outcome,
                window_requests=max(WINDOW, round(
                    CAPACITY_RATE * CAPACITY_SHARE * seconds / SETUP_SAMPLES
                    / CAPACITY_WINDOWS)),
                nominal=int(NOMINAL_RATE * NOMINAL_SHARE * seconds / SETUP_SAMPLES)))
        finally:
            server.stop()
        server_speed = HostSpeed.from_samples(*session["server"]["speed"])
        for kind in windows:
            windows[kind].extend(
                (completed / server_speed.scaled(*span), completed / raw(*span))
                for completed, span in session[kind]["windows"])
        schedule = session["nominal"]["schedule"]
        p50 = stats.percentile(schedule.succeeded(), 50)
        if p50 is None:
            raise BenchmarkError(f"{len(schedule.succeeded())} answered requests "
                                 "per server are too few for a p50; raise --seconds")
        p50s.append((p50 / server_speed.slowdown(schedule.due[0], schedule.due[-1]),
                     p50))
        pooled.extend(schedule.succeeded())
        rss.append(session["server"]["peak_rss_mb"])
        max_lag = max(max_lag, schedule.max_lag)

    def capacity(kind: str, column: int = 0) -> float:
        return statistics.quantiles([w[column] for w in windows[kind]], n=4)[2]

    setup = [scaled for _, scaled in setups]
    best = min(range(len(p50s)), key=lambda i: p50s[i][0])
    outcome.metrics.update({
        "setup_s": (stats.median(setup), "s"),
        "peak_rss_mb": (stats.median(rss), "MB"),
        "throughput_per_s": (capacity("mixed"), "1/s"),
        "fast_path_per_s": (capacity("analytical"), "1/s"),
        "latency_ms": (1000.0 * p50s[best][0], "ms"),
    })
    report = session["server"]
    outcome.note("setup samples (s, scaled): " + ", ".join(f"{s:.4f}" for s in setup))
    outcome.note("setup samples (s, unscaled): "
                 + ", ".join(f"{raw_s:.4f}" for raw_s, _ in setups))
    outcome.note(f"verified {len(traffic.verified)} distinct requests against "
                 "repro.evaluate()")
    outcome.note("peak RSS per server (MB): " + ", ".join(f"{v:.3f}" for v in rss))
    outcome.note(f"p50 per server at {NOMINAL_RATE:g} req/s offered (ms, scaled): "
                 + ", ".join(f"{1000 * scaled:.3f}" for scaled, _ in p50s)
                 + f"; serve_p50_ms {1000 * p50s[best][0]:.3f} (best server; "
                 f"unscaled {1000 * p50s[best][1]:.3f})")
    outcome.note(f"over all {len(pooled)} answered requests, unscaled: " + ", ".join(
        f"p{q} " + ("n/a" if v is None else f"{1000 * v:.3f} ms")
        for q, v in ((q, stats.percentile(pooled, q)) for q in (50, 90, 99))))
    outcome.note(f"loadgen.max_lag_ms {1000 * max_lag:.3f}")
    outcome.note(f"serve_max_rps {capacity('mixed'):.1f} req/s mixed, "
                 f"{capacity('analytical'):.1f} analytical only (window {WINDOW}, "
                 f"upper quartile of {len(windows['mixed'])} windows each); unscaled "
                 f"{capacity('mixed', 1):.1f} and {capacity('analytical', 1):.1f}")
    outcome.note("last server: " + ", ".join(
        f"{k} {report[k]:.4g}" for k in (
            "requests", "coalesce_rate", "batches", "batch_occupancy", "shed",
            "timeouts", "failures", "queue_wait_p99_ms")))
    return outcome


#: Fixed work of the traced run.
TRACE_NOMINAL_REQUESTS = 1500
TRACE_CAPACITY_REQUESTS = 3000


def trace(seed: int) -> Outcome:
    """The same fixed work on an untraced and on a traced server."""
    traffic = Traffic()
    spans = out_dir() / "trace-serve-mix.csv.gz"
    runs = {}
    outcome = Outcome()
    for traced in (False, True):
        server = Server(trace=traced, spans=str(spans) if traced else None,
                        sample=False)
        try:
            runs[traced] = asyncio.run(_session(
                server, traffic, random.Random(seed), outcome,
                nominal=TRACE_NOMINAL_REQUESTS,
                capacity_requests=TRACE_CAPACITY_REQUESTS))
        finally:
            server.stop()
    traced_run = runs[True]
    report = traced_run["server"]
    layers = report["layers"]
    extra = {
        "serve.requests": report["requests"],
        "serve.coalesce_rate": report["coalesce_rate"],
        "serve.batches": report["batches"],
        "serve.batch_occupancy": report["batch_occupancy"],
        "serve.queue_wait_p99_ms": report["queue_wait_p99_ms"],
        "serve.shed": report["shed"],
        "serve.timeouts": report["timeouts"],
        "loadgen.max_lag_ms": 1000.0 * traced_run["nominal"]["max_lag_s"],
        "error_rate": stats.error_rate(outcome.attempted, outcome.failed),
    }
    extra.update(common.reconciliation(
        report["window_s"], layers, report["threads"], report["spans"],
        traced_work_s=traced_run["capacity"]["wall_s"],
        untraced_work_s=runs[False]["capacity"]["wall_s"]))
    values = common.per_layer_metrics(layers, report["counts"], extra)
    outcome.note(f"spans written to {spans.relative_to(ROOT)}")
    outcome.note(f"tracing overhead measured on {TRACE_CAPACITY_REQUESTS} "
                 f"requests with {WINDOW} in flight")
    outcome.metrics.update(
        {name: (value, common.PER_LAYER_UNITS[name]) for name, value in values.items()})
    return outcome
