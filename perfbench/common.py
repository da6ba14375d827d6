"""Shared plumbing: locating the program, set-up probes, memory, output."""

from __future__ import annotations

import json
import os
import pathlib
import resource
import subprocess
import sys
from typing import Dict, List, Sequence

import stats

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (stores, span dumps) goes here.
OUT = HERE / "out"

#: Set-up is measured at least this many times per run, in fresh
#: processes spread over the run, and the median reported.
SETUP_SAMPLES = 5


class BenchmarkError(Exception):
    """The program is missing, failed, or produced a wrong answer."""


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def require_program() -> None:
    """Put ``src/`` first on the import path; fail if the program is absent.

    The benchmark must never measure some other installed copy of the
    package, so the imported module has to come from this checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"imported repro from {repro.__file__}, not {SRC}")


def fingerprint_design(design) -> str:
    """A short content hash of a design, for the recorded references."""
    import hashlib

    from repro.serialize import design_to_dict

    text = json.dumps(design_to_dict(design), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_json(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: pathlib.Path, table: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def out_dir() -> pathlib.Path:
    OUT.mkdir(exist_ok=True)
    return OUT


def run_probe(args: Sequence[str], timeout_s: float = 60.0) -> dict:
    """Run ``perfbench/probe.py`` in a fresh interpreter; parse its JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        cwd=str(ROOT), env=program_env(), capture_output=True, text=True,
        timeout=timeout_s)
    if proc.returncode != 0:
        raise BenchmarkError(
            f"set-up probe {list(args)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def passes_for(seconds: float, pass_seconds: float) -> int:
    """Passes that take about ``seconds`` on the host ``pass_seconds`` was
    measured on (a 2-core x86 VM); fixed, so that both sides of a
    comparison do the same work."""
    return max(2, round(seconds / pass_seconds))


class SetupSamples:
    """Set-up probes taken between the passes of a run; the median counts.

    Each probe scales its own time to the reference host speed
    (``probe.py``); spreading the probes over the run keeps them from
    sharing one moment of the host.
    """

    def __init__(self, args: Sequence[str]) -> None:
        self.args = list(args)
        self.values: List[float] = []
        self.raw: List[float] = []

    def sample(self) -> None:
        result = run_probe(self.args)
        self.values.append(result["setup_s"])
        self.raw.append(result["raw_setup_s"])

    def median(self) -> float:
        while len(self.values) < SETUP_SAMPLES:
            self.sample()
        return stats.median(self.values)


# -- per-layer catalogue ---------------------------------------------------------

#: Every per-layer metric, in report order, with its unit.  A traced run
#: of any workload reports all of them; layers the workload does not
#: exercise read 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "workloads.layer_dims.calls": "count",
    "dataflow.layer_cost.calls": "count",
    "dataflow.layer_cost.self_s": "s",
    "dataflow.layer_cost.hit_rate": "fraction",
    "dataflow.layer_cost.lookups": "count",
    "dataflow.cost_batch.calls": "count",
    "dataflow.cost_batch.self_s": "s",
    "dataflow.cost_batch.mappings_priced": "count",
    "explore.batch_eval.self_s": "s",
    "explore.batch_eval.genomes": "count",
    "explore.batch_eval.rungs": "count",
    "explore.batch_eval.rungs_per_genome": "ratio",
    "explore.mapper.calls": "count",
    "explore.mapper.self_s": "s",
    "explore.mapper.memo_hit_rate": "fraction",
    "explore.mapper.memo_lookups": "count",
    "sim.analytical.calls": "count",
    "sim.analytical.self_s": "s",
    "sim.analytical.batch_designs": "count",
    "explore.search.calls": "count",
    "explore.search.self_s": "s",
    "explore.search.hw_evaluations": "count",
    "sim.engine.calls": "count",
    "sim.engine.self_s": "s",
    "sim.engine.cycles": "count",
    "sim.engine.cycles_skipped": "count",
    **{f"campaign.store.{op}.{field}": unit
       for op in ("register", "claim", "record_success", "heartbeat", "runs")
       for field, unit in (("calls", "count"), ("busy_s", "s"))},
    "campaign.fleet.lease_lost": "count",
    "campaign.fleet.runs_done": "count",
    **{f"serialize.{fn}.{field}": unit
       for fn in ("solution_to_dict", "load_solution", "design_from_dict")
       for field, unit in (("calls", "count"), ("busy_s", "s"))},
    "serve.requests": "count",
    "serve.coalesce_rate": "fraction",
    "serve.batches": "count",
    "serve.batch_occupancy": "requests",
    "serve.queue_wait_p99_ms": "ms",
    "serve.shed": "count",
    "serve.timeouts": "count",
    "serve.keys.request_key.calls": "count",
    "serve.keys.request_key.busy_s": "s",
    "api.evaluate_batch.calls": "count",
    "api.evaluate_batch.designs_per_call": "designs",
    "api.evaluate_batch.self_s": "s",
    "api.evaluate.calls": "count",
    "api.evaluate.self_s": "s",
    "loadgen.max_lag_ms": "ms",
    "error_rate": "fraction",
    "trace.spans": "count",
    "trace.threads": "count",
    "trace.wall_s": "s",
    "trace.attributed_s": "s",
    "trace.unattributed_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(layers: Dict[str, Dict[str, float]],
                      counts: Dict[str, float],
                      extra: Dict[str, float]) -> Dict[str, float]:
    """Fill the catalogue from a span summary, counters and direct values.

    ``layers`` is :meth:`tracer.Tracer.layers` output; ``counts`` the
    tracer's counters; ``extra`` values measured elsewhere (cache
    statistics, service statistics, the reconciliation).
    """
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for layer, row in layers.items():
        for field in ("calls", "busy_s", "self_s"):
            name = f"{layer}.{field}"
            if name in values:
                values[name] = row[field]
    for name, amount in counts.items():
        if name in values:
            values[name] = amount
    values.update(extra)
    values["explore.batch_eval.rungs_per_genome"] = _ratio(
        values["explore.batch_eval.rungs"], values["explore.batch_eval.genomes"])
    values["api.evaluate_batch.designs_per_call"] = _ratio(
        counts.get("api.evaluate_batch.designs", 0.0),
        values["api.evaluate_batch.calls"])
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise BenchmarkError(f"uncatalogued per-layer metrics: {sorted(unknown)}")
    return values


def reconciliation(wall_s: float, layers: Dict[str, Dict[str, float]],
                   threads: int, spans: int, *, traced_work_s: float,
                   untraced_work_s: float) -> Dict[str, float]:
    """Self times plus the unattributed remainder equal the traced wall.

    ``layers`` must be summarised over the ``threads`` threads that were
    alive for the whole traced window of ``wall_s``; their combined wall
    time is ``threads * wall_s``.  The tracing overhead compares the
    same fixed work timed with and without tracing.
    """
    self_by_layer = {name: row["self_s"] for name, row in layers.items()}
    unattributed = stats.reconcile(threads * wall_s, self_by_layer)
    return {
        "trace.spans": spans,
        "trace.threads": threads,
        "trace.wall_s": wall_s,
        "trace.attributed_s": sum(self_by_layer.values()),
        "trace.unattributed_s": unattributed,
        "trace.untraced_wall_s": untraced_work_s,
        "trace.overhead_s": traced_work_s - untraced_work_s,
        "trace.overhead_ratio": _ratio(traced_work_s - untraced_work_s,
                                       untraced_work_s),
    }


class CacheCounter:
    """Hits and misses of the two process-wide caches (layer costs and
    mapper results), summed over stretches that each start cleared."""

    def __init__(self) -> None:
        self.layer = [0, 0]
        self.mapper = [0, 0]

    def add(self) -> None:
        """Add the counts since the caches were last cleared."""
        from repro.dataflow.cost_model import layer_cost_cache_stats
        from repro.explore.mapper_search import mapper_memo_stats

        for total, probe in ((self.layer, layer_cost_cache_stats),
                             (self.mapper, mapper_memo_stats)):
            hits, misses = probe()
            total[0] += hits
            total[1] += misses

    def metrics(self) -> Dict[str, float]:
        return {
            "dataflow.layer_cost.lookups": sum(self.layer),
            "dataflow.layer_cost.hit_rate": _ratio(self.layer[0], sum(self.layer)),
            "explore.mapper.memo_lookups": sum(self.mapper),
            "explore.mapper.memo_hit_rate": _ratio(self.mapper[0], sum(self.mapper)),
        }


class Outcome:
    """What one workload run produced, before it is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Wrong answers found by the checks; any entry fails the run.
        self.problems: List[str] = []
        #: ``name -> (value, unit)`` of the reported metrics.
        self.metrics: Dict[str, tuple] = {}
        #: Lines printed above the JSON result (workload-specific metrics,
        #: sample counts, per-search detail).
        self.notes: List[str] = []

    def check(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)

    def note(self, line: str) -> None:
        self.notes.append(line)
