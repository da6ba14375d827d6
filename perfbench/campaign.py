"""``campaign-traces``: generated trace campaigns through one fleet worker.

Each campaign is a ``ScenarioGenerator`` over the diurnal, cloudy,
schedule and trickle families x {har, kws} x both setups, with a small
GA budget.  One in-process ``CampaignWorker`` claims, searches and
upserts every run into a fresh SQLite store; every stored winner is
then read back and validated at step fidelity on every scenario of its
campaign.  Process-wide caches are cleared before each campaign and
stay warm across its runs.  Every pass runs the same :data:`CAMPAIGNS`
campaigns; the seed orders them.  ``reference/campaign.json`` records
every run's stored score and winning design.

Regenerate the reference (after a deliberate change of results) with::

    PYTHONPATH=src python3 perfbench/campaign.py --write-reference
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import sys
import time
from typing import Dict, List, Tuple

from repro import api
from repro.campaign.fleet import CampaignWorker
from repro.campaign.runner import execute_search
from repro.campaign.spec import CampaignSpec, ObjectiveSpec
from repro.campaign.store import STATUS_DONE, ResultStore
from repro.dataflow.cost_model import clear_layer_cost_cache
from repro.environments import ScenarioGenerator
from repro.errors import ChrysalisError
from repro.explore.mapper_search import clear_mapper_memo
from repro.serialize import metrics_to_dict, solution_to_dict

import stats
from common import (HERE, CacheCounter, Outcome, fingerprint_design,
                    load_json, out_dir, passes_for, write_json)
from hostspeed import HostSpeed, raw

FAMILIES = ("diurnal", "cloudy", "schedule", "trickle")
SCENARIOS = 8
WORKLOADS = ("har", "kws")
SETUPS = ("existing", "future")
POPULATION = 4
GENERATIONS = 2
#: Runs per campaign re-executed from scratch and compared byte for byte.
REEXECUTED = 2
#: Validations per campaign repeated with exact simulation.
EXACT_CHECKED = 4
EXACT_TOLERANCE = 1e-9
TAIL_PERCENTILE = 90
#: Distinct campaigns (generator seeds) a pass runs; the traced run runs
#: each once, enough runs that the store's share (1-2 %) is resolved.
CAMPAIGNS = 4
#: Seconds one pass over the campaigns takes on a 2-core x86 VM.
PASS_SECONDS = 3.5
REFERENCE = HERE / "reference" / "campaign.json"


def campaign_spec(index: int) -> CampaignSpec:
    name = f"bench-{index}"
    return CampaignSpec(
        name=name,
        workloads=WORKLOADS,
        objectives=(ObjectiveSpec.from_dict({"kind": "lat*sp"}),),
        setups=SETUPS,
        environments=(),
        population=POPULATION,
        generations=GENERATIONS,
        generator=ScenarioGenerator(name=name, seed=index,
                                    count=SCENARIOS, families=FAMILIES),
    )


def _store_path(index: int) -> str:
    return str(out_dir() / f"campaign-{os.getpid()}-{index}.sqlite")


def _remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


def setup(probe: bool = False) -> None:
    """Scenario registration and store creation for the first campaign."""
    spec = campaign_spec(0)
    path = _store_path(-1)
    _remove_store(path)
    try:
        with ResultStore(path) as store:
            store.register(spec.name, spec.expand())
    finally:
        if probe:
            _remove_store(path)


class _Totals:
    """Counts and ``(start, end)`` clock readings of campaigns."""

    def __init__(self) -> None:
        self.runs_done = 0
        self.validations = 0
        self.lease_lost = 0
        #: Worker start to last upsert, one per campaign.
        self.campaign_spans: List[Tuple[float, float]] = []
        #: Validation of every stored winner, one per campaign.
        self.validate_spans: List[Tuple[float, float]] = []
        #: Claim to upsert of each run after a campaign's first.
        self.run_spans: List[Tuple[float, float]] = []


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=EXACT_TOLERANCE, abs_tol=0.0)


def _leaves(value, prefix=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{prefix}.{key}")
    else:
        yield prefix, value


def _metrics_close(fast, exact) -> bool:
    fast_leaves = list(_leaves(metrics_to_dict(fast)))
    exact_leaves = list(_leaves(metrics_to_dict(exact)))
    if [k for k, _ in fast_leaves] != [k for k, _ in exact_leaves]:
        return False
    for (_, a), (_, b) in zip(fast_leaves, exact_leaves):
        if isinstance(a, (int, float)) and not isinstance(a, bool):
            if not _close(float(a), float(b)):
                return False
        elif a != b:
            return False
    return True


def run_campaign(index: int, totals: _Totals, outcome: Outcome,
                 check: bool = True) -> None:
    """One campaign: run it, read it back, validate, then check it."""
    spec = campaign_spec(index)
    labels = spec.generator.expand()
    keys = spec.expand()
    path = _store_path(index)
    _remove_store(path)
    marks: List[float] = []
    worker = CampaignWorker(spec, path, worker_id=f"bench-{os.getpid()}",
                            on_progress=lambda status, row: marks.append(
                                time.perf_counter()))
    try:
        started = time.perf_counter()
        summary = worker.run()
        totals.campaign_spans.append((started, time.perf_counter()))
        totals.runs_done += summary.done
        totals.lease_lost += summary.lease_lost
        # The first run's interval also holds the worker's registration.
        totals.run_spans.extend(zip(marks, marks[1:]))
        outcome.attempted += len(keys)
        outcome.failed += len(keys) - summary.done

        with ResultStore(path) as store:
            rows = store.runs(spec.name)
        outcome.check(len(rows) == len(keys) and all(
            row.status == STATUS_DONE for row in rows),
            f"campaign {spec.name}: not every run is done")

        validated: List[Tuple[object, object, str, object]] = []
        started = time.perf_counter()
        for row in rows:
            solution = row.load_solution()
            for label in labels:
                outcome.attempted += 1
                try:
                    report = api.evaluate(solution.design, row.key.workload,
                                          label, fidelity="step")
                except ChrysalisError as error:
                    outcome.failed += 1
                    outcome.note(f"validation failed: {error}")
                    continue
                validated.append((row, solution, label, report))
        totals.validate_spans.append((started, time.perf_counter()))
        totals.validations += len(validated)
        if check:
            _check_campaign(spec, rows, validated, outcome,
                            random.Random(index))
    finally:
        _remove_store(path)


@functools.lru_cache(maxsize=1)
def _reference() -> Dict[str, Dict[str, dict]]:
    return load_json(REFERENCE)


def _stored(row) -> dict:
    """What the reference records of one stored run."""
    return {"score": row.score,
            "design": fingerprint_design(row.load_solution().design)}


def _check_campaign(spec, rows, validated, outcome: Outcome, rng) -> None:
    expected = _reference().get(spec.name, {})
    outcome.check(sorted(expected) == sorted(row.run_hash for row in rows),
                  f"campaign {spec.name}: runs differ from the reference")
    for row in rows:
        if row.solution is None:
            continue
        outcome.check(_stored(row) == expected.get(row.run_hash),
                      f"{spec.name} run {row.run_hash[:12]}: stored "
                      f"{_stored(row)} != reference {expected.get(row.run_hash)}")
        design = row.load_solution().design
        metrics = api.evaluate(design, row.key.workload, row.key.environment,
                               fidelity="analytical").metrics
        score = row.key.to_objective().score(design, metrics)
        outcome.check(score == row.score,
                      f"{spec.name} run {row.run_hash[:12]}: stored score "
                      f"{row.score!r} != re-priced {score!r}")
    for row in rng.sample(rows, min(REEXECUTED, len(rows))):
        solution, _ = execute_search(row.key)
        fresh = json.loads(json.dumps(solution_to_dict(solution)))
        outcome.check(fresh == row.solution,
                      f"{spec.name} run {row.run_hash[:12]}: stored solution "
                      "differs from a fresh search")
    for row, solution, label, report in rng.sample(
            validated, min(EXACT_CHECKED, len(validated))):
        exact = api.evaluate(solution.design, row.key.workload, label,
                             fidelity="step", fast_forward=False)
        outcome.check(_metrics_close(report.metrics, exact.metrics),
                      f"{spec.name} run {row.run_hash[:12]} on {label}: fast "
                      "and exact simulation differ")


def measure(seed: int, seconds: float, between_passes, speed: HostSpeed) -> Outcome:
    """Repeated passes over :data:`CAMPAIGNS`; each campaign's median pass.

    Every pass runs the same campaigns, in an order drawn from ``seed``,
    each starting from cleared caches.  Times are scaled to the reference
    host speed by ``speed``, which samples the host while the passes
    run.  Every figure is taken per campaign, as the median over passes,
    and combined by geometric mean so that each campaign counts equally.
    ``between_passes()`` runs before every pass, outside the timings.
    """
    outcome = Outcome()
    order = list(range(CAMPAIGNS))
    random.Random(seed).shuffle(order)
    passes = passes_for(seconds, PASS_SECONDS)
    totals: Dict[int, List[_Totals]] = {index: [] for index in order}
    for _ in range(passes):
        between_passes()
        for index in order:
            clear_layer_cost_cache()
            clear_mapper_memo()
            totals[index].append(_Totals())
            run_campaign(index, totals[index][-1], outcome)

    def per_campaign(figure) -> float:
        return stats.geometric_mean(
            stats.median([figure(t) for t in series]) for series in totals.values())

    def seconds_of(spans, seconds=speed.scaled) -> float:
        return math.fsum(seconds(start, end) for start, end in spans)

    runs_per_s = per_campaign(lambda t: t.runs_done / seconds_of(t.campaign_spans))
    validations_per_s = per_campaign(
        lambda t: t.validations / seconds_of(t.validate_spans))
    run_ms = per_campaign(lambda t: 1000.0 * stats.median(
        [speed.scaled(start, end) for start, end in t.run_spans]))
    outcome.metrics.update({
        "throughput_per_s": (runs_per_s, "1/s"),
        "fast_path_per_s": (validations_per_s, "1/s"),
        "latency_ms": (run_ms, "ms"),
    })
    runs = len(WORKLOADS) * len(SETUPS) * SCENARIOS
    every = [t for series in totals.values() for t in series]
    latencies = [end - start for t in every for start, end in t.run_spans]
    tail = stats.percentile(latencies, TAIL_PERCENTILE)
    outcome.note(f"{passes} pass(es) over campaigns {order}: {runs} runs each, "
                 f"population {POPULATION} x {GENERATIONS} generations")
    outcome.note(f"campaign_runs_per_s {runs_per_s:.3f}, validations_per_s "
                 f"{validations_per_s:.3f}, median run {run_ms:.3f} ms (geometric "
                 "means over campaigns of the median pass, at the reference host "
                 "speed)")
    outcome.note(
        "unscaled: campaign_runs_per_s "
        f"{per_campaign(lambda t: t.runs_done / seconds_of(t.campaign_spans, raw)):.3f}"
        ", validations_per_s "
        f"{per_campaign(lambda t: t.validations / seconds_of(t.validate_spans, raw)):.3f}")
    outcome.note(f"run latency, claim to upsert, unscaled: {len(latencies)} samples, "
                 f"p50 {1000 * stats.median(latencies):.3f} ms, p{TAIL_PERCENTILE} "
                 + ("n/a" if tail is None else f"{1000 * tail:.3f} ms"))
    outcome.note(f"lease_lost {sum(t.lease_lost for t in every)}")
    return outcome


def trace(seed: int, tracer, traced) -> Dict[str, object]:
    """One pass over the campaigns, untraced before and after a traced one."""
    outcome = Outcome()
    order = list(range(CAMPAIGNS))
    random.Random(seed).shuffle(order)
    caches = CacheCounter()

    def one_pass(totals: _Totals, count_caches: bool = False) -> None:
        for index in order:
            clear_layer_cost_cache()
            clear_mapper_memo()
            tracer.set_context(f"campaign-{index}")
            run_campaign(index, totals, outcome, check=False)
            if count_caches:
                caches.add()

    def untraced() -> float:
        started = time.perf_counter()
        one_pass(_Totals())
        return time.perf_counter() - started

    traced_totals = _Totals()
    before = untraced()
    wall = traced(lambda: one_pass(traced_totals, count_caches=True))
    after = untraced()
    run_campaign(order[0], _Totals(), outcome)  # the correctness gates
    return {
        "outcome": outcome,
        "wall_s": wall,
        "untraced_s": (before + after) / 2.0,
        "extra": {
            **caches.metrics(),
            "campaign.fleet.lease_lost": traced_totals.lease_lost,
            "campaign.fleet.runs_done": traced_totals.runs_done,
        },
    }


def write_reference() -> None:
    """Record every run's stored score and design, campaign by campaign."""
    table = {}
    for index in range(CAMPAIGNS):
        spec = campaign_spec(index)
        path = _store_path(index)
        _remove_store(path)
        try:
            CampaignWorker(spec, path, worker_id="reference").run()
            with ResultStore(path) as store:
                table[spec.name] = {row.run_hash: _stored(row)
                                    for row in store.runs(spec.name)}
        finally:
            _remove_store(path)
    write_json(REFERENCE, table)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit(__doc__)
    write_reference()
