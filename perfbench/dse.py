"""``dse-future``: fixed-budget bi-level searches on the future AuT space.

Each search runs twice, on the default GA path and with
``GAConfig(batched=True)``, and the process-wide layer-cost cache and
mapper memo are cleared before every search, as for a fresh
``repro search``.  Every run repeats the same searches (GA seed
:data:`GA_SEED`); the run's seed only orders the networks within a
pass.  ``reference/dse.json`` records each network's best score and
design.

Regenerate the reference (after a deliberate change of results) with::

    PYTHONPATH=src python3 perfbench/dse.py --write-reference
"""

from __future__ import annotations

import random
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.dataflow.cost_model import clear_layer_cost_cache
from repro.errors import ChrysalisError
from repro.explore.bilevel import BilevelExplorer, SearchResult
from repro.explore.ga import GAConfig
from repro.explore.mapper_search import clear_mapper_memo
from repro.explore.objectives import Objective
from repro.explore.space import DesignSpace
from repro.workloads import zoo

import stats
from common import (HERE, BenchmarkError, CacheCounter, Outcome,
                    fingerprint_design, load_json, passes_for, write_json)
from hostspeed import HostSpeed, raw

#: The depthwise (mobilenet), conv/residual (resnet18) and
#: matmul/embedding (bert) layer kinds.
NETWORKS = ("mobilenet", "resnet18", "bert")
POPULATION = 6
GENERATIONS = 2
#: Every pass repeats the same searches.
GA_SEED = 0
#: Seconds one pass over the networks takes on a 2-core x86 VM.
PASS_SECONDS = 6.0
REFERENCE = HERE / "reference" / "dse.json"
MODES = ("default", "batched")


class Program:
    """The set-up a search needs: one design space and the networks."""

    def __init__(self) -> None:
        self.space = DesignSpace.future_aut()
        self.networks = {name: zoo.workload_by_name(name) for name in NETWORKS}

    def search(self, network: str, ga_seed: int, batched: bool
               ) -> Tuple[SearchResult, Tuple[float, float]]:
        """One cold search and its ``(start, end)`` clock readings."""
        clear_layer_cost_cache()
        clear_mapper_memo()
        started = time.perf_counter()
        result = BilevelExplorer(
            network=self.networks[network],
            space=self.space,
            objective=Objective.lat_sp(),
            ga_config=GAConfig(population_size=POPULATION,
                               generations=GENERATIONS, seed=ga_seed,
                               batched=batched),
        ).run()
        return result, (started, time.perf_counter())


def setup() -> Program:
    return Program()


def fingerprint(result: SearchResult) -> Dict[str, object]:
    return {"score": result.score, "design": fingerprint_design(result.design)}


def _identity(result: SearchResult) -> tuple:
    """Everything the default and batched paths must agree on exactly."""
    return (fingerprint(result), tuple(result.history.best),
            tuple(result.history.mean), result.history.evaluations,
            result.stats.hw_evaluations,
            [(p.values, fingerprint_design(p.payload)) for p in result.evaluated])


class _Pair:
    """Both modes of one (network, GA seed) search."""

    def __init__(self, network: str, ga_seed: int) -> None:
        self.network = network
        self.ga_seed = ga_seed
        self.genomes: Dict[str, int] = {}
        self.spans: Dict[str, Tuple[float, float]] = {}


def _search_pair(program: Program, network: str, ga_seed: int,
                 reference: Dict[str, dict], outcome: Outcome) -> Optional[_Pair]:
    pair = _Pair(network, ga_seed)
    results = {}
    for mode in MODES:
        outcome.attempted += 1
        try:
            result, span = program.search(network, ga_seed,
                                          batched=(mode == "batched"))
        except ChrysalisError as error:
            outcome.failed += 1
            outcome.note(f"{network}/{mode}/seed {ga_seed} failed: {error}")
            continue
        results[mode] = result
        pair.genomes[mode] = result.stats.hw_evaluations
        pair.spans[mode] = span
    if len(results) != len(MODES):
        return None
    label = f"{network} GA seed {ga_seed}"
    outcome.check(_identity(results["default"]) == _identity(results["batched"]),
                  f"{label}: default and batched searches differ")
    expected = reference.get(network)
    outcome.check(expected == fingerprint(results["default"]),
                  f"{label}: best score/design {fingerprint(results['default'])} "
                  f"!= reference {expected}")
    return pair


def _order(program: Program, seed: int) -> List[str]:
    order = list(program.networks)
    random.Random(seed).shuffle(order)
    return order


def measure(seed: int, seconds: float, between_passes, speed: HostSpeed) -> Outcome:
    """Repeated passes over every network; the median of each search.

    A pass runs each network's search pair once, in an order drawn from
    ``seed``, and every pass repeats the same cold searches.  Each
    search's time is scaled to the reference host speed by ``speed``,
    which samples the host while the passes run; per network and mode
    the median over passes counts, and networks are combined by
    geometric mean so that each counts equally.  ``between_passes()``
    runs before every pass, outside the timings.
    """
    outcome = Outcome()
    program = Program()
    reference = load_json(REFERENCE)
    order = _order(program, seed)
    passes = passes_for(seconds, PASS_SECONDS)
    pairs: List[_Pair] = []
    for _ in range(passes):
        between_passes()
        for network in order:
            pair = _search_pair(program, network, GA_SEED, reference, outcome)
            if pair is not None:
                pairs.append(pair)
    if {pair.network for pair in pairs} != set(order):
        raise BenchmarkError("some network has no completed search pair")

    def median_rate(network: str, mode: str, seconds_of) -> float:
        return stats.median([pair.genomes[mode] / seconds_of(*pair.spans[mode])
                             for pair in pairs if pair.network == network])

    rate = {(net, mode): median_rate(net, mode, speed.scaled)
            for net in order for mode in MODES}
    raw_rate = {(net, mode): median_rate(net, mode, raw)
                for net in order for mode in MODES}
    evals_per_s = stats.geometric_mean(rate[net, "default"] for net in order)
    batched_evals_per_s = stats.geometric_mean(rate[net, "batched"] for net in order)
    search_ms = {net: stats.median([1000.0 * speed.scaled(*pair.spans["default"])
                                    for pair in pairs if pair.network == net])
                 for net in order}
    outcome.metrics.update({
        "throughput_per_s": (evals_per_s, "1/s"),
        "fast_path_per_s": (batched_evals_per_s, "1/s"),
        "latency_ms": (stats.geometric_mean(search_ms.values()), "ms"),
    })
    outcome.note(f"{passes} passes over {', '.join(order)}: GA seed {GA_SEED}, "
                 f"population {POPULATION} x {GENERATIONS} generations")
    for net in order:
        outcome.note(
            f"  {net:<10} default {rate[net, 'default']:9.2f} genomes/s   "
            f"batched {rate[net, 'batched']:9.2f} genomes/s   batched/default "
            f"{rate[net, 'batched'] / rate[net, 'default']:.2f}x   "
            f"search {search_ms[net]:9.1f} ms")
    outcome.note(f"evals_per_s {evals_per_s:.3f} genomes/s, batched_evals_per_s "
                 f"{batched_evals_per_s:.3f} genomes/s (geometric means over networks "
                 "of the median pass, at the reference host speed)")
    outcome.note(
        "unscaled: evals_per_s "
        f"{stats.geometric_mean(raw_rate[net, 'default'] for net in order):.3f}, "
        "batched_evals_per_s "
        f"{stats.geometric_mean(raw_rate[net, 'batched'] for net in order):.3f}")
    return outcome


def trace(seed: int, tracer, traced) -> Dict[str, object]:
    """One pass -- every network, both modes -- for the traced run.

    ``traced(fn)`` runs ``fn`` with the instrumentation installed and
    returns its wall time; the same pass also runs untraced, before and
    after, and their mean is the untraced wall.
    """
    program = Program()
    order = _order(program, seed)
    caches = CacheCounter()

    def one_pass(count_caches: bool = False) -> None:
        for network in order:
            for mode in MODES:
                tracer.set_context(f"{network}/{mode}/{GA_SEED}")
                program.search(network, GA_SEED, batched=(mode == "batched"))
                if count_caches:
                    caches.add()

    def untraced() -> float:
        started = time.perf_counter()
        one_pass()
        return time.perf_counter() - started

    before = untraced()
    wall = traced(lambda: one_pass(count_caches=True))
    after = untraced()
    outcome = Outcome()
    reference = load_json(REFERENCE)
    for network in order:  # the correctness gates
        _search_pair(program, network, GA_SEED, reference, outcome)
    return {"outcome": outcome, "wall_s": wall, "untraced_s": (before + after) / 2.0,
            "extra": caches.metrics()}


def write_reference() -> None:
    """Record every network's default-path winner."""
    program = Program()
    table = {network: fingerprint(program.search(network, GA_SEED, batched=False)[0])
             for network in program.networks}
    write_json(REFERENCE, table)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit(__doc__)
    write_reference()
