"""Tests for parallel genome evaluation and the search-side caches.

The tentpole invariant: with ``workers=N`` and every cache enabled, a
fixed-seed search returns *identical* results to a cold serial run —
same best design, same score, same history, same Pareto points, same
failure records.
"""

import pytest

from repro.dataflow.cost_model import (clear_layer_cost_cache,
                                       configure_layer_cost_cache,
                                       layer_cost_cache_stats)
from repro.errors import ConfigurationError
from repro.explore.bilevel import BilevelExplorer
from repro.explore.ga import GAConfig
from repro.explore.objectives import Objective
from repro.explore.mapper_search import clear_mapper_memo
from repro.explore.parallel import ParallelGenomeEvaluator, WorkerSpec
from repro.explore.space import DesignSpace
from repro.workloads import zoo

SMALL_GA = dict(population_size=6, generations=3, seed=11)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts cold and leaves the process cache enabled."""
    configure_layer_cost_cache(enabled=True)
    clear_layer_cost_cache()
    yield
    configure_layer_cost_cache(enabled=True)
    clear_layer_cost_cache()


def make_explorer(workers=1, **overrides):
    params = dict(SMALL_GA, workers=workers, **overrides)
    return BilevelExplorer(
        network=zoo.har_cnn(),
        space=DesignSpace.existing_aut(),
        objective=Objective.lat_sp(),
        ga_config=GAConfig(**params),
    )


def assert_results_equal(a, b):
    assert a.score == b.score
    assert a.design == b.design
    assert a.history.best == b.history.best
    assert a.history.mean == b.history.mean
    assert a.history.evaluations == b.history.evaluations
    assert [p.values for p in a.evaluated] == [p.values for p in b.evaluated]
    assert [p.payload for p in a.evaluated] == [p.payload for p in b.evaluated]
    assert len(a.failures) == len(b.failures)
    assert ([(r.candidate, r.family, r.stage) for r in a.failures.records]
            == [(r.candidate, r.family, r.stage) for r in b.failures.records])


class TestSerialParallelEquivalence:
    def test_parallel_matches_serial(self):
        serial = make_explorer(workers=1).run()
        clear_layer_cost_cache()
        clear_mapper_memo()
        parallel = make_explorer(workers=2).run()
        assert_results_equal(serial, parallel)

    def test_parallel_cache_accounting_matches_serial(self):
        """Cold parallel cache counters equal cold serial, key for key.

        Regression: before the journal merge-back protocol, each worker
        process re-missed every layer-cost key the other workers (or the
        parent) already held, roughly doubling the reported misses of a
        2-worker run; the memo/journal reclassification pins both cache
        counter pairs to the serial numbers exactly.
        """
        serial = make_explorer(workers=1).run()
        clear_layer_cost_cache()
        clear_mapper_memo()
        parallel = make_explorer(workers=2).run()
        assert (parallel.stats.layer_cost_misses
                == serial.stats.layer_cost_misses)
        assert parallel.stats.layer_cost_hits == serial.stats.layer_cost_hits
        assert parallel.stats.mapper_misses == serial.stats.mapper_misses
        assert parallel.stats.mapper_hits == serial.stats.mapper_hits

    def test_workers_recorded_in_stats(self):
        result = make_explorer(workers=2).run()
        assert result.stats.workers == 2
        assert "workers     : 2" in result.summary()

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            GAConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ParallelGenomeEvaluator(make_explorer(), workers=0)

    def test_worker_spec_roundtrip(self):
        explorer = make_explorer()
        rebuilt = WorkerSpec.from_explorer(explorer).build()
        assert rebuilt.network is explorer.network
        assert rebuilt.environments == explorer.environments
        genome = explorer.space.seed_genomes()[0]
        assert (rebuilt.compute_outcome(genome).score
                == explorer.compute_outcome(genome).score)


class TestMemoization:
    def test_memoized_run_identical_to_cold(self):
        configure_layer_cost_cache(enabled=False)
        cold = make_explorer().run()
        configure_layer_cost_cache(enabled=True)
        clear_layer_cost_cache()
        warm = make_explorer().run()
        assert_results_equal(cold, warm)
        hits, misses = layer_cost_cache_stats()
        assert hits > 0 and misses > 0

    def test_layer_cache_counters_in_stats(self):
        result = make_explorer().run()
        assert result.stats.layer_cost_hits > 0
        assert result.stats.layer_cost_misses > 0
        assert 0.0 < result.stats.layer_cost_hit_rate < 1.0
        assert result.stats.hw_evaluations == result.history.evaluations
        assert result.stats.evals_per_second > 0.0

    def test_stats_dict_has_bench_fields(self):
        stats = make_explorer().run().stats
        d = stats.as_dict()
        for key in ("evals_per_second", "layer_cost_hit_rate",
                    "mapper_hit_rate", "search_seconds", "workers"):
            assert key in d

    def test_disabled_cache_records_nothing(self):
        configure_layer_cost_cache(enabled=False)
        result = make_explorer().run()
        assert result.stats.layer_cost_hits == 0
        assert result.stats.layer_cost_misses == 0


class TestDesignCache:
    def test_winner_not_relowered(self):
        """``run()`` reuses the evaluated winner's lowered design.

        Regression: the pre-v1.1 ``_design_cache`` was keyed by
        ``id(design.mappings)`` and never read, so the winning genome
        paid a second full SW-level search at the end of every run.
        """
        explorer = make_explorer()
        calls = []
        inner = explorer.mapper.optimize
        explorer.mapper.optimize = lambda *a, **kw: (
            calls.append(1) or inner(*a, **kw))
        result = explorer.run()
        assert result.stats.design_cache_hits == 1
        # Every optimize call was a distinct projection seen during the
        # search itself — none were spent re-lowering the winner.
        assert len(calls) == result.stats.mapper_misses

    def test_mapper_cache_shares_projections(self):
        """Two genomes lowering to the same (energy, inference) reuse
        the whole SW-level search result."""
        explorer = make_explorer()
        genome = explorer.space.seed_genomes()[0]
        explorer.evaluate_genome(genome)
        misses_before = explorer.stats.mapper_misses
        explorer.evaluate_genome(dict(genome))
        assert explorer.stats.mapper_misses == misses_before
        assert explorer.stats.mapper_hits >= 1


class TestRunStateReset:
    def test_second_run_does_not_accumulate(self):
        """Regression: ``evaluated``/``failures`` leaked across runs."""
        explorer = make_explorer()
        first = explorer.run()
        n_points = len(first.evaluated)
        n_failures = len(first.failures)
        second = explorer.run()
        assert len(second.evaluated) == n_points
        assert len(second.failures) == n_failures
        assert second.stats.hw_evaluations == first.stats.hw_evaluations
        assert second.score == first.score
        assert second.design == first.design


class TestObservabilityPropagation:
    """Worker spans/metrics must merge on return, bit-identically."""

    @pytest.fixture(autouse=True)
    def obs_off(self):
        from repro.obs import state as obs_state
        obs_state.disable()
        obs_state.reset()
        yield
        obs_state.disable()
        obs_state.reset()

    @staticmethod
    def span_counts(snapshot):
        from collections import Counter

        counts = Counter()

        def walk(node):
            counts[node["name"]] += 1
            for child in node.get("children", ()):
                walk(child)

        for root in snapshot["spans"]["roots"]:
            walk(root)
        return counts

    def test_parallel_spans_match_serial(self):
        from repro.obs import state as obs_state

        obs_state.enable()
        make_explorer(workers=1).run()
        serial = obs_state.snapshot()
        obs_state.reset()
        clear_layer_cost_cache()
        clear_mapper_memo()
        make_explorer(workers=2).run()
        parallel = obs_state.snapshot()

        # The search is bit-identical serial vs parallel, so the span
        # forest (grafted back from the workers) must be too.
        assert self.span_counts(serial) == self.span_counts(parallel)
        assert serial["spans"]["dropped"] == parallel["spans"]["dropped"] == 0
        s = serial["metrics"]["counters"]
        p = parallel["metrics"]["counters"]
        assert s.get("mapper.unmappable", 0) == p.get("mapper.unmappable", 0)


class TestWarmStartSeeding:
    def test_warm_workers_journal_nothing(self, monkeypatch):
        """A second run's workers are seeded with every memo.

        Workers are spawned, not forked, so they inherit no memo state
        and only ``WorkerSpec.memo_seed`` can warm them.  Counter
        equality cannot catch a memo left out of seeding, because the
        parent reclassifies the extra worker misses as hits; an empty
        journal on the warm run can.
        """
        import functools
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.explore import parallel

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))

        def shipped_journals():
            explorer = make_explorer(workers=2)
            journals = []
            apply_outcome = explorer.apply_outcome

            def recording(genome, outcome):
                journals.append(outcome.memo_entries)
                return apply_outcome(genome, outcome)

            explorer.apply_outcome = recording
            explorer.run()
            return journals

        cold = shipped_journals()
        warm = shipped_journals()
        assert {name for entries in cold for name in entries} == {
            "layer_cost", "mapper"}
        assert warm and all(entries == {} for entries in warm)
