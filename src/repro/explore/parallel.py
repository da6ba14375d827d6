"""Process-parallel evaluation of GA generations.

The HW-level genetic algorithm proposes a whole generation of genomes
before it needs any of their fitnesses, and each bi-level fitness is an
independent pure function of the genome — the classic fan-out shape.
:class:`ParallelGenomeEvaluator` plugs into
:class:`~repro.explore.ga.GeneticAlgorithm` as its ``batch_evaluator``
and runs each generation's *uncached* genomes on a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Design constraints, all in the name of serial/parallel bit-equality:

* **generation-synchronous** — the GA's RNG stream is consumed entirely
  while breeding, before any evaluation, so fanning the evaluations out
  cannot perturb selection, crossover, or mutation;
* **deterministic replay** — workers return
  :class:`~repro.explore.stats.GenomeOutcome` records (scores, Pareto
  points, failure records, cache-counter deltas); the parent explorer
  applies them in submission order, exactly as the serial loop would;
* **marshalled failures** — candidate errors are absorbed *inside* the
  worker (``BilevelExplorer.compute_outcome``) into structured
  :class:`~repro.explore.failures.FailureRecord` payloads, so the
  existing penalty machinery sees them unchanged.  Genuine programming
  errors (non-``ChrysalisError``) still propagate and abort the search,
  matching serial behaviour.

Workers are initialized once per process with a picklable
:class:`WorkerSpec` and build their own explorer (with process-local
memos, seeded from the parent's and journaled back per genome through
:mod:`repro.memo`); per-task payloads are just genomes.
"""

from __future__ import annotations

import logging
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.energy.environment import LightEnvironment
from repro.errors import ConfigurationError
from repro.explore.objectives import Objective
from repro.explore.space import DesignSpace, Genome
from repro.explore.stats import GenomeOutcome
from repro.hardware.checkpoint import CheckpointModel
from repro.memo import drain_all, seed_and_journal, snapshot_all
from repro.obs import state as obs_state
from repro.workloads.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.explore.bilevel import BilevelExplorer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to rebuild the evaluator."""

    network: Network
    space: DesignSpace
    objective: Objective
    environments: Tuple[LightEnvironment, ...]
    checkpoint: Optional[CheckpointModel]
    candidate_time_budget_s: Optional[float]
    #: Mirror of the parent's observability switches at pool creation,
    #: so workers record (and ship back) the same telemetry.
    obs_enabled: bool = False
    obs_profile: bool = False
    #: The parent's memo entries at pool creation, by memo name
    #: (:func:`repro.memo.snapshot_all`).  On a warm start (second run
    #: in one process) they stop every worker from re-missing keys the
    #: parent already holds; on a cold start they are simply empty.
    memo_seed: Dict[str, Tuple[tuple, ...]] = field(default_factory=dict)

    @classmethod
    def from_explorer(cls, explorer: "BilevelExplorer") -> "WorkerSpec":
        return cls(
            network=explorer.network,
            space=explorer.space,
            objective=explorer.objective,
            environments=tuple(explorer.environments),
            checkpoint=explorer.checkpoint,
            candidate_time_budget_s=explorer.candidate_time_budget_s,
            obs_enabled=obs_state.OBS.enabled,
            obs_profile=obs_state.OBS.profile,
            memo_seed=snapshot_all(),
        )

    def build(self) -> "BilevelExplorer":
        from repro.explore.bilevel import BilevelExplorer

        return BilevelExplorer(
            network=self.network,
            space=self.space,
            objective=self.objective,
            environments=self.environments,
            checkpoint=self.checkpoint,
            candidate_time_budget_s=self.candidate_time_budget_s,
        )


#: Per-process evaluator, built once by the pool initializer.
_WORKER: Optional["BilevelExplorer"] = None


def _init_worker(spec: WorkerSpec) -> None:
    global _WORKER
    _WORKER = spec.build()
    # Warm the process-local memos with the parent's state, then start
    # journaling so every insert this worker makes ships home inside its
    # GenomeOutcome (seeded entries are not journaled — no echo).
    seed_and_journal(spec.memo_seed)
    if spec.obs_enabled:
        obs_state.enable(profile=spec.obs_profile)


def _compute_outcome(genome: Genome) -> GenomeOutcome:
    assert _WORKER is not None, "worker pool was not initialized"
    if not obs_state.OBS.enabled:
        outcome = _WORKER.compute_outcome(genome)
    else:
        # Merge-on-return: record this task into a fresh scope, ship the
        # snapshot with the result, and drop the worker-local copy (the
        # parent process owns aggregation).
        with obs_state.run_scope() as scope:
            outcome = _WORKER.compute_outcome(genome)
        outcome.obs = scope.snapshot()
        obs_state.reset()
    outcome.memo_entries = drain_all()
    return outcome


class ParallelGenomeEvaluator:
    """Evaluates genome batches on a process pool, in submission order.

    Satisfies the :class:`~repro.explore.ga.BatchEvaluator` protocol.
    The pool is created lazily on the first batch and must be released
    with :meth:`close` (or by using the evaluator as a context manager);
    ``BilevelExplorer.run()`` does both automatically when
    ``GAConfig.workers > 1``.
    """

    def __init__(self, explorer: "BilevelExplorer", workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be at least 1, got {workers}")
        self.explorer = explorer
        self.workers = workers
        self._executor: Optional[Executor] = None

    # -- BatchEvaluator protocol ---------------------------------------------

    def evaluate_many(self, genomes: List[Genome]) -> List[float]:
        """Fitnesses of ``genomes``, side effects replayed in order."""
        executor = self._ensure_executor()
        outcomes = list(executor.map(_compute_outcome, genomes))
        return [self.explorer.apply_outcome(genome, outcome)
                for genome, outcome in zip(genomes, outcomes)]

    # -- lifecycle ------------------------------------------------------------

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            spec = WorkerSpec.from_explorer(self.explorer)
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(spec,),
            )
            logger.debug("started %d evaluation worker(s)", self.workers)
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ParallelGenomeEvaluator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
