"""Vectorized in-process evaluation of GA generations.

:class:`VectorizedGenomeEvaluator` plugs into
:class:`~repro.explore.ga.GeneticAlgorithm` as its ``batch_evaluator``
(``GAConfig.batched``) and prices each generation's uncached genomes as
one batch instead of one candidate at a time.  Only the SW-level
mapping search is vectorized (numpy rung tables); every cost, energy
term and Eq. 7 verdict comes from the scalar code:

* genomes are grouped by their :class:`InferenceDesign` projection, so
  hardware is built once per distinct accelerator configuration;
* the SW-level mapping search is replaced by lazy per-layer *rung
  tables*.  Each ``(style, tile_dim, spatial_dim)`` combo of a layer
  has one candidate *ladder* — the ``N_tile`` rungs the scalar
  :class:`~repro.explore.mapper_search.MappingOptimizer` scans in order
  — built once per layer, since it depends only on the layer and the
  mapper.  A table, kept per hardware and reused across generations,
  holds only each ladder's *priced prefix*;
* the scan advances a hardware group rung by rung, like the scalar
  scan: each step prices the next rung of only those ladders where some
  genome of the group has no feasible rung yet, with one
  :meth:`~repro.dataflow.cost_model.DataflowCostModel.layer_cost_batch`
  call per layer covering every pending ladder.  Eq. 8 feasibility,
  first-feasible tracking and the lowest-energy selection run as
  boolean/argmin array operations over ``genomes x ladders``;
* whole-design pricing goes through
  :class:`~repro.sim.analytical.BatchAnalyticalModel`, one call per
  environment for the entire generation, followed by the paper's
  first-infeasible-environment averaging protocol per genome
  (:func:`~repro.sim.evaluator.average_environments`).

Bit-identity contract: scores, lowered designs, Pareto points, failure
records and mapper hit/miss accounting are exactly what the serial
scalar path produces for the same genomes — the selection mirrors the
scalar scan's iteration order and strict-``<`` tie-breaking, tile costs
come from the one cost-model chain, and the rung tables' Eq. 8 test
repeats :meth:`~repro.sim.analytical.EnergyTerms.available` elementwise
on the same :func:`~repro.sim.analytical.energy_terms` values.  The
scalar path stays available as the oracle: any
:class:`~repro.errors.ChrysalisError` escaping the vectorized machinery
drops the affected genomes back to ``BilevelExplorer.compute_outcome``
(counted in ``SearchStats.scalar_fallbacks``).

A rung is priced only when some genome's scalar scan would visit it,
so the batched mode misses the layer-cost cache on no more rungs than
the serial mode for the same genomes.  Cache *hits* differ by design:
the tables answer repeat visits without probing the cache at all.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.dataflow.cost_model import LAYER_COSTS, DataflowCostModel, LayerCost
from repro.dataflow.mapping import LayerMapping
from repro.errors import ChrysalisError, EvaluationTimeout, MappingError
from repro.explore.bilevel import _CANDIDATE_ERRORS
from repro.explore.mapper_search import MAPPINGS
from repro.explore.space import Genome
from repro.explore.stats import GenomeOutcome
from repro.hardware.checkpoint import CheckpointModel
from repro.obs.state import span
from repro.sim.analytical import BatchAnalyticalModel, energy_terms
from repro.sim.evaluator import average_environments
from repro.sim.metrics import InferenceMetrics
from repro.workloads.layers import Layer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.design import AuTDesign
    from repro.explore.bilevel import BilevelExplorer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class _Ladders:
    """Every candidate ladder of one layer, independent of hardware.

    One ladder per ``(style, tile_dim, spatial_dim)`` combo, in the
    scalar scan's iteration order (styles outer, dim pairs inner);
    within a ladder the rungs follow the scalar geometric sequence
    (primary ``N_tile`` doubling, then the secondary-dimension split).
    """

    rungs: Tuple[Tuple[LayerMapping, ...], ...]
    lengths: np.ndarray


class _RungTable:
    """The priced prefix of every ladder of one layer on one hardware.

    Row ``c`` is ladder ``c``; column ``k`` its rung ``k``.  Only the
    first ``priced[c]`` columns of a row hold values (the rest are NaN,
    which no feasibility test accepts).  ``limit[c]`` is how many rungs
    the ladder can ever price: its length, or the index of the first
    rung whose pricing raised :class:`~repro.errors.MappingError` — the
    scalar scan skips a combo once it reaches such a rung, exactly as
    when it runs off the end of the ladder.  ``score`` is each rung's
    combo-selection score: the mean layer energy over the configured
    environments, accumulated like ``MappingOptimizer._mean_energy``.
    """

    def __init__(self, ladders: _Ladders) -> None:
        self.ladders = ladders
        combos = len(ladders.rungs)
        width = int(ladders.lengths.max()) if combos else 0
        self.tile_energy = np.full((combos, width), np.nan)
        self.tile_time = np.full((combos, width), np.nan)
        self.score = np.full((combos, width), np.nan)
        self.priced = np.zeros(combos, dtype=np.int64)
        self.limit = ladders.lengths.copy()

    def extend(self, cost_model: DataflowCostModel, layer: Layer,
               combos: np.ndarray, n_env: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Price the next rung of each ladder in ``combos``, in one call.

        Returns ``(combos, columns, tile_energy, tile_time)`` of the
        rungs priced.  A combo whose rung raises :class:`MappingError`
        ends its ladder there instead; the call is then repeated combo
        by combo so that the others are still priced (those repeats
        probe the layer-cost cache a second time).
        """
        columns = self.priced[combos]
        rungs = [self.ladders.rungs[c][k]
                 for c, k in zip(combos.tolist(), columns.tolist())]
        try:
            costs = cost_model.layer_cost_batch(layer, rungs)
        except MappingError:
            alone = [_price_alone(cost_model, layer, rung) for rung in rungs]
            ended = [i for i, cost in enumerate(alone) if cost is None]
            kept = [i for i, cost in enumerate(alone) if cost is not None]
            self.limit[combos[ended]] = columns[ended]
            combos, columns = combos[kept], columns[kept]
            costs = [alone[i] for i in kept]
        tile_energy = np.array([cost.tile.energy for cost in costs])
        tile_time = np.array([cost.tile.total_time for cost in costs])
        energy = np.array([cost.energy for cost in costs])
        total = np.zeros(len(costs))
        for _ in range(n_env):  # _mean_energy's accumulation, elementwise
            total = total + energy
        self.tile_energy[combos, columns] = tile_energy
        self.tile_time[combos, columns] = tile_time
        self.score[combos, columns] = total / n_env
        self.priced[combos] = columns + 1
        return combos, columns, tile_energy, tile_time


def _price_alone(cost_model: DataflowCostModel, layer: Layer,
                 rung: LayerMapping) -> Optional[LayerCost]:
    """One rung's cost, or ``None`` when its combo cannot be priced."""
    try:
        return cost_model.layer_cost_batch(layer, [rung])[0]
    except MappingError as error:
        logger.debug("skipping %s %s/%s on %s: %s", rung.style.value,
                     rung.tile_dim, rung.spatial_dim, layer.name, error)
        return None


class VectorizedGenomeEvaluator:
    """Prices GA generations in batches; scalar-oracle-identical.

    Satisfies the :class:`~repro.explore.ga.BatchEvaluator` protocol.
    In-process: the shared layer-cost cache and mapper memo are used
    directly, so no journaling/merge-back is needed (unlike
    :class:`~repro.explore.parallel.ParallelGenomeEvaluator`).
    """

    def __init__(self, explorer: "BilevelExplorer") -> None:
        self.explorer = explorer
        self.network = explorer.network
        self.environments = explorer.environments
        self._seed_mappings = tuple(
            LayerMapping.default(layer) for layer in self.network
        )
        #: Every layer's ladders, built on the first scan: a search
        #: whose projections all hit the mapper memo needs none.
        self._ladders: Optional[List[_Ladders]] = None
        #: Rung tables keyed by :class:`InferenceDesign` — the hardware's
        #: cost model and one table per layer, reused across generations.
        self._tables: Dict[object, Tuple[DataflowCostModel,
                                         List[_RungTable]]] = {}

    # -- BatchEvaluator protocol ---------------------------------------------

    def evaluate_many(self, genomes: List[Genome]) -> List[float]:
        """Fitnesses of ``genomes``, side effects replayed in order."""
        if not genomes:
            return []
        with span("search.batch", genomes=len(genomes)):
            outcomes = self._compute_outcomes(genomes)
        return [self.explorer.apply_outcome(genome, outcome)
                for genome, outcome in zip(genomes, outcomes)]

    def close(self) -> None:
        """Protocol parity with the process-pool evaluator (no-op)."""

    # -- one generation ----------------------------------------------------------

    def _compute_outcomes(self, genomes: List[Genome]) -> List[GenomeOutcome]:
        explorer = self.explorer
        started = time.monotonic()
        layer_hits0, layer_misses0 = LAYER_COSTS.stats()
        n = len(genomes)
        outcomes: List[Optional[GenomeOutcome]] = [None] * n
        fallback: List[int] = []

        # 1. Project every genome to its (energy, inference) key.  The
        # same errors the scalar path absorbs per candidate are absorbed
        # here with the same stage labels.
        seeded: List[Optional["AuTDesign"]] = [None] * n
        keys: List[Optional[tuple]] = [None] * n
        for i, genome in enumerate(genomes):
            try:
                design = explorer.space.to_design(genome, self._seed_mappings)
            except _CANDIDATE_ERRORS as error:
                outcomes[i] = GenomeOutcome(
                    score=math.inf,
                    failure=explorer._failure(genome, error,
                                              stage="sw-lowering"))
                continue
            except ChrysalisError as error:
                outcomes[i] = GenomeOutcome(
                    score=math.inf,
                    failure=explorer._failure(genome, error,
                                              stage="hw-fitness"))
                continue
            seeded[i] = design
            keys[i] = (design.energy, design.inference)

        # 2. Group by hardware and resolve mappings (memo probe + one
        # vectorized mapper sweep per group of unseen projections).
        groups: Dict[object, List[int]] = {}
        for i in range(n):
            if seeded[i] is not None:
                groups.setdefault(seeded[i].inference, []).append(i)
        mappings_by_index: Dict[int, Optional[Tuple[LayerMapping, ...]]] = {}
        probe_hits: Dict[int, bool] = {}
        for inference, indices in groups.items():
            try:
                self._resolve_group(inference, indices, seeded, keys,
                                    mappings_by_index, probe_hits)
            except ChrysalisError as error:
                logger.warning(
                    "batched mapper sweep failed (%s: %s); falling back to "
                    "scalar evaluation for %d genome(s)",
                    type(error).__name__, error, len(indices))
                for i in indices:
                    probe_hits.pop(i, None)
                    mappings_by_index.pop(i, None)
                    fallback.append(i)

        # 3. Lower the mappable genomes and price them — one batched
        # analytical sweep per environment over the whole generation.
        with_design: List[int] = []
        designs: Dict[int, "AuTDesign"] = {}
        for i in sorted(mappings_by_index):
            mappings = mappings_by_index[i]
            if mappings is None:
                continue
            try:
                designs[i] = explorer.space.to_design(genomes[i], mappings)
            except _CANDIDATE_ERRORS as error:
                outcomes[i] = GenomeOutcome(
                    score=math.inf,
                    failure=explorer._failure(genomes[i], error,
                                              stage="sw-lowering"))
                mappings_by_index.pop(i)
                continue
            except ChrysalisError as error:
                outcomes[i] = GenomeOutcome(
                    score=math.inf,
                    failure=explorer._failure(genomes[i], error,
                                              stage="hw-fitness"))
                mappings_by_index.pop(i)
                continue
            with_design.append(i)
        metrics_by_env: List[List[InferenceMetrics]] = []
        if with_design:
            design_list = [designs[i] for i in with_design]
            try:
                for environment in self.environments:
                    model = BatchAnalyticalModel(self.network, environment,
                                                 explorer.checkpoint)
                    metrics_by_env.append(model.evaluate_many(design_list))
            except ChrysalisError as error:
                logger.warning(
                    "batched pricing failed (%s: %s); falling back to scalar "
                    "evaluation for %d genome(s)",
                    type(error).__name__, error, len(with_design))
                for i in with_design:
                    probe_hits.pop(i, None)
                    mappings_by_index.pop(i, None)
                    fallback.append(i)
                with_design = []
                metrics_by_env = []

        # 4. Assemble outcomes: the first-infeasible-environment
        # protocol, objective scoring, Pareto points and the per-genome
        # time-budget check, mirroring BilevelExplorer._compute_outcome.
        vector_count = n - len(fallback)
        share = ((time.monotonic() - started) / vector_count
                 if vector_count else 0.0)
        budget = explorer.candidate_time_budget_s
        for position, i in enumerate(with_design):
            design: Optional["AuTDesign"] = designs[i]
            score = math.inf
            point: Optional[Tuple[float, float]] = None
            failure = None
            if budget is not None and share > budget:
                timeout = EvaluationTimeout(
                    f"candidate evaluation exceeded its "
                    f"{budget:.3g} s budget"
                )
                failure = explorer._failure(genomes[i], timeout,
                                            stage="hw-fitness")
                design = None
            else:
                final = average_environments(
                    env_metrics[position] for env_metrics in metrics_by_env)
                score = explorer.objective.score(design, final)
                if final.feasible and math.isfinite(final.e2e_latency):
                    latency = final.sustained_period or final.e2e_latency
                    point = (design.energy.panel_area_cm2, latency)
            outcomes[i] = GenomeOutcome(
                score=score,
                design=design if math.isfinite(score) else None,
                point=point,
                failure=failure,
            )
        for i, mappings in mappings_by_index.items():
            if mappings is None and outcomes[i] is None:
                # Unmappable projection: infinite score, no failure
                # record — exactly what lower_genome() returning None
                # produces on the scalar path.
                outcomes[i] = GenomeOutcome(score=math.inf)

        # 5. Per-genome bookkeeping.  Mapper counters replay the scalar
        # accounting probe-for-probe; the generation's layer-cost cache
        # activity (rung tables + final pricing) is attributed to the
        # first vectorized outcome — apply_outcome() only ever sums
        # these deltas, so totals are what matters.
        layer_hits1, layer_misses1 = LAYER_COSTS.stats()
        layer_delta: Optional[Tuple[int, int]] = (
            layer_hits1 - layer_hits0, layer_misses1 - layer_misses0)
        for i in range(n):
            outcome = outcomes[i]
            if outcome is None:
                continue
            outcome.eval_seconds = share
            if i in probe_hits:
                if probe_hits[i]:
                    outcome.mapper_hits = 1
                else:
                    outcome.mapper_misses = 1
            if layer_delta is not None:
                outcome.layer_cost_hits, outcome.layer_cost_misses = (
                    layer_delta)
                layer_delta = None

        # 6. Scalar oracle fallback for anything the sweep could not
        # price; compute_outcome re-does its own accounting from scratch.
        for i in fallback:
            outcomes[i] = explorer.compute_outcome(genomes[i])
        explorer.stats.batched_sweeps += 1
        explorer.stats.batched_genomes += vector_count
        explorer.stats.scalar_fallbacks += len(fallback)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    # -- SW-level search, vectorized ------------------------------------------

    def _resolve_group(self, inference: object, indices: List[int],
                       seeded: List[Optional["AuTDesign"]],
                       keys: List[Optional[tuple]],
                       out_mappings: Dict[int, Optional[Tuple[LayerMapping,
                                                              ...]]],
                       probe_hits: Dict[int, bool]) -> None:
        """Memo-probe one hardware group; sweep the unseen projections.

        Counter semantics mirror the serial path exactly: the first
        occurrence of an unseen key is a miss, later occurrences in the
        same generation are hits (serially, the memo is filled before
        they probe) — unless the memo is disabled, in which case every
        genome is a miss and the scan result is merely shared.
        """
        explorer = self.explorer
        memo_on = MAPPINGS.enabled
        resolved: Dict[tuple, Optional[Tuple[LayerMapping, ...]]] = {}
        pending: Dict[tuple, List[int]] = {}
        scan_keys: List[tuple] = []
        scan_designs: List["AuTDesign"] = []
        for i in indices:
            key = keys[i]
            if key in resolved:
                probe_hits[i] = memo_on
                if memo_on:
                    explorer.mapper.memo_note_hit()
                out_mappings[i] = resolved[key]
                continue
            if key in pending:
                probe_hits[i] = memo_on
                if memo_on:
                    explorer.mapper.memo_note_hit()
                pending[key].append(i)
                continue
            hit, mappings = explorer.mapper.memo_probe(key)
            probe_hits[i] = hit
            if hit:
                resolved[key] = mappings
                out_mappings[i] = mappings
            else:
                pending[key] = [i]
                scan_keys.append(key)
                scan_designs.append(seeded[i])  # type: ignore[arg-type]
        if not scan_keys:
            return
        scanned = self._scan(inference, scan_designs)
        for key, mappings in zip(scan_keys, scanned):
            explorer.mapper.memo_fill(key, mappings)
            for i in pending[key]:
                out_mappings[i] = mappings

    def _scan(self, inference: object, designs: List["AuTDesign"]
              ) -> List[Optional[Tuple[LayerMapping, ...]]]:
        """Best mapping per layer per design — the vectorized optimizer.

        Equivalent to ``MappingOptimizer.optimize`` for every design:
        per layer, a rung is usable when Eq. 8 holds in *every*
        environment; within each (style, dims) combo the first feasible
        ladder rung wins; across combos the lowest mean energy wins with
        strict-``<`` (first combo in scan order on ties).  A layer with
        no usable rung makes the design unmappable (``None``), and —
        as in the scalar scan — the design asks for no rung of any
        later layer.
        """
        cost_model, tables = self._tables_for(inference)
        count = len(designs)
        n_env = len(self.environments)
        stored = np.empty(count)
        buck = np.empty(count)
        net = np.empty((n_env, count))
        for g, design in enumerate(designs):
            terms = [energy_terms(design.energy, environment.k_eh)
                     for environment in self.environments]
            stored[g] = terms[0].stored
            buck[g] = terms[0].buck
            net[:, g] = [t.net for t in terms]

        results: List[List[LayerMapping]] = [[] for _ in range(count)]
        alive = np.arange(count)
        budget = (stored, buck, net)
        for layer, table in zip(self.network, tables):
            first = self._first_feasible(table, cost_model, layer, budget)
            combo, rung = _select(table, first)
            mapped = combo >= 0
            if not mapped.all():
                alive = alive[mapped]
                combo, rung = combo[mapped], rung[mapped]
                budget = (budget[0][mapped], budget[1][mapped],
                          budget[2][:, mapped])
            rungs = table.ladders.rungs
            for g, c, k in zip(alive.tolist(), combo.tolist(),
                               rung.tolist()):
                results[g].append(rungs[c][k])
            if not alive.size:
                break
        mappable = set(alive.tolist())
        return [tuple(results[g]) if g in mappable else None
                for g in range(count)]

    def _first_feasible(self, table: _RungTable,
                        cost_model: DataflowCostModel, layer: Layer,
                        budget: Tuple[np.ndarray, np.ndarray, np.ndarray]
                        ) -> np.ndarray:
        """First feasible rung per ``(genome, ladder)``, ``-1`` if none.

        The already-priced prefix is tested for every genome at once;
        then the ladders some genome still needs advance one rung per
        step, one merged pricing call per step, until every genome has
        a feasible rung on every ladder or the ladder has ended.
        """
        n_env = len(self.environments)
        combos = len(table.ladders.rungs)
        first = np.full((len(budget[0]), combos), -1, dtype=np.int64)
        width = int(table.priced.max()) if combos else 0
        if width:
            ok = _feasible(budget, table.tile_energy[:, :width],
                           table.tile_time[:, :width])
            found = ok.any(axis=2)
            first = np.where(found, ok.argmax(axis=2), first)
        while True:
            need = (first < 0) & (table.priced < table.limit)
            pending = np.flatnonzero(need.any(axis=0))
            if not pending.size:
                return first
            pending, columns, tile_energy, tile_time = table.extend(
                cost_model, layer, pending, n_env)
            hit = _feasible(budget, tile_energy, tile_time) & need[:, pending]
            first[:, pending] = np.where(hit, columns, first[:, pending])

    def _tables_for(self, inference: object
                    ) -> Tuple[DataflowCostModel, List[_RungTable]]:
        entry = self._tables.get(inference)
        if entry is None:
            if self._ladders is None:
                mapper = self.explorer.mapper
                self._ladders = [_layer_ladders(mapper, layer)
                                 for layer in self.network]
            hardware = inference.build()  # type: ignore[attr-defined]
            checkpoint = self.explorer.checkpoint or CheckpointModel(
                nvm=hardware.nvm.technology
            )
            entry = (DataflowCostModel(hardware, checkpoint),
                     [_RungTable(ladders) for ladders in self._ladders])
            self._tables[inference] = entry
        return entry


def _feasible(budget: Tuple[np.ndarray, np.ndarray, np.ndarray],
              tile_energy: np.ndarray, tile_time: np.ndarray) -> np.ndarray:
    """Eq. 8 in every environment: ``genomes x tile_energy.shape``.

    ``budget`` is ``(stored, buck, net)``: per genome the usable stored
    energy and buck efficiency, and per environment and genome the net
    charging power — the terms :meth:`EnergyTerms.tile_feasible` uses.
    """
    stored, buck, net = budget
    spread = (...,) + (None,) * tile_energy.ndim
    available = (stored[spread] + np.maximum(net[spread] * tile_time, 0.0)
                 ) * buck[spread]
    return (tile_energy <= available).all(axis=0)


def _select(table: _RungTable, first: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """``(ladder, rung)`` per genome: lowest score, first ladder on ties.

    ``argmin`` returns the first minimum, which is the scalar scan's
    strict-``<`` choice; a genome whose best score is not below
    ``inf`` has no usable rung (ladder ``-1``).
    """
    count, combos = first.shape
    found = first >= 0
    if not found.any():
        missing = np.full(count, -1, dtype=np.int64)
        return missing, missing
    rows = np.arange(combos)[None, :]
    scores = np.where(found, table.score[rows, np.maximum(first, 0)],
                      math.inf)
    combo = scores.argmin(axis=1)
    genomes = np.arange(count)
    usable = scores[genomes, combo] < math.inf
    return np.where(usable, combo, -1), first[genomes, combo]


def _layer_ladders(mapper, layer: Layer) -> _Ladders:
    """Every ladder of ``layer`` in the scalar scan's combo order."""
    dims = layer.dims()
    rungs = tuple(
        _ladder(mapper, dims, style, tile_dim, spatial_dim)
        for style in mapper.styles
        for tile_dim, spatial_dim in mapper._dim_pairs(layer)
    )
    return _Ladders(rungs=rungs,
                    lengths=np.array([len(r) for r in rungs], dtype=np.int64))


def _ladder(mapper, dims: Mapping[str, int], style, tile_dim: str,
            spatial_dim: str) -> Tuple[LayerMapping, ...]:
    """The exact rung sequence ``_min_feasible`` scans, materialized."""
    bound = dims[tile_dim]
    rungs: List[LayerMapping] = []
    n = 1
    while True:
        rungs.append(LayerMapping(style=style, n_tiles=n, tile_dim=tile_dim,
                                  spatial_dim=spatial_dim))
        if n >= bound:
            break
        n = min(n * 2, bound)
    secondary = mapper._secondary_dim(dims, tile_dim, spatial_dim)
    if secondary is not None:
        bound2 = dims[secondary]
        n2 = 2
        while True:
            rungs.append(LayerMapping(style=style, n_tiles=bound,
                                      tile_dim=tile_dim,
                                      spatial_dim=spatial_dim,
                                      secondary_dim=secondary,
                                      n_tiles_2=min(n2, bound2)))
            if n2 >= bound2:
                break
            n2 = min(n2 * 2, bound2)
    return tuple(rungs)
