"""Batched in-process evaluation of GA generations.

:class:`VectorizedGenomeEvaluator` plugs into
:class:`~repro.explore.ga.GeneticAlgorithm` as its ``batch_evaluator``
(``GAConfig.batched``).  A HW genome is priced in two steps: the
SW-level mapping search, then the closed-form Eq. 7 evaluation.  Only
the search gains from seeing a whole generation at once, so only the
search is batched:

* genomes are grouped by their :class:`InferenceDesign` projection, so
  the scan builds hardware once per distinct accelerator configuration;
* each group probes the mapper memo once per distinct projection, and
  the projections it has not seen are resolved by one scan over lazy
  per-layer *rung tables*.  Each ``(style, tile_dim, spatial_dim)``
  combo of a layer has one candidate *ladder* — the ``N_tile`` rungs the
  scalar :class:`~repro.explore.mapper_search.MappingOptimizer` scans in
  order — built once per layer, since it depends only on the layer and
  the mapper.  A table, kept per hardware and reused across generations,
  holds only each ladder's *priced prefix*;
* the scan advances a hardware group rung by rung, like the scalar
  scan: each step prices the next rung of only those ladders where some
  genome of the group has no feasible rung yet, with one
  :meth:`~repro.dataflow.cost_model.DataflowCostModel.layer_cost_batch`
  call per layer covering every pending ladder.  Eq. 8 feasibility,
  first-feasible tracking and the lowest-energy selection run as
  boolean/argmin numpy operations over ``genomes x ladders``;
* every genome's outcome then comes from
  :meth:`~repro.explore.bilevel.BilevelExplorer.compute_outcome`, handed
  the resolved mappings: lowering, pricing, scoring, Pareto points, the
  time budget and failure records are the serial path's own code.

Identity contract: the scan returns exactly what
``MappingOptimizer.optimize`` returns for the same projection — the
selection mirrors the scalar scan's iteration order and strict-``<``
tie-breaking, tile costs come from the one cost-model chain, and the
rung tables' Eq. 8 test repeats
:meth:`~repro.sim.analytical.EnergyTerms.available` elementwise on the
same :func:`~repro.sim.analytical.energy_terms` values.  The scalar
optimizer stays available as the oracle: a
:class:`~repro.errors.ChrysalisError` escaping a group's scan sends that
group's genomes through ``compute_outcome`` unresolved (counted in
``SearchStats.scalar_fallbacks``).

Accounting matches the serial path: mapper memo hits and misses are
counted probe for probe (a projection repeated within the generation is
probed after the scan has filled the memo), the scan's layer-cost cache
hits and misses go to :class:`~repro.explore.stats.SearchStats`, and its
wall time is shared evenly among the genomes it resolved.  A rung is
priced only when some genome's scalar scan would visit it, so the
batched mode misses the layer-cost cache on no more rungs than the
serial mode for the same genomes.  Cache *hits* differ by design: the
tables answer repeat visits without probing the cache at all.
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
from repro.errors import ChrysalisError, MappingError
from repro.explore.bilevel import ResolvedMappings
from repro.explore.space import Genome
from repro.explore.stats import GenomeOutcome
from repro.hardware.checkpoint import CheckpointModel
from repro.obs.state import span
from repro.sim.analytical import energy_terms
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
    """Prices GA generations with one mapping scan per hardware group.

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
        stats = explorer.stats
        started = time.monotonic()
        layer_hits0, layer_misses0 = LAYER_COSTS.stats()
        found, fallback = self._resolve(genomes)
        layer_hits1, layer_misses1 = LAYER_COSTS.stats()
        stats.layer_cost_hits += layer_hits1 - layer_hits0
        stats.layer_cost_misses += layer_misses1 - layer_misses0
        share = (time.monotonic() - started) / len(found) if found else 0.0
        outcomes = []
        for i, genome in enumerate(genomes):
            resolved = found.get(i)
            if resolved is not None:
                resolved = resolved._replace(seconds=share)
            outcomes.append(explorer.compute_outcome(genome,
                                                     resolved=resolved))
        stats.batched_sweeps += 1
        stats.batched_genomes += len(genomes) - fallback
        stats.scalar_fallbacks += fallback
        return outcomes

    # -- SW-level search, batched ---------------------------------------------

    def _resolve(self, genomes: List[Genome]
                 ) -> Tuple[Dict[int, ResolvedMappings], int]:
        """Mappings per genome index, and how many genomes fell back.

        A genome whose projection raises is left unresolved:
        ``compute_outcome`` raises the same error again and records it
        under the serial path's stage.  So is every genome of a group
        whose scan raised, which is what counts as a fallback.
        """
        groups: Dict[object, List[Tuple[int, tuple, "AuTDesign"]]] = {}
        for i, genome in enumerate(genomes):
            try:
                seeded = self.explorer.space.to_design(genome,
                                                       self._seed_mappings)
            except ChrysalisError:
                continue
            groups.setdefault(seeded.inference, []).append(
                (i, (seeded.energy, seeded.inference), seeded))
        found: Dict[int, ResolvedMappings] = {}
        fallback = 0
        for inference, members in groups.items():
            try:
                found.update(self._resolve_group(inference, members))
            except ChrysalisError as error:
                logger.warning(
                    "batched mapper scan failed (%s: %s); falling back to "
                    "scalar evaluation for %d genome(s)",
                    type(error).__name__, error, len(members))
                fallback += len(members)
        return found, fallback

    def _resolve_group(self, inference: object,
                       members: List[Tuple[int, tuple, "AuTDesign"]]
                       ) -> Dict[int, ResolvedMappings]:
        """Memo-probe one hardware group; scan the unseen projections.

        The first occurrence of each projection probes the memo; the
        misses are scanned together and filled in.  Repeats probe only
        after that fill, so they count the hits the serial path counts —
        unless the memo is disabled, in which case they miss and share
        the group's result.
        """
        mapper = self.explorer.mapper
        found: Dict[int, ResolvedMappings] = {}
        by_key: Dict[tuple, Optional[Tuple[LayerMapping, ...]]] = {}
        unseen: Dict[tuple, Tuple[int, "AuTDesign"]] = {}
        repeats: List[Tuple[int, tuple]] = []
        for i, key, seeded in members:
            if key in by_key or key in unseen:
                repeats.append((i, key))
                continue
            hit, mappings = mapper.memo_probe(key)
            if hit:
                by_key[key] = mappings
                found[i] = ResolvedMappings(True, mappings)
            else:
                unseen[key] = (i, seeded)
        if unseen:
            scanned = self._scan(inference,
                                 [seeded for _, seeded in unseen.values()])
            for (key, (i, _)), mappings in zip(unseen.items(), scanned):
                mapper.memo_fill(key, mappings)
                by_key[key] = mappings
                found[i] = ResolvedMappings(False, mappings)
        for i, key in repeats:
            hit, mappings = mapper.memo_probe(key)
            found[i] = ResolvedMappings(hit, mappings if hit else by_key[key])
        return found

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
