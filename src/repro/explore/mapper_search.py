"""SW-level mapping search (the inner level of the bi-level strategy).

For a *fixed* hardware configuration, find the best intermittent mapping
of every layer: dataflow style, spatial dimension, and the number of
energy-cycle tiles (``N_tile``).  This is the role GAMMA [37] plays in
the paper's CHRYSALIS-GAMMA realization.

Layers are independent given the hardware, and the whole-inference
objectives are additive in per-layer energy (Eq. 7 divides total energy
by harvest power), so per-layer enumeration is *exact* for this model:

* styles x spatial dimensions form a small product;
* for each combination, tile energy rises monotonically with ``N_tile``
  (more checkpoints, re-fetched halos), so the best feasible ``N_tile``
  is the smallest one satisfying Eq. 8 and the VM-capacity constraint —
  found with a geometric scan.

Feasibility follows the paper's two-environment protocol: a mapping must
execute in *every* configured environment; its score is the mean energy
across them.
"""

from __future__ import annotations

import logging
import math
import time as _time
from typing import List, Optional, Sequence, Tuple

from repro.dataflow.directives import DataflowStyle
from repro.dataflow.mapping import LayerMapping
from repro.dataflow.tiling import pick_intermittent_dim
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.errors import MappingError
from repro.hardware.checkpoint import CheckpointModel
from repro.memo import ContentMemo
from repro.obs.state import OBS, span
from repro.sim.analytical import AnalyticalModel
from repro.workloads.layers import Layer
from repro.workloads.network import Network

logger = logging.getLogger(__name__)

#: Sentinel distinguishing "never searched" from a memoized
#: ``None`` ("searched, unmappable") in the mapper memo.
_ABSENT = object()


#: Process-wide memo of whole SW-level search results.  Keyed like the
#: layer-cost memo: a hashable *prefix* — ``(network, environments,
#: styles, checkpoint)``, everything that changes what
#: :meth:`MappingOptimizer.optimize` would return — resolved once per
#: optimizer to a bucket, then probed with the ``(EnergyDesign,
#: InferenceDesign)`` genome projection.  Values are the full mapping
#: tuple, or ``None`` for a projection whose SW-level search proved
#: unmappable (caching the *failure* matters: the GA revisits hopeless
#: corners).  Process scope, not explorer scope, is what lets repeat
#: runs — the memoized bench mode, campaign re-runs, warm workers —
#: actually hit: each run builds a fresh explorer, and the GA
#: deduplicates identical genomes before fitness.
MAPPINGS = ContentMemo("mapper", maxsize=8192)

configure_mapper_memo = MAPPINGS.configure
clear_mapper_memo = MAPPINGS.clear
mapper_memo_stats = MAPPINGS.stats


class MappingOptimizer:
    """Optimises per-layer mappings for a fixed hardware configuration."""

    def __init__(self, network: Network,
                 environments: Optional[Sequence[LightEnvironment]] = None,
                 styles: Sequence[DataflowStyle] = tuple(DataflowStyle),
                 checkpoint: Optional[CheckpointModel] = None) -> None:
        self.network = network
        self.environments = tuple(
            environments
            if environments is not None
            else LightEnvironment.paper_environments()
        )
        self.styles = tuple(styles)
        self.checkpoint = checkpoint
        #: Everything that changes what :meth:`optimize` returns —
        #: resolved to this optimizer's memo bucket once, so the per
        #: -genome probe is a single dict lookup.
        self._memo_prefix = (self.network, self.environments, self.styles,
                             self.checkpoint)
        self._memo_map = MAPPINGS.bucket(self._memo_prefix)

    # -- public API -----------------------------------------------------------

    def memo_probe(self, key: tuple
                   ) -> Tuple[bool, Optional[Tuple[LayerMapping, ...]]]:
        """``(hit, mappings)`` for a ``(EnergyDesign, InferenceDesign)`` key.

        ``hit`` distinguishes a memoized unmappable result (``True,
        None``) from a projection never searched (``False, None``).
        """
        if not MAPPINGS.enabled:
            return False, None
        value = self._memo_map.get(key, _ABSENT)
        if value is _ABSENT:
            MAPPINGS.misses += 1
            return False, None
        MAPPINGS.hits += 1
        return True, value

    def memo_note_hit(self) -> None:
        """Count a hit served without a dict probe.

        The vectorized evaluator resolves duplicate projections within
        one generation from its local scan state instead of re-probing
        the memo (the fill happens after the sweep).  Serially those
        probes would all have been memo hits, so noting them here keeps
        :func:`mapper_memo_stats` identical probe-for-probe across the
        scalar and batched modes — the process-wide counters are what
        mixed batched/scalar runs (and the serving layer) report from.
        """
        if MAPPINGS.enabled:
            MAPPINGS.hits += 1

    def memo_fill(self, key: tuple,
                  mappings: Optional[Tuple[LayerMapping, ...]]) -> None:
        """Memoize one SW-level search result (insert-if-absent)."""
        if not MAPPINGS.enabled:
            return
        if key not in self._memo_map:
            MAPPINGS.insert(self._memo_prefix, self._memo_map, key,
                                mappings)

    def optimize(self, energy: EnergyDesign,
                 inference: InferenceDesign
                 ) -> Optional[Tuple[LayerMapping, ...]]:
        """Best mapping per layer, or ``None`` if any layer is unmappable."""
        if not OBS.enabled:
            return self._optimize(energy, inference)
        start = _time.perf_counter() if OBS.profile else 0.0
        with span("mapper.optimize"):
            mappings = self._optimize(energy, inference)
        if OBS.profile:
            OBS.registry.histogram("mapper.optimize_seconds").observe(
                _time.perf_counter() - start)
        if mappings is None:
            OBS.registry.counter("mapper.unmappable").inc()
        return mappings

    def _optimize(self, energy: EnergyDesign,
                  inference: InferenceDesign
                  ) -> Optional[Tuple[LayerMapping, ...]]:
        models = self._models(energy, inference)
        mappings: List[LayerMapping] = []
        for layer in self.network:
            best = self._best_for_layer(layer, models)
            if best is None:
                return None
            mappings.append(best)
        return tuple(mappings)

    # -- internals ----------------------------------------------------------------

    def _models(self, energy: EnergyDesign,
                inference: InferenceDesign) -> List[AnalyticalModel]:
        """One analytical model per environment, sharing the hardware.

        The models carry placeholder mappings — per-layer queries go
        through ``layer_cost`` directly, which takes the mapping as an
        argument.
        """
        placeholder = AuTDesign.with_default_mappings(
            energy, inference, self.network
        )
        return [
            AnalyticalModel(placeholder, self.network, environment,
                            checkpoint=self.checkpoint)
            for environment in self.environments
        ]

    def _best_for_layer(self, layer: Layer,
                        models: Sequence[AnalyticalModel]
                        ) -> Optional[LayerMapping]:
        best: Optional[LayerMapping] = None
        best_score = math.inf
        for style in self.styles:
            for tile_dim, spatial_dim in self._dim_pairs(layer):
                # A (style, dims) combination that the cost model rejects
                # outright is just an invalid corner of the mapping
                # space — skip it rather than abort the layer search.
                try:
                    mapping = self._min_feasible(layer, style, tile_dim,
                                                 spatial_dim, models)
                    if mapping is None:
                        continue
                    score = self._mean_energy(layer, mapping, models)
                except MappingError as error:
                    logger.debug(
                        "skipping %s %s/%s on %s: %s", style.value,
                        tile_dim, spatial_dim, layer.name, error)
                    continue
                if score < best_score:
                    best, best_score = mapping, score
        return best

    def _dim_pairs(self, layer: Layer) -> List[Tuple[str, str]]:
        """(tile_dim, spatial_dim) combinations worth trying."""
        dims = layer.dims()
        preferred_tile = pick_intermittent_dim(dims)
        tile_dims = [preferred_tile]
        if dims.get("K", 1) > 1 and "K" not in tile_dims:
            tile_dims.append("K")
        pairs: List[Tuple[str, str]] = []
        for tile_dim in tile_dims:
            for spatial_dim in ("K", "Y", "C"):
                if spatial_dim == tile_dim or dims.get(spatial_dim, 1) <= 1:
                    continue
                pairs.append((tile_dim, spatial_dim))
            if not any(t == tile_dim for t, _ in pairs):
                # Degenerate layer: every other dimension is 1.  Any
                # distinct spatial dim works (one PE active).
                fallback = next(name for name in ("K", "C", "Y", "X", "R", "S")
                                if name != tile_dim)
                pairs.append((tile_dim, fallback))
        return pairs

    def _min_feasible(self, layer: Layer, style: DataflowStyle,
                      tile_dim: str, spatial_dim: str,
                      models: Sequence[AnalyticalModel]
                      ) -> Optional[LayerMapping]:
        """Smallest N_tile feasible in every environment (geometric scan).

        When even single-iteration chunks of ``tile_dim`` exceed one
        energy cycle, the scan escalates to a multi-dimensional cpkt
        tile by splitting a secondary dimension as well.
        """
        dims = layer.dims()
        bound = dims[tile_dim]
        n = 1
        while True:
            mapping = LayerMapping(style=style, n_tiles=n, tile_dim=tile_dim,
                                   spatial_dim=spatial_dim)
            if self._feasible_everywhere(layer, mapping, models):
                return mapping
            if n >= bound:
                break
            n = min(n * 2, bound)
        secondary = self._secondary_dim(dims, tile_dim, spatial_dim)
        if secondary is None:
            return None
        bound2 = dims[secondary]
        n2 = 2
        while True:
            mapping = LayerMapping(style=style, n_tiles=bound,
                                   tile_dim=tile_dim,
                                   spatial_dim=spatial_dim,
                                   secondary_dim=secondary,
                                   n_tiles_2=min(n2, bound2))
            if self._feasible_everywhere(layer, mapping, models):
                return mapping
            if n2 >= bound2:
                return None
            n2 = min(n2 * 2, bound2)

    @staticmethod
    def _secondary_dim(dims, tile_dim: str, spatial_dim: str) -> Optional[str]:
        candidates = [name for name in ("K", "C", "Y", "X")
                      if name not in (tile_dim, spatial_dim)
                      and dims.get(name, 1) > 1]
        if not candidates:
            return None
        return max(candidates, key=lambda name: dims[name])

    @staticmethod
    def _feasible_everywhere(layer: Layer, mapping: LayerMapping,
                             models: Sequence[AnalyticalModel]) -> bool:
        # Tiles stream through VM, so only the energy-cycle bound (Eq. 8)
        # constrains feasibility; VM pressure shows up as NVM re-read
        # energy in the cost itself.
        for model in models:
            cost = model.layer_cost(layer, mapping)
            if not model.tile_feasible(cost):
                return False
        return True

    @staticmethod
    def _mean_energy(layer: Layer, mapping: LayerMapping,
                     models: Sequence[AnalyticalModel]) -> float:
        total = 0.0
        for model in models:
            total += model.layer_cost(layer, mapping).energy
        return total / len(models)
