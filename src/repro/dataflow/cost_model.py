"""Analytical dataflow cost model ("MAESTRO-lite").

Given a layer, a :class:`~repro.dataflow.mapping.LayerMapping` and an
:class:`~repro.hardware.accelerators.AcceleratorConfig`, this module
computes the per-energy-cycle-tile quantities the paper's Eqs. 4-6 need:

* **compute** — MAC count, active-PE utilisation, compute time;
* **NVM traffic** — every tile reads its inputs/weights from NVM and
  writes its outputs back (steps 1 and 5 of Fig. 4); a reduction split
  (``tile_dim == 'C'``) additionally round-trips partial sums;
* **VM <-> PE traffic** — reuse analysis in the MAESTRO data-centric
  spirit: the dataflow style pins one operand in the PE caches, and the
  number of passes the *streaming* operands make equals the number of
  resident sub-blocks the cache capacity forces;
* **energy** — datapath + cache + NoC/VM + NVM + static retention
  (Eq. 4: ``E_tile = E_read + E_infer + E_write + E_static``);
* **checkpoint volume** — the live VM working set, priced by the
  checkpoint model (the ``N_ckpt (e_r + e_w)`` term of Eq. 5).

The model is intentionally analytical (no cycle simulation): CHRYSALIS
calls it millions of times inside the bi-level search.  Its fidelity
target is faithful *ordering* of design points, which the step-based
simulator cross-checks.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataflow.directives import DataflowStyle
from repro.dataflow.mapping import LayerMapping
from repro.dataflow.tiling import halo_extent
from repro.errors import MappingError
from repro.hardware.accelerators import AcceleratorConfig
from repro.hardware.checkpoint import CheckpointModel, CheckpointStrategy
from repro.memo import ContentMemo
from repro.obs.state import OBS
from repro.workloads.layers import Layer, LayerKind

#: Fraction of each PE cache reserved for the resident operand; the rest
#: stages the streaming operands.
_RESIDENT_CACHE_SHARE = 0.7

#: Energy of one pooling operation relative to a full MAC.  A pooling
#: datapath performs a comparison/accumulate without the multiplier,
#: which dominates MAC energy; 0.3 is the ballpark of published
#: comparator-vs-MAC breakdowns at int8.  Pooling *time* is unchanged
#: (a compare still occupies an issue slot), only the datapath energy
#: is discounted.
_POOL_OP_ENERGY_SCALE = 0.3


#: Process-wide memo of :class:`LayerCost` results.  The bi-level
#: explorer re-prices identical ``(hardware, checkpoint, layer,
#: mapping)`` combinations millions of times: the SW-level mapping scan
#: queries one model per environment (tile costs are
#: environment-independent), and every genome sharing an inference
#: configuration repeats the whole scan.  :class:`LayerCost` is frozen,
#: so cached instances are safe to share.  Buckets are keyed by the
#: ``(hardware, checkpoint)`` prefix, entries by ``(layer, mapping)``.
LAYER_COSTS = ContentMemo("layer_cost", maxsize=65536)

configure_layer_cost_cache = LAYER_COSTS.configure
clear_layer_cost_cache = LAYER_COSTS.clear
layer_cost_cache_stats = LAYER_COSTS.stats


@dataclass(frozen=True)
class TileCost:
    """Costs of one energy-cycle tile (the unit Eq. 8 constrains)."""

    macs: int
    active_pes: int
    compute_time: float  # s, on the active PEs
    io_time: float  # s, NVM + VM transfer time
    latency: float  # s, after overlap policy
    compute_energy: float  # J, datapath + PE caches
    vm_energy: float  # J, NoC + shared-buffer accesses
    nvm_read_bytes: float
    nvm_write_bytes: float
    nvm_energy: float  # J
    static_energy: float  # J, rail-on static draw x latency
    working_set_bytes: float  # VM occupancy of the tile
    checkpoint_bytes: float  # N_ckpt
    checkpoint_energy: float  # J, expected (1 + r_exc) x (save + resume)
    checkpoint_time: float  # s, expected save + resume time
    fits_vm: bool

    @property
    def energy(self) -> float:
        """Total expected energy of the tile (Eq. 4 plus checkpointing)."""
        return (self.compute_energy + self.vm_energy + self.nvm_energy
                + self.static_energy + self.checkpoint_energy)

    @property
    def energy_without_checkpoint(self) -> float:
        return self.energy - self.checkpoint_energy

    @property
    def total_time(self) -> float:
        return self.latency + self.checkpoint_time


@dataclass(frozen=True)
class LayerCost:
    """Aggregate of one layer: ``n_tiles`` identical tiles (Eq. 5)."""

    layer_name: str
    n_tiles: int
    tile: TileCost

    @property
    def macs(self) -> int:
        return self.n_tiles * self.tile.macs

    @property
    def energy(self) -> float:
        return self.n_tiles * self.tile.energy

    @property
    def checkpoint_energy(self) -> float:
        return self.n_tiles * self.tile.checkpoint_energy

    @property
    def compute_energy(self) -> float:
        return self.n_tiles * self.tile.compute_energy

    @property
    def memory_energy(self) -> float:
        return self.n_tiles * (self.tile.vm_energy + self.tile.nvm_energy)

    @property
    def static_energy(self) -> float:
        return self.n_tiles * self.tile.static_energy

    @property
    def busy_time(self) -> float:
        """Rail-on time to execute all tiles, s (excludes recharging)."""
        return self.n_tiles * self.tile.total_time

    @property
    def fits_vm(self) -> bool:
        return self.tile.fits_vm


class DataflowCostModel:
    """Evaluates mappings against an accelerator configuration."""

    def __init__(self, hardware: AcceleratorConfig,
                 checkpoint: CheckpointModel) -> None:
        self.hardware = hardware
        self.checkpoint = checkpoint
        #: Hashable identity shared by every model built on the same
        #: hardware/checkpoint pair — resolved once, here, to the cache
        #: bucket for that prefix so the per-call hit path never hashes
        #: the hardware config again.  Tile costs do not depend on the
        #: light environment, so the prefix deliberately omits it:
        #: models for different environments share entries.
        self._cache_prefix = (hardware.cache_key(), checkpoint)
        self._cache_map = LAYER_COSTS.bucket(self._cache_prefix)

    # -- public API -----------------------------------------------------------

    def layer_cost(self, layer: Layer, mapping: LayerMapping) -> LayerCost:
        """Cost of executing ``layer`` under ``mapping`` (memoized).

        Entries are keyed by the *raw* mapping; clamping is
        deterministic, so two raw mappings that clamp to the same
        effective mapping simply occupy two entries with equal values.
        """
        if OBS.profile:
            return self._layer_cost_profiled(layer, mapping)
        cache = LAYER_COSTS
        if not cache.enabled:
            return self._layer_cost_uncached(layer, mapping.clamped(layer))
        key = (layer, mapping)
        cost = self._cache_map.get(key)
        if cost is not None:
            cache.hits += 1
            return cost
        cache.misses += 1
        cost = self._layer_cost_uncached(layer, mapping.clamped(layer))
        cache.insert(self._cache_prefix, self._cache_map, key, cost)
        return cost

    def _layer_cost_profiled(self, layer: Layer,
                             mapping: LayerMapping) -> LayerCost:
        """The profiling twin of :meth:`layer_cost`.

        Same logic, plus a latency histogram per outcome — cache hit,
        cache miss, or cache-disabled — so the report can show the
        hit/miss latency split.  Kept out of the default path: the hit
        path is microseconds and two ``perf_counter`` calls would be a
        measurable tax.
        """
        registry = OBS.registry
        cache = LAYER_COSTS
        start = _time.perf_counter()
        if not cache.enabled:
            cost = self._layer_cost_uncached(layer, mapping.clamped(layer))
            registry.histogram("cost.layer_cost.uncached_seconds").observe(
                _time.perf_counter() - start)
            return cost
        key = (layer, mapping)
        cost = self._cache_map.get(key)
        if cost is not None:
            cache.hits += 1
            registry.histogram("cost.layer_cost.hit_seconds").observe(
                _time.perf_counter() - start)
            return cost
        cache.misses += 1
        cost = self._layer_cost_uncached(layer, mapping.clamped(layer))
        cache.insert(self._cache_prefix, self._cache_map, key, cost)
        registry.histogram("cost.layer_cost.miss_seconds").observe(
            _time.perf_counter() - start)
        return cost

    def _layer_cost_uncached(self, layer: Layer,
                             mapping: LayerMapping) -> LayerCost:
        n_tiles = mapping.effective_n_tiles(layer)
        tile = self._tile_cost(layer, mapping, n_tiles)
        return LayerCost(layer_name=layer.name, n_tiles=n_tiles, tile=tile)

    def single_pe_time(self, layer: Layer) -> float:
        """``T_df`` of Eq. 6: whole-layer compute time on one PE, s."""
        return layer.macs / self.hardware.pes.macs_per_second_per_pe

    def layer_cost_batch(self, layer: Layer,
                         mappings: Sequence[LayerMapping]) -> List[LayerCost]:
        """Price many mappings of ``layer`` in one vectorized sweep.

        Semantically ``[self.layer_cost(layer, m) for m in mappings]``
        — same cache probes, same hit/miss accounting (a duplicate
        later in the batch counts as the hit it would have been in the
        scalar loop), and one :class:`LayerCostBatch` sweep plus a
        single cache fill for whatever is missing.
        """
        mappings = list(mappings)
        if not mappings:
            return []
        cache = LAYER_COSTS
        if not cache.enabled:
            batch = LayerCostBatch(self.hardware, self.checkpoint, layer,
                                   [m.clamped(layer) for m in mappings])
            return batch.layer_costs()
        results: List[Optional[LayerCost]] = [None] * len(mappings)
        order: List[tuple] = []  # first-occurrence keys to compute
        pending: Dict[tuple, List[int]] = {}
        for i, mapping in enumerate(mappings):
            key = (layer, mapping)
            cost = self._cache_map.get(key)
            if cost is not None:
                cache.hits += 1
                results[i] = cost
                continue
            slots = pending.get(key)
            if slots is None:
                cache.misses += 1
                pending[key] = [i]
                order.append(key)
            else:
                # Batch-internal duplicate: the scalar loop would hit
                # the entry its first occurrence had just inserted.
                cache.hits += 1
                slots.append(i)
        if order:
            batch = LayerCostBatch(self.hardware, self.checkpoint, layer,
                                   [key[1].clamped(layer) for key in order])
            for key, cost in zip(order, batch.layer_costs()):
                cache.insert(self._cache_prefix, self._cache_map, key, cost)
                for i in pending[key]:
                    results[i] = cost
        return results

    # -- internals ----------------------------------------------------------------

    def _tile_cost(self, layer: Layer, mapping: LayerMapping,
                   n_tiles: int) -> TileCost:
        hw = self.hardware
        tile_dims = mapping.tile_dims(layer)
        macs = math.prod(tile_dims.values())
        if layer.kind is LayerKind.EMBEDDING:
            # Table lookups: no datapath ops at all.
            macs = 0

        in_bytes, w_bytes, out_bytes = self._tile_tensor_bytes(layer, mapping,
                                                               tile_dims)

        spatial_extent = tile_dims[mapping.spatial_dim]
        active_pes = max(1, min(hw.pes.n_pes, spatial_extent))

        # --- VM <-> PE reuse analysis -------------------------------------
        resident_bytes, streaming = self._split_operands(
            mapping.style, in_bytes, w_bytes, out_bytes
        )
        streaming_bytes = sum(size for _, size in streaming)
        cache_budget = _RESIDENT_CACHE_SHARE * active_pes * hw.pes.cache_bytes_per_pe
        n_sub = max(1, math.ceil(resident_bytes / max(cache_budget, 1.0)))
        penalty = hw.traffic_penalty(mapping.style)
        vm_traffic = (resident_bytes + n_sub * streaming_bytes) * penalty

        # --- NVM traffic (Fig. 4 steps 1 and 5) ----------------------------
        nvm_read = in_bytes + w_bytes
        nvm_write = out_bytes
        if mapping.tile_dim == "C" and n_tiles > 1:
            # Reduction split: partial outputs round-trip through NVM.
            nvm_read += out_bytes
        vm_capacity = hw.vm.size_bytes
        for name, size in streaming:
            if size <= vm_capacity or n_sub <= 1:
                continue
            # The operand cannot be cached in VM across sub-block passes,
            # so every extra pass re-touches backing NVM.
            if name == "out":
                # Partial sums: each extra pass is a read-modify-write.
                nvm_read += size * (n_sub - 1)
                nvm_write += size * (n_sub - 1)
            else:
                nvm_read += size * (n_sub - 1)
        # Partial sums spill to VM whenever outputs are not the resident
        # operand and the resident set had to be sub-blocked.
        if mapping.style is not DataflowStyle.OUTPUT_STATIONARY:
            vm_traffic += out_bytes * max(0, n_sub - 1) * 2.0

        # --- times -----------------------------------------------------------
        compute_time = hw.pes.compute_time(macs, active_pes) if macs else 0.0
        vm_tech = hw.vm.technology
        io_time = (
            hw.nvm.read_time(nvm_read)
            + hw.nvm.write_time(nvm_write)
            + vm_traffic / vm_tech.read_bandwidth
        )
        if hw.overlapped_io:
            latency = max(compute_time, io_time)
        else:
            latency = compute_time + io_time

        # --- energies -----------------------------------------------------------
        bpe = layer.bytes_per_element
        compute_energy = hw.pes.compute_energy(macs)
        if layer.kind is LayerKind.POOL:
            # Pooling ops are comparisons/accumulates, not full MACs.
            compute_energy *= _POOL_OP_ENERGY_SCALE
        compute_energy += 3.0 * macs * bpe * hw.pes.cache_access_energy_per_byte
        vm_energy = vm_traffic * (
            vm_tech.read_energy_per_byte + hw.noc_energy_per_byte
        )
        nvm_energy = (hw.nvm.read_energy(nvm_read)
                      + hw.nvm.write_energy(nvm_write))
        static_energy = hw.static_power * latency

        # --- checkpointing ----------------------------------------------------------
        working_set = min(in_bytes + w_bytes + out_bytes, hw.vm.size_bytes)
        if n_tiles > 1:
            ckpt_bytes = self.checkpoint.checkpoint_bytes(working_set)
            ckpt_energy = self.checkpoint.expected_tile_overhead_energy(
                working_set
            )
            ckpt_time = (1.0 + self.checkpoint.exception_rate) * (
                self.checkpoint.save_time(working_set)
                + self.checkpoint.resume_time(working_set)
            )
        else:
            ckpt_bytes = 0.0
            ckpt_energy = 0.0
            ckpt_time = 0.0

        return TileCost(
            macs=macs,
            active_pes=active_pes,
            compute_time=compute_time,
            io_time=io_time,
            latency=latency,
            compute_energy=compute_energy,
            vm_energy=vm_energy,
            nvm_read_bytes=nvm_read,
            nvm_write_bytes=nvm_write,
            nvm_energy=nvm_energy,
            static_energy=static_energy,
            working_set_bytes=working_set,
            checkpoint_bytes=ckpt_bytes,
            checkpoint_energy=ckpt_energy,
            checkpoint_time=ckpt_time,
            fits_vm=in_bytes + w_bytes + out_bytes <= hw.vm.size_bytes,
        )

    @staticmethod
    def _split_operands(
        style: DataflowStyle, in_bytes: float, w_bytes: float,
        out_bytes: float,
    ) -> Tuple[float, Tuple[Tuple[str, float], ...]]:
        """Resident volume and named streaming volumes for a style."""
        if style is DataflowStyle.WEIGHT_STATIONARY:
            return w_bytes, (("in", in_bytes), ("out", out_bytes))
        if style is DataflowStyle.OUTPUT_STATIONARY:
            return out_bytes, (("in", in_bytes), ("w", w_bytes))
        if style is DataflowStyle.INPUT_STATIONARY:
            return in_bytes, (("w", w_bytes), ("out", out_bytes))
        raise MappingError(f"unknown dataflow style {style!r}")

    @staticmethod
    def _tile_tensor_bytes(layer: Layer, mapping: LayerMapping,
                           tile_dims: Dict[str, int]) -> Tuple[float, float, float]:
        """(input, weight, output) bytes of one energy-cycle tile."""
        bpe = layer.bytes_per_element
        d = tile_dims
        out_elems = d["K"] * d["Y"] * d["X"]

        if layer.kind in (LayerKind.CONV, LayerKind.DEPTHWISE_CONV,
                          LayerKind.POOL):
            stride = getattr(layer, "stride", 1)
            in_h = halo_extent(d["Y"], d["R"], stride)
            in_w = halo_extent(d["X"], d["S"], stride)
            if layer.kind is LayerKind.CONV:
                in_ch = d["C"]
                w_elems = d["K"] * d["C"] * d["R"] * d["S"]
            else:
                # Depthwise / pooling: channels come from K, no contraction.
                in_ch = d["K"]
                has_weights = layer.params > 0
                w_elems = d["K"] * d["R"] * d["S"] if has_weights else 0
            in_elems = in_ch * in_h * in_w
        elif layer.kind is LayerKind.DENSE:
            in_elems = d["Y"] * d["C"]
            w_elems = d["K"] * d["C"]
        elif layer.kind is LayerKind.MATMUL:
            in_elems = d["Y"] * d["C"] + d["C"] * d["K"]
            w_elems = 0
        elif layer.kind is LayerKind.EMBEDDING:
            in_elems = d["Y"]
            w_elems = d["Y"] * math.prod(layer.output_shape) // max(
                layer.output_shape[0], 1
            )
            out_elems = w_elems
        else:
            raise MappingError(f"unsupported layer kind {layer.kind!r}")

        return in_elems * bpe, w_elems * bpe, out_elems * bpe


class LayerCostBatch:
    """All requested tilings of one layer priced as one numpy sweep.

    This mirrors :meth:`DataflowCostModel._tile_cost` operation for
    operation.  The integer geometry — tile shapes, tensor volumes,
    operand split, per-style flags — is enumerated per mapping in plain
    Python (exact by construction); the floating-point cost chain then
    runs once over float64 arrays.  Elementwise ``+ * / max min ceil``
    on float64 are IEEE-754-identical to the equivalent CPython float
    ops when applied in the same order, which this class is careful to
    do, so every materialized :class:`LayerCost` equals the scalar
    oracle bit for bit.  (Fields the scalar path leaves as Python ints,
    e.g. ``nvm_read_bytes``, come back as floats of equal value.)

    ``mappings`` must already be clamped to ``layer`` — the cache-aware
    callers clamp before dispatching, exactly like the scalar path.
    """

    def __init__(self, hardware: AcceleratorConfig,
                 checkpoint: CheckpointModel, layer: Layer,
                 mappings: Sequence[LayerMapping]) -> None:
        self.hardware = hardware
        self.checkpoint = checkpoint
        self.layer = layer
        self.mappings = list(mappings)
        self._sweep()

    def __len__(self) -> int:
        return len(self.mappings)

    def _sweep(self) -> None:
        hw = self.hardware
        layer = self.layer
        n = len(self.mappings)
        split = DataflowCostModel._split_operands
        tensor_bytes = DataflowCostModel._tile_tensor_bytes
        is_embedding = layer.kind is LayerKind.EMBEDDING

        # --- per-mapping integer geometry (plain Python, exact) ------------
        macs_i = [0] * n
        active_i = [0] * n
        self.n_tiles = [0] * n
        in_b = np.empty(n)
        w_b = np.empty(n)
        out_b = np.empty(n)
        resident = np.empty(n)
        s0 = np.empty(n)
        s1 = np.empty(n)
        s0_out = np.zeros(n, dtype=bool)
        s1_out = np.zeros(n, dtype=bool)
        penalty = np.empty(n)
        reduction = np.zeros(n, dtype=bool)
        spill_out = np.zeros(n, dtype=bool)  # not OUTPUT_STATIONARY
        multi = np.zeros(n, dtype=bool)  # n_tiles > 1

        for i, mapping in enumerate(self.mappings):
            tile_dims = mapping.tile_dims(layer)
            macs_i[i] = 0 if is_embedding else math.prod(tile_dims.values())
            ib, wb, ob = tensor_bytes(layer, mapping, tile_dims)
            in_b[i], w_b[i], out_b[i] = ib, wb, ob
            spatial_extent = tile_dims[mapping.spatial_dim]
            active_i[i] = max(1, min(hw.pes.n_pes, spatial_extent))
            res, streaming = split(mapping.style, ib, wb, ob)
            resident[i] = res
            (name0, size0), (name1, size1) = streaming
            s0[i], s1[i] = size0, size1
            s0_out[i] = name0 == "out"
            s1_out[i] = name1 == "out"
            penalty[i] = hw.traffic_penalty(mapping.style)
            n_tiles = mapping.effective_n_tiles(layer)
            self.n_tiles[i] = n_tiles
            multi[i] = n_tiles > 1
            reduction[i] = mapping.tile_dim == "C" and n_tiles > 1
            spill_out[i] = mapping.style is not DataflowStyle.OUTPUT_STATIONARY

        macs = np.array(macs_i, dtype=np.float64)
        active = np.array(active_i, dtype=np.float64)
        n_tiles_f = np.array(self.n_tiles, dtype=np.float64)
        self.macs = macs_i
        self.active_pes = active_i

        # --- VM <-> PE reuse analysis --------------------------------------
        streaming_bytes = s0 + s1
        cache_budget = (_RESIDENT_CACHE_SHARE * active) * hw.pes.cache_bytes_per_pe
        n_sub = np.maximum(1.0, np.ceil(resident / np.maximum(cache_budget, 1.0)))
        vm_traffic = (resident + n_sub * streaming_bytes) * penalty

        # --- NVM traffic ----------------------------------------------------
        nvm_read = in_b + w_b
        nvm_write = out_b.copy()
        nvm_read = nvm_read + np.where(reduction, out_b, 0.0)
        vm_capacity = float(hw.vm.size_bytes)
        for sizes, is_out in ((s0, s0_out), (s1, s1_out)):
            extra = np.where((sizes > vm_capacity) & (n_sub > 1.0),
                             sizes * (n_sub - 1.0), 0.0)
            nvm_read = nvm_read + extra
            nvm_write = nvm_write + np.where(is_out, extra, 0.0)
        vm_traffic = vm_traffic + np.where(
            spill_out, (out_b * np.maximum(0.0, n_sub - 1.0)) * 2.0, 0.0)

        # --- times ------------------------------------------------------------
        compute_time = macs / (active * hw.pes.macs_per_second_per_pe)
        vm_tech = hw.vm.technology
        nvm_tech = hw.nvm.technology
        io_time = (
            nvm_read / nvm_tech.read_bandwidth
            + nvm_write / nvm_tech.write_bandwidth
            + vm_traffic / vm_tech.read_bandwidth
        )
        if hw.overlapped_io:
            latency = np.maximum(compute_time, io_time)
        else:
            latency = compute_time + io_time

        # --- energies ----------------------------------------------------------
        bpe = layer.bytes_per_element
        compute_energy = macs * hw.pes.mac_energy
        if layer.kind is LayerKind.POOL:
            compute_energy = compute_energy * _POOL_OP_ENERGY_SCALE
        compute_energy = compute_energy + (
            (3.0 * macs) * bpe) * hw.pes.cache_access_energy_per_byte
        vm_energy = vm_traffic * (
            vm_tech.read_energy_per_byte + hw.noc_energy_per_byte
        )
        nvm_energy = (nvm_read * nvm_tech.read_energy_per_byte
                      + nvm_write * nvm_tech.write_energy_per_byte)
        static_energy = hw.static_power * latency

        # --- checkpointing ----------------------------------------------------
        ckpt = self.checkpoint
        total_bytes = in_b + w_b + out_b
        working_set = np.minimum(total_bytes, vm_capacity)
        ckpt_bytes = ckpt.header_bytes + ckpt.live_fraction * working_set
        if ckpt.strategy is CheckpointStrategy.JIT:
            jit_bytes = ckpt.header_bytes + working_set
            ckpt_energy = ckpt.exception_rate * (
                jit_bytes * ckpt.nvm.write_energy_per_byte
                + jit_bytes * ckpt.nvm.read_energy_per_byte)
        else:
            ckpt_energy = (1.0 + ckpt.exception_rate) * (
                ckpt_bytes * ckpt.nvm.write_energy_per_byte
                + ckpt_bytes * ckpt.nvm.read_energy_per_byte)
        ckpt_time = (1.0 + ckpt.exception_rate) * (
            ckpt_bytes / ckpt.nvm.write_bandwidth
            + ckpt_bytes / ckpt.nvm.read_bandwidth)
        ckpt_bytes = np.where(multi, ckpt_bytes, 0.0)
        ckpt_energy = np.where(multi, ckpt_energy, 0.0)
        ckpt_time = np.where(multi, ckpt_time, 0.0)

        # --- published arrays ---------------------------------------------
        self.compute_time = compute_time
        self.io_time = io_time
        self.latency = latency
        self.compute_energy = compute_energy
        self.vm_energy = vm_energy
        self.nvm_read_bytes = nvm_read
        self.nvm_write_bytes = nvm_write
        self.nvm_energy = nvm_energy
        self.static_energy = static_energy
        self.working_set_bytes = working_set
        self.checkpoint_bytes = ckpt_bytes
        self.checkpoint_energy = ckpt_energy
        self.checkpoint_time = ckpt_time
        self.fits_vm = total_bytes <= vm_capacity
        # TileCost.energy / .total_time / LayerCost.energy, same
        # left-associated order as the scalar properties.
        self.tile_energy = (compute_energy + vm_energy + nvm_energy
                            + static_energy + ckpt_energy)
        self.total_time = latency + ckpt_time
        self.layer_energy = n_tiles_f * self.tile_energy
        self.busy_time = n_tiles_f * self.total_time

    def layer_costs(self) -> List[LayerCost]:
        """Materialize one :class:`LayerCost` per mapping, in order."""
        name = self.layer.name
        costs = []
        for i in range(len(self.mappings)):
            tile = TileCost(
                macs=self.macs[i],
                active_pes=self.active_pes[i],
                compute_time=float(self.compute_time[i]),
                io_time=float(self.io_time[i]),
                latency=float(self.latency[i]),
                compute_energy=float(self.compute_energy[i]),
                vm_energy=float(self.vm_energy[i]),
                nvm_read_bytes=float(self.nvm_read_bytes[i]),
                nvm_write_bytes=float(self.nvm_write_bytes[i]),
                nvm_energy=float(self.nvm_energy[i]),
                static_energy=float(self.static_energy[i]),
                working_set_bytes=float(self.working_set_bytes[i]),
                checkpoint_bytes=float(self.checkpoint_bytes[i]),
                checkpoint_energy=float(self.checkpoint_energy[i]),
                checkpoint_time=float(self.checkpoint_time[i]),
                fits_vm=bool(self.fits_vm[i]),
            )
            costs.append(LayerCost(layer_name=name, n_tiles=self.n_tiles[i],
                                   tile=tile))
        return costs
