"""Span recording around the program's public functions (traced runs only).

:func:`instrument` replaces a fixed set of public functions and methods
of ``repro`` with wrappers that record one span per call -- layer name,
start, end, parent span, thread and the current run or request id --
and restores the originals on :meth:`Instrumentation.remove`.  The
program itself is not modified; untraced runs never call this module.

Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import collections
import functools
import gzip
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from stats import self_times


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._threads: Dict[int, int] = {}
        self._contexts: List[str] = [""]
        self._context_ids: Dict[str, int] = {"": 0}
        # One list per span field: far smaller than one object per span.
        self.name = []
        self.parent = []
        self.thread = []
        self.context = []
        self.start = []
        self.end = []
        self.counts: Dict[str, float] = collections.defaultdict(float)

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.names = []
            self._local.context = 0
        return stack

    def set_context(self, label: str) -> None:
        """Tag the calling thread's next spans with a run or request id."""
        self._stack()
        with self._lock:
            ident = self._context_ids.get(label)
            if ident is None:
                ident = self._context_ids[label] = len(self._contexts)
                self._contexts.append(label)
        self._local.context = ident

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the calling thread."""
        self._stack()
        return name in self._local.names

    def enter(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self._names)
                self._names.append(name)
            thread = self._threads.setdefault(threading.get_ident(),
                                              len(self._threads))
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.thread.append(thread)
            self.context.append(self._local.context)
            self.end.append(0)
            self.start.append(time.perf_counter_ns())
        stack.append(index)
        self._local.names.append(name)
        return index

    def exit(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._local.stack.pop()
        self._local.names.pop()

    def clear(self) -> None:
        """Forget every span and counter; only call with no span open."""
        with self._lock:
            for field in (self.name, self.parent, self.thread, self.context,
                          self.start, self.end):
                field.clear()
            self.counts.clear()

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[counter] += amount

    def wrap(self, name: str, fn: Callable,
             on_call: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``on_call(args, kwargs, result)`` runs after the span closes, to
        count work the call did (genomes, mappings, cycles).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(index)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def counting(self, counter: str, fn: Callable) -> Callable:
        """``fn`` counting calls without a span (for very hot functions)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1  # called from one thread only
            return fn(*args, **kwargs)

        return counted

    # -- summaries ----------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.start)

    def thread_index(self, ident: int) -> Optional[int]:
        """The index spans of thread ``ident`` carry (``None``: no spans)."""
        return self._threads.get(ident)

    def layers(self, threads: Optional[Iterable[int]] = None
               ) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``busy_s`` (span time) and ``self_s``.

        ``threads`` restricts the summary to spans recorded on those
        thread indices (every thread when ``None``).
        """
        keep = None if threads is None else set(threads)
        starts = [s / 1e9 for s in self.start]
        ends = [e / 1e9 for e in self.end]
        own = self_times(starts, ends, self.parent)
        out: Dict[str, Dict[str, float]] = {}
        for i, name_id in enumerate(self.name):
            if keep is not None and self.thread[i] not in keep:
                continue
            row = out.setdefault(self._names[name_id],
                                 {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += ends[i] - starts[i]
            row["self_s"] += own[i]
        return out

    def dump(self, path: str) -> None:
        """Write every span as gzip'd CSV (times in ns since an arbitrary
        origin; ``parent`` is a row index, ``-1`` for a root)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index,parent,layer,thread,context,start_ns,end_ns\n")
            for i in range(len(self.start)):
                out.write(f"{i},{self.parent[i]},{self._names[self.name[i]]},"
                          f"{self.thread[i]},{self._contexts[self.context[i]]},"
                          f"{self.start[i]},{self.end[i]}\n")


class Instrumentation:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def patch(self, owner: Any, attribute: str, make: Callable[[Callable], Callable]
              ) -> None:
        original = getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def _length_of(position: int, keyword: str) -> Callable[[Sequence, Dict], int]:
    def length(args, kwargs) -> int:
        value = args[position] if len(args) > position else kwargs[keyword]
        return len(value)
    return length


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro
    from repro import api, serialize
    from repro.campaign import fleet, runner, store
    from repro.dataflow import cost_model
    from repro.explore import batch_eval, bilevel, mapper_search
    from repro.serve import net, service
    from repro.sim import analytical, engine
    from repro.workloads import layers

    inst = Instrumentation()

    def span(owner, attribute, name, on_call=None):
        inst.patch(owner, attribute,
                   lambda fn: tracer.wrap(name, fn, on_call))

    for cls in vars(layers).values():
        if isinstance(cls, type) and "dims" in vars(cls):
            inst.patch(cls, "dims", lambda fn: tracer.counting(
                "workloads.layer_dims.calls", fn))

    span(cost_model.DataflowCostModel, "layer_cost", "dataflow.layer_cost")

    batch_mappings = _length_of(2, "mappings")

    def cost_batch_entered(fn):
        wrapped = tracer.wrap("dataflow.cost_batch", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            requested = batch_mappings(args, kwargs)
            # Rungs are mappings the vectorized evaluator's tables ask
            # for; plan pricing under sim.analytical is not a rung.
            if tracer.inside("explore.batch_eval") and \
                    not tracer.inside("sim.analytical"):
                tracer.add("explore.batch_eval.rungs", requested)
            return wrapped(*args, **kwargs)
        return counted

    inst.patch(cost_model.DataflowCostModel, "layer_cost_batch",
               cost_batch_entered)
    swept = _length_of(4, "mappings")

    def sweep_counted(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.add("dataflow.cost_batch.mappings_priced",
                       swept(args, kwargs))
            return fn(*args, **kwargs)
        return counted

    inst.patch(cost_model.LayerCostBatch, "__init__", sweep_counted)

    genomes = _length_of(1, "genomes")
    span(batch_eval.VectorizedGenomeEvaluator, "evaluate_many",
         "explore.batch_eval",
         lambda a, k, r: tracer.add("explore.batch_eval.genomes",
                                    genomes(a, k)))
    span(mapper_search.MappingOptimizer, "optimize", "explore.mapper")
    span(analytical.AnalyticalModel, "evaluate", "sim.analytical")
    span(analytical.BatchAnalyticalModel, "evaluate_many", "sim.analytical",
         lambda a, k, r: tracer.add("sim.analytical.batch_designs", len(r)))
    span(bilevel.BilevelExplorer, "run", "explore.search",
         lambda a, k, r: tracer.add("explore.search.hw_evaluations",
                                    r.stats.hw_evaluations))

    def simulated(args, kwargs, result) -> None:
        tracer.add("sim.engine.cycles", result.metrics.power_cycles)
        tracer.add("sim.engine.cycles_skipped", result.fast_cycles_skipped)

    span(engine.StepSimulator, "run", "sim.engine", simulated)

    for op in ("register", "claim", "record_success", "heartbeat", "runs"):
        span(store.ResultStore, op, f"campaign.store.{op}")

    def run_context(fn):
        @functools.wraps(fn)
        def tagged(key, *args, **kwargs):
            tracer.set_context(key.run_hash[:12])
            return fn(key, *args, **kwargs)
        return tagged

    inst.patch(fleet, "execute_search", run_context)

    for owner in (serialize, runner):
        span(owner, "solution_to_dict", "serialize.solution_to_dict")
    span(store.StoredRun, "load_solution", "serialize.load_solution")
    for owner in (serialize, net):
        span(owner, "design_from_dict", "serialize.design_from_dict")

    span(service, "request_key", "serve.keys.request_key")
    designs = _length_of(0, "designs")
    for owner in (api, repro):
        span(owner, "evaluate", "api.evaluate")
        span(owner, "evaluate_batch", "api.evaluate_batch",
             lambda a, k, r: tracer.add("api.evaluate_batch.designs",
                                        designs(a, k)))
    return inst
