"""The benchmark's own arithmetic: percentiles, self time, open-loop latency.

Nothing here imports the program under test, so ``perfbench/tests``
can pin every formula the reported numbers depend on.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is only reported when at least this many samples lie
#: strictly beyond it; below that it says more about one outlier than
#: about the tail.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (0 < q < 100) by nearest rank, or ``None``.

    ``None`` unless at least :data:`MIN_BEYOND` samples lie strictly
    above the rank the percentile picks, so a p99 needs at least 1000
    samples and a p90 at least 100.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))  # 1-based nearest rank
    if n - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as the acceptance rule uses."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else math.inf


def geometric_mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0.0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def error_rate(attempted: int, failed: int) -> float:
    """Failed ÷ attempted, where *failed* already counts shed and
    timed-out operations and *attempted* counts every operation the
    benchmark issued, answered or not."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


# -- open loop -----------------------------------------------------------------


class OpenLoop:
    """The bookkeeping of an open-loop load generator at a fixed rate.

    Request ``i`` is due at ``origin + i / rate``.  The generator asks
    :meth:`delay` how long to wait before sending it, calls
    :meth:`sent` when it does and :meth:`answered` when the response
    arrives.  Latency is measured from the *due* time, not the send:
    a stall -- of the server, or of the generator itself -- is charged
    to every request queued behind it, which is what an open-loop user
    population experiences.
    """

    def __init__(self, origin: float, rate: float, count: int) -> None:
        if rate <= 0.0 or count < 1:
            raise ValueError("an open loop needs a positive rate and requests")
        self.due = [origin + index / rate for index in range(count)]
        self.done: List[Optional[float]] = [None] * count
        self.ok = [False] * count
        #: Largest delay of a send past its due time (generator health).
        self.max_lag = 0.0

    def delay(self, index: int, now: float) -> float:
        """Seconds to wait before request ``index`` is due (never negative)."""
        return max(0.0, self.due[index] - now)

    def sent(self, index: int, now: float) -> None:
        self.max_lag = max(self.max_lag, now - self.due[index])

    def answered(self, index: int, now: float, ok: bool) -> None:
        self.done[index] = now
        self.ok[index] = ok

    def latencies(self) -> List[Optional[float]]:
        """Due-to-answer time per request; ``None`` if never answered."""
        return [None if end is None else end - start
                for start, end in zip(self.due, self.done)]

    def succeeded(self) -> List[float]:
        """Latencies of the requests answered with success."""
        return [latency for latency, ok in zip(self.latencies(), self.ok)
                if latency is not None and ok]


# -- spans -----------------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Each span's duration minus the part its direct children cover.

    Spans are given as parallel sequences; ``parents[i]`` is the index
    of span ``i``'s parent or ``-1`` for a root.  Children are clipped
    to their parent's interval, and overlapping children are counted
    once, so self time is never negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(
                (max(starts[i], starts[parent]), min(ends[i], ends[parent])))
    result = []
    for i in range(len(starts)):
        covered = union_length(
            (a, b) for a, b in children.get(i, ()) if b > a)
        result.append(ends[i] - starts[i] - covered)
    return result


def reconcile(wall: float, self_by_layer: Dict[str, float],
              tolerance: float = 1e-6) -> float:
    """The unattributed remainder of ``wall`` after every layer's self time.

    Raises when the layers claim more time than the wall clock holds,
    which means spans were double counted.
    """
    attributed = math.fsum(self_by_layer.values())
    remainder = wall - attributed
    if remainder < -tolerance * max(1.0, wall):
        raise ValueError(
            f"layers claim {attributed:.6f} s of a {wall:.6f} s wall")
    return max(remainder, 0.0)
