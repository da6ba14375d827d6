"""The host's speed, sampled inside a process while it runs.

The shared VMs this benchmark runs on change speed in phases: for
seconds to minutes at a time every vCPU runs the same code 1.3-1.7x
slower, and the guest sees no steal time.  A run that falls in a slow
phase would read as a regression of the program.  So while a run is
measured, a timer signal interrupts the process every
:data:`PERIOD_S` and times a small fixed pure-Python :func:`kernel` on
the same thread, in that thread's CPU time (so that waiting for another
process or thread is not counted as a slow host).  The kernel's time
against :data:`REFERENCE_KERNEL_S` is the host's slowdown at that
moment, and :meth:`HostSpeed.scaled` divides an interval of the run by
the slowdown around it: the seconds the interval would have taken at
the reference speed.  The kernel never
runs program code, so a change to the program moves scaled times
exactly as it moves raw ones; each figure's raw value is printed too.

Nothing here imports the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

#: Seconds between two samples.  A sample costs about 1 % of that.
PERIOD_S = 0.05
#: The same for a process that only sets up (see ``probe.py``): a
#: set-up takes a fraction of a second, and needs a dozen samples.
SHORT_PERIOD_S = 0.01
KERNEL_ITERATIONS = 2000
#: Seconds the kernel takes at the reference speed: on a 2-core Intel
#: Xeon VM at 2.1 GHz, its fastest samples while a search runs.
REFERENCE_KERNEL_S = 0.0003


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic and a small dict."""
    table = {}
    acc = 0
    for i in range(KERNEL_ITERATIONS):
        key = i % 61
        table[key] = table.get(key, 0) + i
        acc += (i * i) ^ key
    return acc


def raw(start: float, end: float) -> float:
    """The unscaled seconds of ``[start, end]``, to print beside scaled ones."""
    return end - start


class HostSpeed:
    """Samples of the kernel's time, taken on a timer while started.

    Times are ``time.perf_counter()`` readings, the monotonic clock that
    asyncio's ``loop.time()`` uses too.  Only the main thread receives
    the signal; the samples measure the core that thread runs on.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        #: Midpoints and durations of the kernel runs, in time order.
        self.times: List[float] = []
        self.durations: List[float] = []
        self._previous = None
        self._sampling = False

    @classmethod
    def from_samples(cls, times: List[float], durations: List[float]) -> "HostSpeed":
        """Samples another process took (see :meth:`samples`)."""
        speed = cls()
        speed.times = list(times)
        speed.durations = list(durations)
        return speed

    def samples(self) -> List[List[float]]:
        """``[times, durations]``, for another process to rescale with."""
        return [self.times, self.durations]

    def _sample(self, signum, frame) -> None:
        # A timer that fires while a late sample still runs would run this
        # handler inside it, inflate the outer sample and append out of
        # order; that tick is skipped instead.
        if self._sampling:
            return
        self._sampling = True
        try:
            started = time.perf_counter()
            cpu = time.thread_time()
            kernel()
            cpu = time.thread_time() - cpu
            self.times.append((started + time.perf_counter()) / 2.0)
            self.durations.append(cpu)
        finally:
            self._sampling = False

    def start(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # Restart system calls the signal interrupts, so that the program
        # (SQLite, sockets, subprocess waits) never sees EINTR.
        signal.siginterrupt(signal.SIGALRM, False)
        return self.every(self.period_s)

    def every(self, period_s: float) -> "HostSpeed":
        """Sample every ``period_s`` from now on."""
        self.period_s = period_s
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
        return self

    def stop(self) -> "HostSpeed":
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        return self

    def __enter__(self) -> "HostSpeed":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran in ``[start, end]``.

        The median kernel time of the samples inside the interval and the
        nearest one on each side, over :data:`REFERENCE_KERNEL_S`; the
        median keeps one interrupted sample from moving it.
        """
        if not self.durations:
            raise RuntimeError("no host speed samples were taken")
        low = max(0, bisect.bisect_left(self.times, start) - 1)
        high = bisect.bisect_right(self.times, end) + 1
        return statistics.median(self.durations[low:high]) / REFERENCE_KERNEL_S

    def scaled(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at the reference speed."""
        return (end - start) / self.slowdown(start, end)

    def summary(self) -> str:
        if not self.durations:
            return "host speed: no samples"
        low, mid, high = statistics.quantiles(self.durations, n=4)
        return (f"host speed: {len(self.durations)} samples, slowdown against "
                f"the reference q1 {low / REFERENCE_KERNEL_S:.3f}, median "
                f"{mid / REFERENCE_KERNEL_S:.3f}, q3 {high / REFERENCE_KERNEL_S:.3f}")
