"""The benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import math
import random
import statistics
import time

import pytest

import hostspeed
import stats
from tracer import Instrumentation, Tracer


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; child2 [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert stats.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Two children overlapping on [3, 4]; one sticks out past the parent.
    starts = [0.0, 2.0, 3.0]
    ends = [6.0, 4.0, 7.0]
    parents = [-1, 0, 0]
    own = stats.self_times(starts, ends, parents)
    assert own[0] == pytest.approx(2.0)  # [0,2] uncovered; [2,6] covered
    assert min(own) >= 0.0


def test_self_times_of_nested_spans_reconcile_with_the_wall():
    starts = [0.0, 1.0, 2.0, 5.0, 12.0]
    ends = [10.0, 4.0, 3.0, 9.0, 13.0]
    parents = [-1, 0, 1, 0, -1]
    own = stats.self_times(starts, ends, parents)
    by_layer = {"a": own[0] + own[4], "b": own[1] + own[3], "c": own[2]}
    remainder = stats.reconcile(15.0, by_layer)
    assert remainder == pytest.approx(15.0 - 11.0)
    assert math.fsum(by_layer.values()) + remainder == pytest.approx(15.0)


def test_reconcile_refuses_double_counted_layers():
    with pytest.raises(ValueError):
        stats.reconcile(1.0, {"a": 0.8, "b": 0.4})


def test_tracer_wraps_calls_into_nested_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.002)

    inner_t = tracer.wrap("inner", inner)

    def outer_body():
        inner_t()
        inner_t()
        time.sleep(0.002)

    outer_t = tracer.wrap("outer", outer_body)
    started = time.perf_counter()
    outer_t()
    wall = time.perf_counter() - started
    layers = tracer.layers()
    assert layers["inner"]["calls"] == 2
    assert layers["outer"]["calls"] == 1
    assert layers["outer"]["busy_s"] == pytest.approx(
        layers["outer"]["self_s"] + layers["inner"]["busy_s"])
    remainder = stats.reconcile(wall, {k: v["self_s"] for k, v in layers.items()})
    assert 0.0 <= remainder < wall
    assert tracer.parent == [-1, 0, 0]


def test_instrumentation_restores_the_original():
    class Owner:
        @staticmethod
        def work(x):
            return 2 * x

    original = Owner.work
    tracer = Tracer()
    patches = Instrumentation()
    patches.patch(Owner, "work", lambda fn: tracer.wrap("owner.work", fn))
    assert Owner.work(3) == 6
    patches.remove()
    assert Owner.work is original
    assert tracer.layers()["owner.work"]["calls"] == 1


# -- percentiles ----------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(999)), 99) is None
    assert stats.percentile(list(range(1000)), 99) == 989  # 10 lie above
    assert stats.percentile(list(range(99)), 90) is None
    assert stats.percentile(list(range(100)), 90) == 89
    assert stats.percentile(list(range(20)), 50) == 9
    assert stats.percentile([], 50) is None
    with pytest.raises(ValueError):
        stats.percentile([1.0], 100)


def test_percentile_ignores_sample_order():
    values = list(range(2000))
    random.Random(3).shuffle(values)
    assert stats.percentile(values, 99) == 1979


def test_quartile_spread_matches_the_acceptance_rule():
    values = [10.0, 11.0, 9.5, 10.5, 12.0, 10.2, 9.8, 10.1, 10.9, 10.4]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == (q1, q2, q3, (q3 - q1) / q2)


# -- open loop ----------------------------------------------------------------------


def _drive(schedule, service, stalled_generator=None):
    """Run ``schedule`` on a fake clock against one FIFO server.

    The generator sleeps until each request is due, as ``Load.open_loop``
    does, except that it is itself stuck until ``stalled_generator[1]``
    before sending request ``stalled_generator[0]``.  Request ``i`` then
    costs the server ``service[i]`` seconds.
    """
    now, free_at = 0.0, 0.0
    for index, cost in enumerate(service):
        now += schedule.delay(index, now)
        if stalled_generator and stalled_generator[0] == index:
            now = max(now, stalled_generator[1])
        schedule.sent(index, now)
        free_at = max(free_at, now) + cost
        schedule.answered(index, free_at, ok=True)


def test_open_loop_latency_counts_a_server_stall_against_requests_behind_it():
    schedule = stats.OpenLoop(origin=0.0, rate=100.0, count=5)  # due every 10 ms
    _drive(schedule, [0.001, 0.100, 0.001, 0.001, 0.001])  # request 1 stalls
    latencies = schedule.latencies()
    assert latencies[0] == pytest.approx(0.001)
    assert latencies[1] == pytest.approx(0.100)
    # Queued behind the stall: they wait for it although their own work
    # is 1 ms.
    assert latencies[2] == pytest.approx(0.091)
    assert latencies[3] == pytest.approx(0.082)
    assert latencies[4] == pytest.approx(0.073)
    assert schedule.max_lag == 0.0


def test_open_loop_latency_runs_from_the_due_time_when_the_generator_stalls():
    schedule = stats.OpenLoop(origin=0.0, rate=100.0, count=4)
    # The generator is stuck until 50 ms, so request 1 (due at 10 ms) and
    # the ones behind it leave late; each needs 1 ms of service.
    _drive(schedule, [0.001] * 4, stalled_generator=(1, 0.050))
    assert schedule.max_lag == pytest.approx(0.040)
    # Timed from the send, request 1 would read 1 ms and hide the stall.
    assert schedule.latencies() == pytest.approx([0.001, 0.041, 0.032, 0.023])


def test_open_loop_keeps_unanswered_and_failed_requests_out_of_the_latencies():
    schedule = stats.OpenLoop(origin=1.0, rate=2.0, count=3)
    assert schedule.due == [1.0, 1.5, 2.0]
    assert schedule.delay(1, now=1.2) == pytest.approx(0.3)
    assert schedule.delay(1, now=1.7) == 0.0
    schedule.answered(0, 1.25, ok=True)
    schedule.answered(1, 1.75, ok=False)
    assert schedule.latencies() == [0.25, 0.25, None]
    assert schedule.succeeded() == [0.25]
    with pytest.raises(ValueError):
        stats.OpenLoop(origin=0.0, rate=0.0, count=1)


# -- error rate ---------------------------------------------------------------------


def test_error_rate_counts_failures_against_every_attempt():
    # 100 issued: 3 errors, 2 shed, 1 timed out, 94 answered.
    assert stats.error_rate(attempted=100, failed=3 + 2 + 1) == pytest.approx(0.06)
    assert stats.error_rate(attempted=5, failed=0) == 0.0
    with pytest.raises(ValueError):
        stats.error_rate(attempted=0, failed=0)
    with pytest.raises(ValueError):
        stats.error_rate(attempted=3, failed=4)


def test_geometric_mean():
    assert stats.geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        stats.geometric_mean([1.0, 0.0])


# -- host speed -------------------------------------------------------------------


def _speed(times, slowdowns):
    return hostspeed.HostSpeed.from_samples(
        times, [s * hostspeed.REFERENCE_KERNEL_S for s in slowdowns])


def test_scaled_time_divides_by_the_median_slowdown_around_the_interval():
    # One sample every 0.1 s; the host is 2x slow from t=1.0 on.
    times = [0.1 * i for i in range(20)]
    speed = _speed(times, [1.0] * 10 + [2.0] * 10)
    assert speed.scaled(0.2, 0.6) == pytest.approx(0.4)
    assert speed.scaled(1.2, 1.6) == pytest.approx(0.2)
    # An interval between two samples takes the samples on either side.
    assert speed.slowdown(0.42, 0.44) == pytest.approx(1.0)
    # One interrupted sample does not move an interval that holds more.
    bumped = _speed(times, [1.0] * 5 + [9.0] + [1.0] * 14)
    assert bumped.scaled(0.2, 0.9) == pytest.approx(0.7)


def test_a_program_twice_as_fast_reads_twice_as_fast_in_any_host_phase():
    times = [0.05 * i for i in range(200)]
    slow = [1.6] * 100 + [1.0] * 100
    speed = _speed(times, slow)
    # The same work takes 1.6 s of wall in the slow phase, 1.0 s in the fast.
    assert speed.scaled(0.5, 2.1) == pytest.approx(speed.scaled(6.0, 7.0))
    # Half the work halves the scaled time in either phase.
    assert speed.scaled(0.5, 1.3) == pytest.approx(speed.scaled(6.0, 7.0) / 2)


def test_samples_are_taken_while_started_and_round_trip():
    speed = hostspeed.HostSpeed(period_s=0.005).start()
    try:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        speed.stop()
    assert len(speed.durations) >= 5
    assert speed.times == sorted(speed.times)
    assert all(d > 0.0 for d in speed.durations)
    copy = hostspeed.HostSpeed.from_samples(*speed.samples())
    assert copy.scaled(speed.times[0], speed.times[-1]) == \
        speed.scaled(speed.times[0], speed.times[-1])
    with pytest.raises(RuntimeError):
        hostspeed.HostSpeed().scaled(0.0, 1.0)
