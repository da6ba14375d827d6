"""Tests for :class:`repro.memo.ContentMemo` and its worker protocol."""

from repro.dataflow.cost_model import LAYER_COSTS
from repro.explore.mapper_search import MAPPINGS
from repro.memo import ContentMemo, drain_all, merge_all, snapshot_all


def filled(name, entries):
    memo = ContentMemo(name, maxsize=100)
    for prefix, key, value in entries:
        memo.insert(prefix, memo.bucket(prefix), key, value)
    return memo


class TestBound:
    def test_overflow_flushes_held_buckets_in_place(self):
        memo = ContentMemo("test_bound", maxsize=3)
        a, b = memo.bucket("a"), memo.bucket("b")
        memo.insert("a", a, 1, "x")
        memo.insert("b", b, 2, "y")
        memo.insert("a", a, 3, "z")
        assert a == {1: "x", 3: "z"} and b == {2: "y"}
        memo.insert("b", b, 4, "w")  # fourth entry exceeds maxsize=3
        assert a == {} and b == {}
        assert memo.bucket("a") is a  # callers' references stay live
        assert memo.snapshot() == ()
        memo.insert("a", a, 5, "v")
        assert memo.snapshot() == (("a", 5, "v"),)


class TestMerge:
    def test_merge_counts_held_entries_and_journals_nothing(self):
        memo = filled("test_merge", [("p", 1, "one")])
        memo.journal = []
        held = memo.merge([("p", 1, "other"), ("p", 2, "two"),
                           ("q", 3, "three")])
        assert held == 1
        assert memo.bucket("p") == {1: "one", 2: "two"}
        assert memo.bucket("q") == {3: "three"}
        assert memo.drain() == ()  # no echo back to the sender

    def test_merge_into_disabled_memo_is_a_noop(self):
        memo = ContentMemo("test_disabled", maxsize=100)
        memo.configure(enabled=False)
        assert memo.merge([("p", 1, "one"), ("p", 1, "one")]) == 0
        assert memo.snapshot() == ()

    def test_snapshot_round_trips_into_a_fresh_memo(self):
        entries = [("p", 1, "one"), ("p", 2, None), ("q", 1, "three")]
        source = filled("test_source", entries)
        target = ContentMemo("test_target", maxsize=100)
        assert target.merge(source.snapshot()) == 0
        assert sorted(target.snapshot(), key=repr) == sorted(entries,
                                                             key=repr)
        assert target.merge(source.snapshot()) == len(entries)


class TestJournal:
    def test_drain_returns_organic_inserts_once(self):
        memo = ContentMemo("test_journal", maxsize=100)
        memo.insert("p", memo.bucket("p"), 1, "before")  # not recording
        memo.journal = []
        memo.insert("p", memo.bucket("p"), 2, "after")
        assert memo.drain() == (("p", 2, "after"),)
        assert memo.drain() == ()
        assert memo.journal == []  # recording stays on


class TestStats:
    def test_clear_resets_stats_and_entries(self):
        memo = filled("test_stats", [("p", 1, "one")])
        memo.hits, memo.misses = 5, 2
        assert memo.stats() == (5, 2)
        memo.clear()
        assert memo.stats() == (0, 0)
        assert memo.snapshot() == ()


class TestProtocol:
    def test_library_memos_are_registered_by_name(self):
        assert (LAYER_COSTS.name, MAPPINGS.name) == ("layer_cost", "mapper")
        assert {"layer_cost", "mapper"} <= set(snapshot_all())

    def test_drain_all_ships_only_non_empty_journals(self):
        memo = ContentMemo("test_protocol", maxsize=100)
        memo.journal = []
        try:
            memo.insert("p", memo.bucket("p"), 1, "one")
            drained = drain_all()
            assert drained["test_protocol"] == (("p", 1, "one"),)
            assert drain_all().get("test_protocol") is None
            assert merge_all({"test_protocol": drained["test_protocol"]}) \
                == {"test_protocol": 1}
        finally:
            memo.journal = None
