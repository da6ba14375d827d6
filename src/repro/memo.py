"""Process-wide content-addressed memos, and their worker protocol.

The bi-level search re-derives identical results millions of times, so
two layers memoize by content: the dataflow cost model (tile costs per
``(hardware, checkpoint, layer, mapping)``) and the SW-level mapper
(whole mapping searches per genome projection).  Both are instances of
:class:`ContentMemo`.

The hit path must cost single-digit microseconds or it eats its own
savings, so the structure is two-level: each client resolves its
hashable *prefix* to a per-prefix bucket dict once, at construction,
and every lookup is then one ``bucket.get(key)`` plus one counter
increment on the memo.  The bound is enforced by flushing everything
when the entry count exceeds ``maxsize`` (at the shipped bounds a
realistic search never gets there), which keeps per-hit bookkeeping at
zero.  Buckets are cleared in place, so a client holding one sees the
flush.

Parallel GA workers keep private memos.  The four module functions at
the bottom are the whole protocol that keeps them in step with the
parent: the parent ships :func:`snapshot_all` at pool creation, each
worker calls :func:`seed_and_journal` once and :func:`drain_all` per
genome, and the parent folds the drained journals back with
:func:`merge_all` in submission order.

This module imports nothing from :mod:`repro`: ``dataflow`` owns one
memo and must not depend on ``explore``, which owns the other.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

#: Every live memo by name.  Weak, so a short-lived memo (a test's) is
#: not carried through the worker protocol after it is dropped.
_MEMOS: "weakref.WeakValueDictionary[str, ContentMemo]" = (
    weakref.WeakValueDictionary())


class ContentMemo:
    """A bounded, journaled ``prefix -> key -> value`` memo.

    Values must be immutable (they are shared by every caller) and, for
    the worker protocol, picklable.  ``hits``/``misses`` are counted by
    the clients on their own hit path; the memo only stores them.
    """

    def __init__(self, name: str, maxsize: int) -> None:
        self.name = name
        self.maxsize = maxsize
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self._size = 0
        self._buckets: Dict[Any, Dict[Any, Any]] = {}
        #: When a list, every organic insert is appended as a
        #: ``(prefix, key, value)`` entry — the journal parallel workers
        #: drain per genome so the parent can merge their work back.
        self.journal: Optional[list] = None
        _MEMOS[name] = self

    def bucket(self, prefix: Any) -> Dict[Any, Any]:
        """The per-prefix entry dict (created on first use)."""
        entries = self._buckets.get(prefix)
        if entries is None:
            entries = self._buckets[prefix] = {}
        return entries

    def insert(self, prefix: Any, bucket: Dict[Any, Any], key: Any,
               value: Any, record: bool = True) -> None:
        """Insert one entry; journal it; flush if the bound is exceeded.

        ``record=False`` is the seeding/merge path: entries shipped in
        from another process must not re-enter this process's journal,
        or workers would echo their seed back to the parent forever.
        """
        bucket[key] = value
        self._size += 1
        if record and self.journal is not None:
            self.journal.append((prefix, key, value))
        if self._size > self.maxsize:
            self._flush()

    def _flush(self) -> None:
        for entries in self._buckets.values():
            entries.clear()
        self._size = 0

    def configure(self, enabled: Optional[bool] = None) -> None:
        """Switch the memo on or off (bench/testing hook)."""
        if enabled is not None:
            self.enabled = enabled

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._flush()
        self._buckets.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` since the last :meth:`clear`."""
        return self.hits, self.misses

    def snapshot(self) -> Tuple[tuple, ...]:
        """Every held entry as ``(prefix, key, value)`` tuples."""
        return tuple(
            (prefix, key, value)
            for prefix, entries in self._buckets.items()
            for key, value in entries.items()
        )

    def drain(self) -> Tuple[tuple, ...]:
        """Return and clear the journal, keeping recording on."""
        journal = self.journal
        if not journal:
            return ()
        entries = tuple(journal)
        journal.clear()
        return entries

    def merge(self, entries: Sequence[tuple]) -> int:
        """Insert-if-absent entries from another process, unjournaled.

        Returns how many of them this memo *already held*.  For a
        worker's journal, each of those was a genuine miss in the
        worker's private memo but would have been a hit in a serial
        run, so the caller reclassifies exactly that many misses as
        hits.  Merging outcomes in submission order makes parallel
        hit/miss totals equal the serial run's, key for key.  Seeding
        is a merge whose return value is ignored.
        """
        already_present = 0
        if not self.enabled:
            return already_present
        for prefix, key, value in entries:
            bucket = self.bucket(prefix)
            if key in bucket:
                already_present += 1
            else:
                self.insert(prefix, bucket, key, value, record=False)
        return already_present


def snapshot_all() -> Dict[str, Tuple[tuple, ...]]:
    """Every memo's entries by name (the parent's seed for workers)."""
    return {name: memo.snapshot() for name, memo in _MEMOS.items()}


def seed_and_journal(seeds: Mapping[str, Sequence[tuple]]) -> None:
    """Warm every memo from ``seeds``, then journal its inserts.

    A worker-process hook, called once at pool start; seeded entries
    are not journaled, so they never ship back.
    """
    for name, memo in _MEMOS.items():
        memo.merge(seeds.get(name, ()))
        memo.journal = []


def drain_all() -> Dict[str, Tuple[tuple, ...]]:
    """Every non-empty journal by memo name, each cleared."""
    drained = {name: memo.drain() for name, memo in _MEMOS.items()}
    return {name: entries for name, entries in drained.items() if entries}


def merge_all(entries: Mapping[str, Sequence[tuple]]) -> Dict[str, int]:
    """Merge drained journals; ``{name: already-held count}``."""
    return {name: _MEMOS[name].merge(batch)
            for name, batch in entries.items()}
