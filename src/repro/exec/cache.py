"""Caches for the execution layer, plus the process-wide registry.

Three reuse levels, cheapest miss first:

- :class:`DeltaCache` — bounded LRU over *decoded store rows*.  TGI rows
  are immutable once written (timespans are append-only; the only
  rewritten rows are version chains, which the index invalidates on batch
  update), so a decoded row can be reused across fetch plans without
  re-reading or re-deserializing it.  The cache tracks the *stored* size
  of every entry so the executor can report bytes saved in the fetch
  stats.

- :class:`StateCheckpointCache` — bounded LRU over *fully-replayed
  states* (materialized partition states / snapshot graphs), keyed by the
  index at ``(timespan, partition, time)``.  A delta-cache hit still pays
  the Python replay of every component; a checkpoint hit skips replay
  entirely and seeds the query from the memoized state.  A payload is
  immutable from the moment it is admitted and ``lookup`` hands out the
  shared object: whoever is about to mutate it, or to give it to a
  caller, copies — the cache never does.

- :class:`CacheRegistry` — the process-wide pool sharing both caches
  across *consumers*: every session, TAF handler, or CLI query over the
  same stored index agrees on an index id (for on-disk indexes, the
  resolved file path + fingerprint) and gets the same :class:`CacheSlot`
  back.  Slots are reference-counted (``acquire`` / ``release``, driven
  by ``GraphSession.close()``); the last release drops the slot.

All three are **thread-safe**: the query service executes overlapping
batching windows on a thread pool over one shared index, so lookups,
admissions, LRU promotion/eviction, and refcount updates all mutate
under a per-object re-entrant lock.  (OrderedDict promotion and the
``refs`` counter are not atomic under concurrent writers; without the
locks two windows can corrupt the LRU linkage or leak/over-free a
slot.)  No cache is ever saved: ``TGI.__getstate__`` leaves both out
of an index file and a loaded index builds empty ones from its config,
so a warm read never changes a saved file and a loaded index serves
nothing another process cached.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

KeyTuple = Tuple


#: Full (oldest-generation) collections wanted at most once per this many
#: middle-generation ones while a checkpoint cache lives in the process;
#: CPython's default is 10.  See :func:`_relax_full_collections`.
FULL_COLLECTION_EVERY = 1000


def _relax_full_collections() -> None:
    """Make CPython's full garbage collections rare in a process that
    holds a checkpoint cache.

    Cached payloads are long-lived, immutable and acyclic, but a
    snapshot graph replayed from the root is one tracked ``set`` per
    node, and each full collection re-traverses all of them, landing on
    whichever read crosses the allocation threshold.  A near-seeded
    snapshot shares the sets of every node its gap did not touch with
    its seed (copy-on-write ``Graph.copy``), so it adds only its
    top-level maps and the touched nodes: with 40 warm D1 snapshots of
    one timespan, 39 of them near-seeded, they added 3-8 ms to a full
    collection (2-vCPU container), where eager copies added 71-80 ms,
    about 1.9 ms per cached snapshot.  Snapshots replayed from the root
    still cost the full walk, and at the default cadence such pauses
    were 4 in 240 warm reads (a seventh of their wall time) and moved a
    run's throughput by a tenth, so the cadence stays relaxed.  Young
    thresholds are untouched (a query defers its young collections to
    its end instead: :data:`collector_paused`); a cadence the
    application already set higher is kept, and so is a disabled
    collector.  Process-wide and never undone: the cost being avoided
    lasts as long as any cache.
    """
    young, middle, old = gc.get_threshold()
    if 0 < old < FULL_COLLECTION_EVERY:
        gc.set_threshold(young, middle, FULL_COLLECTION_EVERY)


class _CollectorPause(contextlib.ContextDecorator):
    """Keep CPython's cyclic collector off while a query builds its
    result; see :data:`collector_paused`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders = 0
        # whether the first holder found the collector on (and so the
        # pause is the one to turn it back on)
        self._owned = False

    def __enter__(self) -> "_CollectorPause":
        with self._lock:
            if self._holders == 0:
                self._owned = gc.isenabled()
                if self._owned:
                    gc.disable()
            self._holders += 1
        return self

    def __exit__(self, *exc) -> bool:
        with self._lock:
            self._holders -= 1
            owned = self._owned
            if owned and self._holders == 0:
                gc.enable()
        young, middle, _old = gc.get_threshold()
        count = gc.get_count()
        if owned and young and count[0] > young:
            # what CPython's thresholds call for: young, or young and
            # middle; full collections stay CPython's own (and rare)
            gc.collect(1 if count[1] > middle else 0)
        return False


#: Held around every read that builds a result: ``GraphSession._run``
#: (``execute``, ``execute_batch``, ``hgs serve``), ``TGI._retrieve``,
#: ``TGIHandler.retrieve_node_histories`` / ``retrieve_subgraphs`` and
#: the TAF compute loops (``RDD._run``, ``TGraph.Evolution``); as a
#: ``with`` block or a decorator.  A result is thousands of small
#: tracked containers (a ``set`` per neighbour list, attribute tuples,
#: decoded columns) and none forms a cycle, yet the collector rescans
#: them while they are still being built: at the default thresholds
#: that was about 19 % of ``snapshot_cold``'s wall, 12.5 % of
#: ``khop_batch``'s and 10 % of ``khop_cold``'s in the ledger.
#:
#: Reentrant and thread-safe: the first holder turns the collector off
#: and the last one turns it back on.  Overlapping holders in several
#: threads could keep it off indefinitely, so *every* release that finds
#: the young count past its threshold runs the collection CPython would
#: have run before it returns: garbage is bounded by one query's worth,
#: whoever else is still running.  A collector the application turned
#: off stays off, and the pause then never collects.  Writes
#: (``TGI.update``) are not paused: it measured flat there.
collector_paused = _CollectorPause()


@dataclass(frozen=True)
class CachedRow:
    """A decoded row plus the sizes its fetch would have cost."""

    value: Any
    stored_bytes: int
    raw_bytes: int


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counter snapshot."""

    hits: int
    misses: int
    evictions: int
    bytes_saved: int
    entries: int
    max_entries: int
    bytes_cached: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DeltaCache:
    """LRU cache of decoded rows, bounded by entry count.

    ``lookup`` promotes on hit and counts hits/misses; ``admit`` inserts
    and evicts least-recently-used entries past ``max_entries``.  Counters
    are cumulative over the cache's lifetime (``clear`` drops entries,
    not counters, so a batch update does not erase observed behavior).
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(
                "DeltaCache needs capacity for at least 1 entry"
            )
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._rows: "OrderedDict[KeyTuple, CachedRow]" = OrderedDict()
        self.bytes_cached = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes_saved = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: KeyTuple) -> bool:
        """Non-perturbing membership test (no promotion, no counters)."""
        return key in self._rows

    def lookup(self, key: KeyTuple) -> Optional[CachedRow]:
        with self._lock:
            row = self._rows.get(key)
            if row is None:
                self.misses += 1
                return None
            self._rows.move_to_end(key)
            self.hits += 1
            self.bytes_saved += row.stored_bytes
            return row

    def admit(
        self, key: KeyTuple, value: Any, stored_bytes: int, raw_bytes: int
    ) -> None:
        with self._lock:
            old = self._rows.get(key)
            if old is not None:
                self.bytes_cached -= old.stored_bytes
                self._rows.move_to_end(key)
            self._rows[key] = CachedRow(value, stored_bytes, raw_bytes)
            self.bytes_cached += stored_bytes
            while len(self._rows) > self.max_entries:
                _k, evicted = self._rows.popitem(last=False)
                self.bytes_cached -= evicted.stored_bytes
                self.evictions += 1

    def invalidate(self, key: KeyTuple) -> None:
        with self._lock:
            row = self._rows.pop(key, None)
            if row is not None:
                self.bytes_cached -= row.stored_bytes
                self.invalidations += 1

    def invalidate_many(self, keys) -> int:
        """Targeted invalidation: drop exactly ``keys`` (counted in
        ``stats().invalidations``); every other warm row survives.  The
        selective alternative to :meth:`clear` for batch updates, where
        only the rewritten version-chain rows change content."""
        dropped = 0
        with self._lock:
            for key in keys:
                if key in self._rows:
                    self.invalidate(key)
                    dropped += 1
        return dropped

    def clear(self) -> None:
        """Drop all entries (counters are retained)."""
        with self._lock:
            self._rows.clear()
            self.bytes_cached = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                bytes_saved=self.bytes_saved,
                entries=len(self._rows),
                max_entries=self.max_entries,
                bytes_cached=self.bytes_cached,
                invalidations=self.invalidations,
            )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"<DeltaCache {s.entries}/{s.max_entries} entries "
            f"hits={s.hits} misses={s.misses} evictions={s.evictions}>"
        )


@dataclass(frozen=True)
class CheckpointStats:
    """Point-in-time counter snapshot for a checkpoint cache."""

    hits: int
    misses: int
    evictions: int
    entries: int
    max_entries: int


class _MaxSentinel:
    """Compares greater than anything (bisect upper bound for a time)."""

    def __lt__(self, other: Any) -> bool:
        return False

    def __gt__(self, other: Any) -> bool:
        return True


_SERIES_MAX = _MaxSentinel()


class _CheckpointEntry:
    __slots__ = ("key", "payload", "series", "t")

    def __init__(
        self,
        key: KeyTuple,
        payload: Any,
        series: Optional[KeyTuple] = None,
        t: Any = None,
    ) -> None:
        self.key = key
        self.payload = payload
        self.series = series
        self.t = t


class StateCheckpointCache:
    """LRU memo of fully-replayed states, shared between readers.

    The consumer (the TGI) keys entries by ``(timespan, partition, time,
    scope flags)``.  **Ownership rule:** a payload is immutable from the
    moment it is admitted; ``lookup`` returns the shared object (counted
    and LRU-promoted), and whoever is about to mutate a value, or to
    hand it to a caller, makes the copy — the cache never does.  So
    ``admit`` takes ownership of what it is given (a producer that keeps
    using its object admits a copy), and the TGI copies at exactly three
    sites: the result of a *snapshot* query (the caller owns that
    graph) and the two payload shapes of
    ``repro.index.tgi.states.capture_near_seed`` (a seed
    snapshot graph and a seed partition state are each replayed forward
    in place).  Every other consumer only reads.  A graph copy is
    copy-on-write (``Graph.copy``): it shares every node's containers
    with the payload and takes its own only for the nodes it writes, so
    a snapshot result costs its top-level maps until the caller writes,
    and a near-seeded snapshot admitted here shares every node its gap
    did not touch with the seed it was advanced from.  ``peek`` answers
    warmness without counters or promotion — the planner uses it to
    price checkpoint-aware plans without perturbing the cache.  Building
    a cache (a loaded index builds its own) also makes CPython's *full*
    garbage collections rare for the whole process (they would re-walk
    every cached graph): see :func:`_relax_full_collections`.

    **Time series** — ``admit`` may name a ``series`` (e.g.
    ``(timespan, partition, aux)``) and an orderable ``t``; the cache
    then indexes the entry by time so :meth:`nearest` can answer "the
    warmest state at or before ``t``" — the lookup behind
    nearest-in-time checkpoint seeding.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(
                "StateCheckpointCache needs capacity for at least 1 entry"
            )
        _relax_full_collections()
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._entries: "OrderedDict[KeyTuple, _CheckpointEntry]" = (
            OrderedDict()
        )
        # sorted (t, key) pairs per series, for nearest-in-time probes
        self._series: Dict[KeyTuple, list] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: KeyTuple) -> bool:
        return key in self._entries

    def peek(self, key: KeyTuple) -> bool:
        """Non-perturbing warmness probe (no promotion, no counters)."""
        return key in self._entries

    def nearest(
        self, series: KeyTuple, t: Any
    ) -> Optional[Tuple[Any, KeyTuple]]:
        """The latest entry of ``series`` at or before ``t``, as a
        ``(t0, key)`` pair — non-perturbing, like :meth:`peek`; follow
        with :meth:`lookup` on the returned key for the counted, shared
        payload."""
        with self._lock:
            entries = self._series.get(series)
            if not entries:
                return None
            pos = bisect.bisect_right(entries, (t, _SERIES_MAX)) - 1
            if pos < 0:
                return None
            t0, key = entries[pos]
            return t0, key

    def lookup(self, key: KeyTuple) -> Optional[Any]:
        """The shared payload under ``key`` (read-only for the caller:
        copy before mutating it or handing it out), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.payload

    def admit(
        self,
        key: KeyTuple,
        payload: Any,
        series: Optional[KeyTuple] = None,
        t: Any = None,
    ) -> None:
        """Insert a replayed state, taking ownership of ``payload`` (the
        caller must not mutate it afterwards)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._drop_from_series(self._entries.get(key))
            self._entries[key] = _CheckpointEntry(key, payload, series, t)
            if series is not None:
                bisect.insort(self._series.setdefault(series, []), (t, key))
            while len(self._entries) > self.max_entries:
                _k, evicted = self._entries.popitem(last=False)
                self._drop_from_series(evicted)
                self.evictions += 1

    def _drop_from_series(self, entry: Optional[_CheckpointEntry]) -> None:
        if entry is None or entry.series is None:
            return
        lst = self._series.get(entry.series)
        if lst is None:
            return
        try:
            lst.remove((entry.t, entry.key))
        except ValueError:
            pass
        if not lst:
            self._series.pop(entry.series, None)

    def invalidate(self, key: KeyTuple) -> None:
        with self._lock:
            entry = self._entries.pop(key, None)
            self._drop_from_series(entry)

    def clear(self) -> None:
        """Drop all entries (counters are retained)."""
        with self._lock:
            self._entries.clear()
            self._series.clear()

    def stats(self) -> CheckpointStats:
        with self._lock:
            return CheckpointStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                entries=len(self._entries),
                max_entries=self.max_entries,
            )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"<StateCheckpointCache {s.entries}/{s.max_entries} entries "
            f"hits={s.hits} misses={s.misses}>"
        )


class CacheSlot:
    """One index's shared caches inside the registry.

    Either cache may be ``None`` when the first consumer asked for that
    level to stay off; a later consumer asking for it creates it in place
    (rows already warm in the other cache are unaffected).
    """

    def __init__(self) -> None:
        self.delta: Optional[DeltaCache] = None
        self.checkpoints: Optional[StateCheckpointCache] = None
        self.refs = 0


class CacheRegistry:
    """Process-wide pool of :class:`CacheSlot` objects keyed by index id.

    The first consumer to ask for an index id creates the slot's caches
    (with its requested capacities); later consumers get the same objects
    back — warm rows and all — regardless of the capacity they ask for,
    so one stored index never fragments into per-session caches.

    Lifecycle: consumers that want the slot kept alive call
    :meth:`acquire` and pair it with :meth:`release` (what
    ``GraphSession.close()`` does).  When the last reference is released
    the slot is dropped.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._slots: Dict[str, CacheSlot] = {}

    # ------------------------------------------------------------------
    def acquire(
        self,
        index_id: str,
        delta_entries: int = 0,
        checkpoint_entries: int = 0,
    ) -> CacheSlot:
        """The shared slot for ``index_id``, reference-counted.

        Pair with :meth:`release`; the caches requested here are created
        on first use and shared verbatim with every other consumer."""
        with self._lock:
            slot = self._slots.get(index_id)
            if slot is None:
                slot = CacheSlot()
                self._slots[index_id] = slot
            if slot.delta is None and delta_entries > 0:
                slot.delta = DeltaCache(delta_entries)
            if slot.checkpoints is None and checkpoint_entries > 0:
                slot.checkpoints = StateCheckpointCache(checkpoint_entries)
            slot.refs += 1
            return slot

    def release(self, index_id: str) -> None:
        """Drop one reference; the last release discards the slot."""
        with self._lock:
            slot = self._slots.get(index_id)
            if slot is None:
                return
            slot.refs -= 1
            if slot.refs <= 0:
                del self._slots[index_id]

    # ------------------------------------------------------------------
    def peek_slot(self, index_id: str) -> Optional[CacheSlot]:
        """The whole slot for ``index_id`` if one exists (no creation)."""
        with self._lock:
            return self._slots.get(index_id)

    def clear(self) -> None:
        """Forget every shared cache (used by tests and benchmarks)."""
        with self._lock:
            self._slots.clear()

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, index_id: str) -> bool:
        return index_id in self._slots


#: The process-wide registry `GraphSession` shares warm state through.
shared_caches = CacheRegistry()
