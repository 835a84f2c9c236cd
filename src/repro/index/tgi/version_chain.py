"""Version chains (paper Sec. 4.3c): per-node chronological pointers to the
eventlist rows holding that node's changes.

A node's chain is one row in the cluster (the ``Versions`` table), keyed
``(-1, hash(nid), ("V", nid), 0)``.  Each entry records the time range of
the node's events inside one eventlist partition plus that partition's
delta key, so a version query fetches exactly the rows it needs — the
``∑1 = |V| + 1`` cost of Table 1 (the ``+1`` is the chain row itself).

Row layout
----------

A chain only ever points at primary eventlist rows ``(tsid, sid, ("E",
j), pid)``, so an entry is six ints and a chain is one flat ``tuple`` of
them, sorted by ``(t_min, t_max)``::

    (t_min, t_max, tsid, sid, j, pid,  t_min, t_max, tsid, ...)

The same tuple is the in-memory chain (:meth:`VersionChainStore.chain`)
and the stored (pickled) row, so reading a chain unpickles one
tuple of small ints: no per-entry object exists until
:func:`pointers_in_range` assembles the delta keys a window needs.
"""

from __future__ import annotations

from itertools import chain as concat
from operator import itemgetter
from typing import Dict, List, Tuple

from repro.kvstore.cluster import Cluster
from repro.index.tgi.layout import TAG_EVENTLIST, DeltaKey, version_chain_key
from repro.types import NodeId, TimePoint

#: Ints per chain entry: t_min, t_max, tsid, sid, j, pid.
ENTRY_WIDTH = 6

#: A chain row: ``ENTRY_WIDTH`` ints per entry, sorted by (t_min, t_max).
Chain = Tuple[int, ...]

#: The sort key of one entry (of a row's last one: ``row[-ENTRY_WIDTH:]``).
_by_time = itemgetter(0, 1)


def pointers_in_range(chain: Chain, ts: TimePoint, te: TimePoint) -> List[DeltaKey]:
    """Delta keys whose entries overlap the query interval ``(ts, te]``,
    deduplicated, in chain order."""
    seen = set()
    keys: List[DeltaKey] = []
    it = iter(chain)
    for t_min, t_max, tsid, sid, j, pid in zip(it, it, it, it, it, it):
        if t_min > te:
            break  # sorted by t_min: no later entry starts in the window
        if t_max <= ts:
            continue
        key = (tsid, sid, (TAG_EVENTLIST, j), pid)
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


class VersionChainStore:
    """Builder + accessor for version-chain rows."""

    def __init__(self, cluster: Cluster, placement_groups: int) -> None:
        self._cluster = cluster
        self._placement_groups = placement_groups
        #: entries recorded since the last flush, one 6-tuple each
        self._pending: Dict[NodeId, List[Chain]] = {}
        #: every stored chain, exactly as its row holds it
        self._chains: Dict[NodeId, Chain] = {}

    # -- build side ------------------------------------------------------
    def record(
        self, node: NodeId, t_min: TimePoint, t_max: TimePoint, key: DeltaKey
    ) -> None:
        """Append a pointer for ``node`` to the primary eventlist row
        ``key`` (build-time accumulation)."""
        tsid, sid, (tag, j), pid = key
        assert tag == TAG_EVENTLIST, key
        self._pending.setdefault(node, []).append(
            (t_min, t_max, tsid, sid, j, pid)
        )

    def flush(self) -> List[DeltaKey]:
        """Write/rewrite the chain rows that gained pointers since the
        last flush (used both at initial build and on batch update).

        A chain's new entries are sorted among themselves (stably, by
        ``(t_min, t_max)``); when the first starts at or after the
        chain's last stored entry they are appended to its row as they
        are — always the case for :meth:`TGI.update`, which only adds
        later spans.  Otherwise the chain is re-sorted whole.  Either
        way the row is the stable sort of every entry recorded so far.

        Returns the keys whose stored content changed, so the index can
        invalidate exactly those cached rows instead of clearing the
        whole delta cache — a chain without new pointers is not
        rewritten."""
        changed: List[DeltaKey] = []
        for node, added in self._pending.items():
            added.sort(key=_by_time)
            old = self._chains.get(node, ())
            if old and _by_time(added[0]) < _by_time(old[-ENTRY_WIDTH:]):
                # an entry before the chain's last: re-sort it whole
                it = iter(old)
                added = sorted(
                    [*zip(*[it] * ENTRY_WIDTH), *added], key=_by_time
                )
                old = ()
            row = old + tuple(concat.from_iterable(added))
            key = version_chain_key(node, self._placement_groups)
            self._cluster.put(key, row)
            self._chains[node] = row
            changed.append(key)
        self._pending.clear()
        return changed

    # -- query side --------------------------------------------------------
    def has_chain(self, node: NodeId) -> bool:
        """Whether a chain row for ``node`` exists in the store."""
        return node in self._chains

    def chain(self, node: NodeId) -> Chain:
        """``node``'s chain exactly as its row stores it (empty when it
        has none): what the planner reads pointers from, unfetched."""
        return self._chains.get(node, ())
