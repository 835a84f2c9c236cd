"""Physical layout of TGI rows in the key-value cluster (paper Sec. 4.4).

Every row is keyed by the composite **delta key** ``(tsid, sid, did, pid)``:

- ``tsid`` — timespan id (``-1`` is reserved for version-chain rows);
- ``sid``  — horizontal placement group; the *placement key* ``(tsid, sid)``
  determines the storage machine, so one big fetch spreads over the cluster;
- ``did``  — delta id, a ``(tag, index)`` pair:
  ``("S", n)`` tree (derived snapshot) delta ``n``,
  ``("A", n)`` its auxiliary (boundary-replica) counterpart,
  ``("E", j)`` eventlist ``j``,
  ``("F", j)`` auxiliary eventlist ``j``,
  ``("V", node)`` a version chain row;
- ``pid``  — micro-partition id within the delta.

Rows are clustered (sorted within a machine) by the full key, so all
micro-partitions of one delta are contiguous and a snapshot fetch scans
them at the discounted continuation cost (Sec. 4.4 item 5).

Derived tables
--------------

The paper keeps this metadata "small enough to cache at the query
manager" so that turning a query into store keys costs nothing next to
fetching them.  Caching the metadata is not enough for that: every plan
used to re-derive the keys *from* it (one ``blake2b`` per key for the
``sid``, a scan of ``node_pid`` for a partition's members).  Each
:class:`TimespanInfo` therefore resolves, on first touch:

- :attr:`TimespanInfo.members` — ``pid -> frozenset(nodes)``, the
  inverse of ``node_pid`` (what :meth:`TimespanInfo.scope_of` unions);
- :meth:`TimespanInfo.keys` — a :class:`KeyTable` holding ``sids``
  (``pid -> sid`` for the span's ``num_pids`` partitions: the only place
  the read path hashes, once per pid per span) and, per ``(tag, index)``,
  an ordered ``pid -> DeltaKey`` map over the pids that store a row of
  that delta, in stored (ascending pid) order — so a plan restricted to
  a pid subset is one lookup per requested pid and lists keys exactly as
  a scan of the pid list would.

They **never invalidate**: a span is immutable once appended (updates
add new spans), and ``placement_groups`` is fixed at build.  They are
**not persisted**: ``__getstate__`` drops them, so a ``save_index`` file
is the same bytes whether or not the index has served a query, and a
loaded index refills them lazily.  Filling is idempotent (tuples,
frozensets and dicts with equal contents; last writer wins), which is
all that sharing one index between threads needs.  Every table is
bounded by the metadata it indexes (``<= num_pids`` entries per stored
delta), so there is no size to tune.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.index.delta_tree import DeltaTree
from repro.partitioning.random_part import hash_partition
from repro.types import NodeId, TimePoint

DeltaKey = Tuple[int, int, Tuple[str, int], int]

#: Reserved tsid for version-chain rows.
VC_TSID = -1

#: Delta-id tags.
TAG_SNAPSHOT = "S"
TAG_AUX_SNAPSHOT = "A"
TAG_EVENTLIST = "E"
TAG_AUX_EVENTLIST = "F"
TAG_VERSION_CHAIN = "V"


def sid_of_pid(pid: int, placement_groups: int) -> int:
    """Placement group of a micro-partition: micro-deltas (not nodes) are
    what gets spread over placement groups, so locality-close nodes that
    share a pid also share a placement."""
    return hash_partition(pid, placement_groups, salt=17)


def delta_key(tsid: int, sid: int, tag: str, index: int, pid: int) -> DeltaKey:
    return (tsid, sid, (tag, index), pid)


def version_chain_key(node: NodeId, placement_groups: int) -> DeltaKey:
    sid = hash_partition(node, placement_groups, salt=29)
    return (VC_TSID, sid, (TAG_VERSION_CHAIN, node), 0)


class KeyTable:
    """Resolved delta keys of one :class:`TimespanInfo` for one
    ``placement_groups`` value (see the module docstring's "Derived
    tables")."""

    __slots__ = ("placement_groups", "sids", "_span", "_keys")

    def __init__(self, span: "TimespanInfo", placement_groups: int) -> None:
        self._span = span
        self.placement_groups = placement_groups
        self.sids: Tuple[int, ...] = tuple(
            sid_of_pid(pid, placement_groups) for pid in range(span.num_pids)
        )
        self._keys: Dict[Tuple[str, int], Dict[int, DeltaKey]] = {}

    def of(self, tag: str, index: int) -> Dict[int, DeltaKey]:
        """Ordered ``pid -> DeltaKey`` over the pids storing a row of
        delta ``(tag, index)`` (empty when none does)."""
        did = (tag, index)
        table = self._keys.get(did)
        if table is None:
            span, sids = self._span, self.sids
            table = self._keys[did] = {
                pid: (span.tsid, sids[pid], did, pid)
                for pid in getattr(span, _PID_LISTS[tag]).get(index, ())
            }
        return table

    def select(
        self, tag: str, index: int, pids: Optional[Sequence[int]]
    ) -> List[DeltaKey]:
        """Keys of delta ``(tag, index)`` for ``pids`` (ascending;
        ``None`` = every stored pid), in stored order."""
        table = self.of(tag, index)
        if pids is None:
            return list(table.values())
        return [table[pid] for pid in pids if pid in table]


#: The :class:`TimespanInfo` pid list saying where a tag's deltas have rows.
_PID_LISTS = {
    TAG_SNAPSHOT: "snapshot_pids",
    TAG_AUX_SNAPSHOT: "aux_snapshot_pids",
    TAG_EVENTLIST: "eventlist_pids",
    TAG_AUX_EVENTLIST: "aux_eventlist_pids",
}


_NO_NODES: FrozenSet[NodeId] = frozenset()
#: bisect keys over ``eventlist_ranges`` entries ``(ts, te)``
_SCOPE_START, _SCOPE_END = itemgetter(0), itemgetter(1)


@dataclass
class TimespanInfo:
    """Client-side metadata for one timespan (the paper's ``Timespans`` and
    ``Micropartitions`` tables; small enough to cache at the query manager).

    Attributes:
        tsid: timespan id.
        t_start / t_end: half-open time range ``[t_start, t_end)``.
        checkpoints: checkpoint (tree-leaf) times; ``checkpoints[0]`` is the
            state *before* the span's first event.
        eventlist_ranges: ``(ts, te]`` scope per eventlist.
        tree: shape of the temporal-compression tree over the checkpoints.
        num_pids: number of micro-partitions in this span.
        node_pid: micro-partition of every node alive during the span.
        snapshot_pids: pids with a stored (non-empty) micro, per tree did.
        aux_snapshot_pids: same for auxiliary micros.
        eventlist_pids: pids with a stored micro, per eventlist index.
        aux_eventlist_pids: same for auxiliary eventlists.
        boundary: per pid, the replicated out-of-partition neighbor ids
            (empty when replication is off).
    """

    tsid: int
    t_start: TimePoint
    t_end: TimePoint
    checkpoints: List[TimePoint]
    eventlist_ranges: List[Tuple[TimePoint, TimePoint]]
    tree: DeltaTree
    num_pids: int
    node_pid: Dict[NodeId, int]
    snapshot_pids: Dict[int, List[int]] = field(default_factory=dict)
    aux_snapshot_pids: Dict[int, List[int]] = field(default_factory=dict)
    eventlist_pids: Dict[int, List[int]] = field(default_factory=dict)
    aux_eventlist_pids: Dict[int, List[int]] = field(default_factory=dict)
    boundary: Dict[int, FrozenSet[NodeId]] = field(default_factory=dict)
    #: derived tables, resolved on first touch and never pickled
    _members: Optional[Dict[int, FrozenSet[NodeId]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _keys: Optional[KeyTable] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_members", None)
        state.pop("_keys", None)
        return state

    @property
    def members(self) -> Dict[int, FrozenSet[NodeId]]:
        """``pid -> nodes``: the inverse of ``node_pid``."""
        members = self._members
        if members is None:
            grouped: Dict[int, List[NodeId]] = {}
            for node, pid in self.node_pid.items():
                grouped.setdefault(pid, []).append(node)
            members = self._members = {
                pid: frozenset(nodes) for pid, nodes in grouped.items()
            }
        return members

    def keys(self, placement_groups: int) -> KeyTable:
        """The span's resolved delta keys under ``placement_groups``."""
        keys = self._keys
        if keys is None or keys.placement_groups != placement_groups:
            keys = self._keys = KeyTable(self, placement_groups)
        return keys

    def pid_of(self, node: NodeId) -> Optional[int]:
        return self.node_pid.get(node)

    def leaf_at(self, t: TimePoint) -> int:
        """Largest checkpoint index with ``checkpoints[i] <= t``."""
        pos = bisect.bisect_right(self.checkpoints, t) - 1
        return max(pos, 0)

    def eventlists_between(self, cp_index: int, t: TimePoint) -> range:
        """Eventlist indices needed to move from checkpoint ``cp_index``
        forward to time ``t`` (those whose scope starts before ``t``)."""
        end = bisect.bisect_left(
            self.eventlist_ranges, t, lo=cp_index, key=_SCOPE_START
        )
        return range(cp_index, end)

    def eventlists_overlapping(self, t0: TimePoint, t: TimePoint) -> range:
        """Indices of the eventlists whose scope ``(ts_j, te_j]`` meets
        ``(t0, t]``.  Scopes are consecutive, so both ends bisect."""
        ranges = self.eventlist_ranges
        start = bisect.bisect_right(ranges, t0, key=_SCOPE_END)
        end = bisect.bisect_left(ranges, t, lo=start, key=_SCOPE_START)
        return range(start, end)

    def scope_of(self, pids: Iterable[int], include_aux: bool) -> Set[NodeId]:
        """Nodes covered by ``pids``: primary members, plus each
        partition's replicated boundary neighbors when auxiliaries are
        stored."""
        members = self.members
        scope: Set[NodeId] = set()
        for pid in pids:
            scope |= members.get(pid, _NO_NODES)
            if include_aux:
                scope |= self.boundary.get(pid, _NO_NODES)
        return scope
