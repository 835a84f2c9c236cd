"""Columnar row encodings: packed parallel arrays for eventlists and
micro-deltas, decoded without per-item object churn.

The paper's prototype pickled eventlists as tuples of ``Event`` objects
and micro-deltas as sets of frozen ``StaticNode`` objects; profiling
(PR 5's apply calibration, PR 11's ledger) showed retrieval spends most
of its simulated *and* wall-clock time in that object churn — unpickling
thousands of small frozen dataclasses and walking them one attribute
access at a time.  These layouts are the only stored form of the two
row kinds.

**Eventlists** are stored as packed sections:

====== ======================= =======================================
offset section                 contents
====== ======================= =======================================
0      version                 1 byte: ``1`` = int ids, ``2`` = id table
1      header                  ``struct '=qqq'``: ts, te, n
25     times                   ``n`` × int64
25+8n  seqs                    ``n`` × int64
25+16n kinds                   ``n`` × uint8 (:class:`EventKind` value)
25+17n nodes                   ``n`` × int64
25+25n others                  ``n`` × int64 (version 1: int64-min = no
                               endpoint; version 2: -1 = no endpoint)
25+33n tail                    version 1: pickle of the side-table
                               ``{row: (key, value, old_value)}``,
                               absent when empty; version 2: pickle of
                               ``(id table, side-table)``
====== ======================= =======================================

A row of plain int64 ids is version 1.  Any other id (``str``,
``bool``, ``float``, an int beyond int64) makes it version 2: the id
columns index the row's distinct ids, keyed by type and value so
``True`` never folds into ``1``.  An endpoint equal to the sentinel, or
a time or seq that is no int64, raises :class:`~repro.errors.EventError`
at pack time.

Decode is *lazy and zero-copy*: :class:`ColumnarEventList` wraps
``memoryview`` casts over the payload and only materializes ``Event``
objects on demand (counted, so ``FetchStats.decoded_events`` can report
how much decoding a query actually forced).  Replay never needs the
objects at all — the bulk kernels in ``graph.static`` and
``index.tgi.query`` read the columns directly, alike for both
versions: a version-2 row maps its id columns back to the ids on open.

The side-table covers the minority of events carrying an attribute key,
value or old value; attribute keys are interned at pack time so pickle's
memo shares one copy per distinct key.

**Micro-deltas** (:func:`pack_delta` / :func:`unpack_delta`) store their
static nodes as a CSR adjacency — ``n`` nodes, ``m`` edge-list entries,
every integer ``w`` bytes wide, where ``w`` is the narrowest of 4 / 8
that holds every integer of *this row*:

========== =================== =======================================
offset     section             contents
========== =================== =======================================
0          header              ``struct '=BBII'``: version (``1`` = int
                               ids, ``2`` = id table), ``w`` (4 = int32
                               or 8 = int64), n, m
10         node ids            ``n`` × int-``w``
10+wn      offsets             ``n+1`` × int-``w``: node ``i``'s edge
                               list is neighbours ``[off[i], off[i+1])``
10+w(2n+1) neighbours          ``m`` × int-``w``
10+w(2n+1+m) tail              version 1: pickle of ``({node id:
                               attribute pairs}, (StaticEdge, ...))``,
                               absent when both are empty; version 2:
                               pickle of ``(id table, attributes,
                               edges)``
========== =================== =======================================

Decode of a version-1 row is *by slot*: :func:`unpack_delta` lists only
the id column, unpickles the side-table and keeps the offsets +
neighbours as one ``memoryview`` int column (:class:`PackedNodes`) under
a :meth:`Delta.from_packed` delta.  What happens next depends on the
read.  A read of every node — ``Delta.columns`` and so ``to_graph``,
``Delta.sum``, ``Delta.load_snapshot`` and ``size``, or
``static_nodes`` over a scope covering the row — slices the neighbour
column into one edge list per node in one bulk pass, after which the
delta holds plain columns and drops the packed view; no ``StaticNode``
is built (those four never need one).  A scoped
``static_nodes(within)`` that does not cover the row — a history plan
replaying only its asked nodes — thaws just the in-scope nodes, each
from its own offsets, found through an id → slot map built on first
use.  A version-2 row decodes eagerly into a
:meth:`Delta.from_columns` delta over the real ids.  The side-table
carries only what few components have: node attribute tuples and
explicit ``StaticEdge`` components (TGI stores one per *attributed*
edge); it stays one pickle per row, so rows keep pickle's memo sharing.
"""

from __future__ import annotations

import contextvars
import pickle
import struct
import sys
import threading
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from itertools import accumulate, chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.deltas.base import Delta, StaticNode
from repro.errors import EventError
from repro.graph.events import Event, EventKind
from repro.types import NodeId, TimePoint

#: Layout version bytes: an all-int eventlist row (ids in the id
#: columns), and a row of either kind whose id columns index its
#: pickled id table.
_COL_VERSION = 1
_TABLE_VERSION = 2

#: Header after the version byte: ts, te, n (native int64).
_HEADER = struct.Struct("=qqq")
_HEADER_END = 1 + _HEADER.size

#: Sentinel in the ``others`` column for node events (no second
#: endpoint); int64 min, unreachable by real node ids (|id| <= 2**62
#: would already exceed every ``TimePoint`` bound in :mod:`repro.types`).
#: A version-2 row stores -1 instead and decodes it to this sentinel.
_NO_OTHER = -(2 ** 63)

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: EventKind lookup by value (values are contiguous 0..7).
_KINDS: Tuple[EventKind, ...] = tuple(EventKind)

# Materialization counters: every Event object a ColumnarEventList
# constructs counts into the process-wide total and into the accumulator
# of the query that forced it, when one is active
# (FetchStats.decoded_events).  The accumulator rides a context variable:
# it follows the query onto whichever thread runs it (workers run in a
# copy of the caller's context) and never sees a concurrent query's
# decodes.
_decoded_lock = threading.Lock()
_decoded_events = 0
_DECODED_CELL: "contextvars.ContextVar[Optional[List[int]]]" = (
    contextvars.ContextVar("hgs_decoded_events", default=None)
)


def decoded_events_total() -> int:
    """Process-wide count of ``Event`` objects materialized from
    columnar payloads (monotonic)."""
    return _decoded_events


@contextmanager
def count_decoded() -> Iterator[List[int]]:
    """Count the ``Event`` objects materialized inside the block — by
    this thread or by threads running in a copy of its context — into the
    yielded one-element list.  The innermost active scope takes a count."""
    cell = [0]
    token = _DECODED_CELL.set(cell)
    try:
        yield cell
    finally:
        _DECODED_CELL.reset(token)


def _count_decoded(n: int) -> None:
    global _decoded_events
    cell = _DECODED_CELL.get()
    with _decoded_lock:
        _decoded_events += n
        if cell is not None:
            cell[0] += n


def _fits(x: Any) -> bool:
    return type(x) is int and _INT64_MIN <= x <= _INT64_MAX


class _IdTable(dict):
    """A version-2 row's id table under construction: ``(type, id) ->
    index``, keyed by type as well as value so ``True`` and ``1`` (or
    ``1.0``) stay distinct entries."""

    def at(self, x: Any) -> int:
        return self.setdefault((type(x), x), len(self))

    def ids(self) -> List[Any]:
        return [x for _t, x in self]


def pack_eventlist(ts: TimePoint, te: TimePoint, events: Sequence[Event]) -> bytes:
    """Pack a sorted event run into the columnar layout: version 1 when
    every id is a plain int64, else version 2 with an id table.

    Raises :class:`EventError` when ``ts`` or ``te`` is not an int64.
    The events themselves are the writer's to check, once per write
    (:func:`check_packable`) before its first row, as their order is.
    """
    if not (_fits(ts) and _fits(te)):
        raise EventError(f"eventlist scope ({ts!r}, {te!r}] is not int64")
    n = len(events)
    times: List[int] = []
    seqs: List[int] = []
    kinds = bytearray(n)
    nodes: List[Any] = []
    others: List[int] = []
    side: Dict[int, Tuple[Optional[str], Any, Any]] = {}
    ints = True
    for i, ev in enumerate(events):
        other = ev.other
        if ints and not (_fits(ev.node) and (other is None or _fits(other))):
            ints = False
        times.append(ev.time)
        seqs.append(ev.seq)
        kinds[i] = int(ev.kind)
        nodes.append(ev.node)
        others.append(_NO_OTHER if other is None else other)
        if ev.key is not None or ev.value is not None or ev.old_value is not None:
            key = sys.intern(ev.key) if ev.key is not None else None
            side[i] = (key, ev.value, ev.old_value)
    if ints:
        version = _COL_VERSION
        tail = pickle.dumps(side, protocol=pickle.HIGHEST_PROTOCOL) if side else b""
    else:
        version = _TABLE_VERSION
        table = _IdTable()
        nodes = list(map(table.at, nodes))
        others = [-1 if ev.other is None else table.at(ev.other) for ev in events]
        tail = pickle.dumps((table.ids(), side), protocol=pickle.HIGHEST_PROTOCOL)
    return b"".join([
        bytes((version,)),
        _HEADER.pack(ts, te, n),
        struct.pack(f"={n}q", *times),
        struct.pack(f"={n}q", *seqs),
        bytes(kinds),
        struct.pack(f"={n}q", *nodes),
        struct.pack(f"={n}q", *others),
        tail,
    ])


def check_packable(events: Sequence[Event]) -> None:
    """Raise :class:`EventError` unless every event fits a packed
    eventlist: its time and seq are int64s, the time above int64's
    minimum (no int64 scope ``(ts, te]`` holds that), and no endpoint
    equals the no-endpoint sentinel.  A writer checks its whole stream
    with it once, before storing any row: :func:`pack_eventlist` packs
    what it is given unchecked (a row re-packed from a decoded row is
    packable by construction)."""
    times = [ev.time for ev in events]
    if not (_all_fit(times) and _all_fit([ev.seq for ev in events])):
        ev = next(e for e in events if not (_fits(e.time) and _fits(e.seq)))
        raise EventError(
            f"event time {ev.time!r} / seq {ev.seq!r} is not int64"
        )
    if times and min(times) == _INT64_MIN:
        raise EventError(f"event time {_INT64_MIN} is below every int64 scope")
    if _NO_OTHER in [ev.other for ev in events]:
        raise EventError(
            f"endpoint id {_NO_OTHER} is the no-endpoint sentinel"
        )


def _all_fit(xs: List[Any]) -> bool:
    """:func:`_fits` over a whole column, in a few C-level passes."""
    return not xs or (
        set(map(type, xs)) == {int}
        and _INT64_MIN <= min(xs) and max(xs) <= _INT64_MAX
    )


class _IdColumn(list):
    """A version-2 row's id column mapped back to the real ids; reads
    like the ``memoryview`` id column of a version-1 row (indexing,
    ``tolist``), so the replay kernels take either."""

    __slots__ = ()

    tolist = list.copy


class ColumnarEventList:
    """Lazy, zero-copy view of a columnar eventlist payload — the one
    eventlist type, written and read alike.

    A writer wraps what :func:`pack_eventlist` packed; a read wraps a
    stored payload.  It holds only ``memoryview`` casts over the payload
    plus a ``(lo, hi)`` row window, and offers ``ts``, ``te``,
    ``events``, ``len``, iteration, ``filter_by_time``,
    ``filter_by_id`` and ``group_by_id``.  ``filter_by_time`` narrows
    the window by bisection on the times column — no event is
    materialized; ``events`` materializes (and caches) the window's
    ``Event`` tuple on first access, via a trusted constructor (the
    writer validated the events before packing).
    """

    __slots__ = (
        "ts", "te", "_data", "_n", "_lo", "_hi",
        "_times", "_seqs", "_kinds", "_nodes", "_others",
        "_side_off", "_side", "_events",
    )

    def __init__(self, data: Any) -> None:
        mv = data if isinstance(data, memoryview) else memoryview(data)
        size = len(mv)
        if size >= _HEADER_END:
            version = mv[0]
            hts, hte, n = _HEADER.unpack_from(mv, 1)
        else:  # short: reported as truncated unless the version is bad
            version, hts, hte, n = (mv[0] if size else _COL_VERSION), 0, 0, -1
        table = version == _TABLE_VERSION
        if version != _COL_VERSION and not table:
            raise ValueError(
                f"unsupported columnar eventlist layout (version byte {version})"
            )
        # a version-2 row always carries its id table after the columns
        if n < 0 or size < _HEADER_END + 33 * n + table:
            raise ValueError("truncated columnar eventlist payload")
        o = _HEADER_END
        self._data = mv
        self._n = n
        self._times = mv[o:o + 8 * n].cast("q"); o += 8 * n
        self._seqs = mv[o:o + 8 * n].cast("q"); o += 8 * n
        self._kinds = mv[o:o + n]; o += n
        self._nodes = mv[o:o + 8 * n].cast("q"); o += 8 * n
        self._others = mv[o:o + 8 * n].cast("q"); o += 8 * n
        self._side_off = o
        self._side: Optional[Dict[int, Tuple]] = None
        self._events: Optional[Tuple[Event, ...]] = None
        if table:
            ids, self._side = pickle.loads(mv[o:])
            ids.append(_NO_OTHER)  # index -1: no second endpoint
            self._nodes = _IdColumn(map(ids.__getitem__, self._nodes))
            self._others = _IdColumn(map(ids.__getitem__, self._others))
        self._lo = 0
        self._hi = n
        self.ts = hts
        self.te = hte

    # -- side-table -------------------------------------------------------
    def _side_entries(self) -> Dict[int, Tuple]:
        side = self._side
        if side is None:
            blob = self._data[self._side_off:]
            side = pickle.loads(blob) if len(blob) else {}
            self._side = side  # benign race: identical result either way
        return side

    # -- materialization --------------------------------------------------
    def _event_at(self, i: int) -> Event:
        """Trusted fast construction: bit-equivalent to the packed Event
        without re-running ``Event.__post_init__``.  Each event was
        validated once, when it was written: its order by the writer
        (``TGI._append_spans``, or a baseline index's ``build``) and its
        fit by :func:`check_packable`."""
        ev = Event.__new__(Event)
        oset = object.__setattr__
        oset(ev, "time", self._times[i])
        oset(ev, "seq", self._seqs[i])
        oset(ev, "kind", _KINDS[self._kinds[i]])
        oset(ev, "node", self._nodes[i])
        o = self._others[i]
        oset(ev, "other", None if o == _NO_OTHER else o)
        entry = self._side_entries().get(i)
        key, value, old = entry if entry is not None else (None, None, None)
        oset(ev, "key", key)
        oset(ev, "value", value)
        oset(ev, "old_value", old)
        return ev

    @property
    def events(self) -> Tuple[Event, ...]:
        evs = self._events
        if evs is None:
            at = self._event_at
            evs = tuple(at(i) for i in range(self._lo, self._hi))
            self._events = evs
            _count_decoded(len(evs))
        return evs

    # -- eventlist protocol ----------------------------------------------
    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnarEventList):
            return (
                self.ts == other.ts
                and self.te == other.te
                and self.events == other.events
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable caches inside

    def __repr__(self) -> str:
        return (
            f"ColumnarEventList(ts={self.ts}, te={self.te}, "
            f"n={len(self)}, lazy={self._events is None})"
        )

    def filter_by_time(self, ts: TimePoint, te: TimePoint) -> "ColumnarEventList":
        """Narrow to ``ts < time <= te`` by bisecting the times column —
        a windowed view sharing this row's parsed columns (and its id
        table and side-table, once read); nothing is parsed again and
        nothing materializes."""
        lo = bisect_right(self._times, ts, self._lo, self._hi)
        hi = bisect_right(self._times, te, lo, self._hi)
        # ``__init__`` sets every slot; ``copy.copy`` would take 3x as long
        out = ColumnarEventList.__new__(ColumnarEventList)
        for name in ColumnarEventList.__slots__:
            setattr(out, name, getattr(self, name))
        out._events = None
        out._lo, out._hi = lo, hi
        if lo == hi:  # an empty window keeps the asked scope
            out.ts, out.te = ts, te
        else:
            out.ts, out.te = max(ts, self.ts), min(te, self.te)
        return out

    def filter_by_id(self, node_ids) -> "ColumnarEventList":
        """Restrict to events touching any of ``node_ids`` (paper's
        ``FilterById``): materializes only the matching rows (kept rows
        are rarely contiguous) and packs them into a row of their own,
        whose ``events`` are those very objects."""
        keep = set(node_ids)
        nodes, others = self._nodes, self._others
        hits = [
            i for i in range(self._lo, self._hi)
            if nodes[i] in keep
            or (others[i] != _NO_OTHER and others[i] in keep)
        ]
        sub = tuple(self._event_at(i) for i in hits)
        _count_decoded(len(sub))
        out = ColumnarEventList(pack_eventlist(self.ts, self.te, sub))
        out._events = sub
        return out

    def group_by_id(self, node_ids) -> Dict[NodeId, List[Event]]:
        """:meth:`filter_by_id` for each of ``node_ids`` in one scan of
        the id columns: ``{node: events touching it}`` over the nodes
        some row touches.  A matching row materializes (and counts) once,
        so an edge event between two of the nodes is one object in both
        lists; a self-loop is listed once."""
        keep = set(node_ids)
        lo, hi = self._lo, self._hi
        at = self._event_at
        out: Dict[NodeId, List[Event]] = {}
        made = 0
        for i, u, v in zip(
            range(lo, hi), self._nodes[lo:hi], self._others[lo:hi]
        ):
            hit_u = u in keep
            hit_v = v != u and v != _NO_OTHER and v in keep
            if hit_u or hit_v:
                ev = at(i)
                made += 1
                if hit_u:
                    out.setdefault(u, []).append(ev)
                if hit_v:
                    out.setdefault(v, []).append(ev)
        _count_decoded(made)
        return out

    # -- re-encoding ------------------------------------------------------
    def packed_bytes(self) -> bytes:
        """The full columnar payload when this view covers every row —
        the ``bytes`` it was built over when it holds one, else a copy —
        or a repack of just the window (re-putting a filtered row)."""
        if self._lo == 0 and self._hi == self._n:
            data = self._data
            whole = data.obj
            if type(whole) is bytes and len(whole) == data.nbytes:
                return whole
            return bytes(data)
        return pack_eventlist(self.ts, self.te, self.events)


def merged_order(
    lists: Sequence[ColumnarEventList],
    until: Optional[TimePoint] = None,
    after: Optional[TimePoint] = None,
) -> Tuple[List[Tuple[int, int]], Optional[List[Tuple[int, int]]]]:
    """Plan a global ``(time, seq)`` apply order over several columnar
    lists without materializing events.

    Returns ``(windows, order)``: ``windows[li]`` is the ``(lo, hi)``
    row window of list ``li`` after the optional ``after < time <=
    until`` bounds (bisected on the times column).  ``order`` is
    ``None`` when at most one window is non-empty — the caller replays
    that window directly (rows within one list are already sorted and
    seq-unique).  Otherwise it lists ``(li, i)`` pairs sorted by
    ``(time, seq)`` with replicated copies (same seq in several lists —
    edge events are stored with both endpoints) dropped, matching
    ``dedup_sorted`` exactly.
    """
    windows: List[Tuple[int, int]] = []
    nonempty: List[int] = []
    for li, cel in enumerate(lists):
        lo, hi = cel._lo, cel._hi
        if after is not None:
            lo = bisect_right(cel._times, after, lo, hi)
        if until is not None:
            hi = bisect_right(cel._times, until, lo, hi)
        windows.append((lo, hi))
        if hi > lo:
            nonempty.append(li)
    if len(nonempty) <= 1:
        return windows, None
    # a partition's chain arrives as consecutive time segments: when
    # every window begins strictly after the previous one ends (by
    # (time, seq)), the globally sorted deduplicated order is just the
    # windows in list order — no sort, no seen-set.  Strictness matters:
    # a replicated copy shares its (time, seq) exactly, so any duplicate
    # breaks the ordering and forces the merge below.
    sequential = True
    prev_t = prev_s = 0
    first = True
    for li in nonempty:
        cel = lists[li]
        lo, hi = windows[li]
        t0, s0 = cel._times[lo], cel._seqs[lo]
        if not first and (prev_t, prev_s) >= (t0, s0):
            sequential = False
            break
        first = False
        prev_t, prev_s = cel._times[hi - 1], cel._seqs[hi - 1]
    if sequential:
        return windows, None
    entries: List[Tuple[int, int, int, int]] = []
    for li in nonempty:
        cel = lists[li]
        times, seqs = cel._times, cel._seqs
        lo, hi = windows[li]
        entries.extend((times[i], seqs[i], li, i) for i in range(lo, hi))
    entries.sort()
    seen: set = set()
    order: List[Tuple[int, int]] = []
    for _t, seq, li, i in entries:
        if seq not in seen:
            seen.add(seq)
            order.append((li, i))
    return windows, order


# ----------------------------------------------------------------------
# micro-deltas
# ----------------------------------------------------------------------

#: Layout version byte of an all-int micro-delta row (an id-table row
#: is ``_TABLE_VERSION``, as for eventlists).
_DELTA_VERSION = 1

#: Leading bytes: version, integer width, n nodes, m edge-list entries.
_DELTA_HEADER = struct.Struct("=BBII")

#: Integer width in bytes -> array / memoryview type code.
_WIDTH_CODES = {4: "i", 8: "q"}


def _narrowest(ints: List[int]) -> Optional[Tuple[int, array]]:
    """``(width, column)`` at the narrowest width holding every one of
    ``ints``, or ``None`` when one is beyond int64."""
    for width, code in _WIDTH_CODES.items():
        try:
            return width, array(code, ints)
        except OverflowError:
            continue
    return None


def pack_delta(delta: Delta) -> bytes:
    """Pack a delta into the micro-delta layout, at the narrowest
    integer width that holds its columns: version 1 when every node id
    and edge-list entry is a plain int64, else version 2 with an id
    table."""
    adjacency, attrs = delta.columns()
    ids = list(adjacency)
    lists = adjacency.values()
    offsets = list(accumulate(map(len, lists), initial=0))
    nbrs = list(chain.from_iterable(lists))
    node_attrs = {n: a for n, a in attrs.items() if a}
    edges = tuple(delta.static_edges().values())
    version, tail = _DELTA_VERSION, (node_attrs, edges)
    packed = None
    if not (set(map(type, ids)) | set(map(type, nbrs))) - {int}:
        packed = _narrowest(ids + offsets + nbrs)
    if packed is None:
        table = _IdTable()
        ids = list(map(table.at, ids))
        nbrs = list(map(table.at, nbrs))
        packed = _narrowest(ids + offsets + nbrs)
        version, tail = _TABLE_VERSION, (table.ids(), node_attrs, edges)
    width, cols = packed
    parts = [
        _DELTA_HEADER.pack(version, width, len(ids), len(nbrs)),
        cols.tobytes(),
    ]
    if version == _TABLE_VERSION or node_attrs or edges:
        parts.append(pickle.dumps(tail, protocol=pickle.HIGHEST_PROTOCOL))
    return b"".join(parts)


def _node_columns(
    ids: List[Any], offsets: List[int], nbrs: List[Any], node_attrs: Dict
) -> Tuple[Dict[Any, List[Any]], Dict[Any, Tuple]]:
    """``(adjacency, attributes)`` of a CSR row, as
    :meth:`Delta.columns` hands them out."""
    adjacency = dict(
        zip(ids, map(nbrs.__getitem__, map(slice, offsets, offsets[1:])))
    )
    attrs = dict.fromkeys(adjacency, ())  # a dict source skips rehashing
    attrs.update(node_attrs)
    return adjacency, attrs


class PackedNodes:
    """The node columns of one packed micro-delta row, decoded on demand.

    Holds the row's id column as a list, its offsets + neighbours as one
    ``memoryview`` int column, and the side-table's node attributes.
    :meth:`columns` decodes every edge list in one bulk pass;
    :meth:`thaw` builds single :class:`StaticNode` objects, finding each
    node's edge list through an id → slot map built on first use.
    """

    __slots__ = ("ids", "_csr", "_attrs", "_slots")

    def __init__(
        self,
        ids: List[int],
        csr: memoryview,
        attrs: Dict[int, Tuple[Tuple[str, Any], ...]],
    ) -> None:
        self.ids = ids
        self._csr = csr  # n + 1 offsets, then the neighbours
        self._attrs = attrs  # only the nodes that have attributes
        self._slots: Optional[Dict[int, int]] = None

    @property
    def slots(self) -> Dict[int, int]:
        """``node id -> slot`` (its row in the id column)."""
        slots = self._slots
        if slots is None:
            # benign race: identical result either way
            slots = self._slots = dict(zip(self.ids, range(len(self.ids))))
        return slots

    def columns(self) -> Tuple[Dict[int, List[int]], Dict[int, Tuple]]:
        """Every node's ``(edge list, attribute pairs)``, as
        :meth:`Delta.columns` hands them out."""
        ids, csr = self.ids, self._csr
        n = len(ids)
        return _node_columns(
            ids, csr[:n + 1].tolist(), csr[n + 1:].tolist(), self._attrs
        )

    def thaw(self, ids: Iterable[int], into: Dict[int, StaticNode]) -> None:
        """Build the static node of each of ``ids`` (row members) that
        ``into`` does not hold yet, into it."""
        slots, csr, attrs = self.slots, self._csr, self._attrs
        base = len(self.ids) + 1
        for n in ids:
            if n not in into:
                i = slots[n]
                into[n] = StaticNode(
                    n,
                    frozenset(csr[base + csr[i]:base + csr[i + 1]]),
                    attrs.get(n, ()),
                )


def unpack_delta(data: Any) -> Delta:
    """Decode a micro-delta payload into a :class:`Delta` equal to the
    one that was packed.  A version-1 row decodes over its
    :class:`PackedNodes`: only the id column is listed and the
    side-table unpickled here, edge lists wait until a read asks for
    them.  A version-2 row maps its columns through the id table at
    once, into a :meth:`Delta.from_columns` delta."""
    mv = memoryview(data)
    if len(mv) < _DELTA_HEADER.size:
        raise ValueError("truncated micro-delta payload")
    version, width, n, m = _DELTA_HEADER.unpack_from(mv)
    code = _WIDTH_CODES.get(width)
    if version not in (_DELTA_VERSION, _TABLE_VERSION) or code is None:
        raise ValueError(
            f"unsupported micro-delta layout (version byte {version}, "
            f"width byte {width})"
        )
    end = _DELTA_HEADER.size + width * (2 * n + 1 + m)
    # a version-2 row always carries its id table after the columns
    if len(mv) < end + (version == _TABLE_VERSION):
        raise ValueError("truncated micro-delta payload")
    ints = mv[_DELTA_HEADER.size:end].cast(code)
    *table, node_attrs, edge_components = (
        pickle.loads(mv[end:]) if end < len(mv) else ({}, ())
    )
    edges = {(e.u, e.v): e for e in edge_components}
    if version == _DELTA_VERSION:
        return Delta.from_packed(
            PackedNodes(ints[:n].tolist(), ints[n:], node_attrs), edges
        )
    (ids,) = table
    cols = ints.tolist()
    adjacency, attrs = _node_columns(
        [ids[i] for i in cols[:n]],
        cols[n:2 * n + 1],
        [ids[i] for i in cols[2 * n + 1:]],
        node_attrs,
    )
    return Delta.from_columns(adjacency, attrs, edges)
