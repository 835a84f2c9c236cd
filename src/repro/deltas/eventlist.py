"""Eventlist deltas (paper Examples 2-3).

An *eventlist* is a chronologically sorted set of events scoped by a time
interval ``(ts, te]``.  A *partitioned eventlist* additionally restricts the
scope to a set of nodes (the TGI build writes those,
``repro.index.tgi.build``).  Eventlists are the "Log" half of every
index: they capture fine-grained changes between materialized snapshots.

:class:`EventList` is the build buffer; it is stored — and read back — as
a :class:`~repro.deltas.columnar.ColumnarEventList`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.deltas.columnar import pack_eventlist
from repro.errors import DeltaError
from repro.graph.events import Event, check_sorted
from repro.graph.static import Graph
from repro.types import NodeId, TimePoint

_event_time = attrgetter("time")


@dataclass(frozen=True)
class EventList:
    """A chronologically sorted run of events covering ``(ts, te]``.

    Attributes:
        ts: exclusive start of scope.
        te: inclusive end of scope.
        events: the events, sorted by ``(time, seq)``.
    """

    ts: TimePoint
    te: TimePoint
    events: Tuple[Event, ...]

    def __post_init__(self) -> None:
        check_sorted(self.events)
        for ev in self.events:
            if not (self.ts < ev.time <= self.te):
                raise DeltaError(
                    f"event at t={ev.time} outside eventlist scope "
                    f"({self.ts}, {self.te}]"
                )

    @staticmethod
    def build(
        events: Sequence[Event],
        ts: Optional[TimePoint] = None,
        te: Optional[TimePoint] = None,
    ) -> "EventList":
        """Create an eventlist, inferring scope from the events if omitted."""
        evs = tuple(sorted(events, key=Event.sort_key))
        if ts is None:
            ts = (evs[0].time - 1) if evs else 0
        if te is None:
            te = evs[-1].time if evs else ts + 1
        return EventList(ts, te, evs)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    @property
    def size(self) -> int:
        """Number of event records (the eventlist's delta size)."""
        return len(self.events)

    def filter_by_time(self, ts: TimePoint, te: TimePoint) -> "EventList":
        """Restrict to events with ``ts < time <= te`` (paper's
        ``FilterByTime``).  Events are sorted by time, so both bounds
        bisect instead of scanning the whole run."""
        evs = self.events
        lo = bisect_right(evs, ts, key=_event_time)
        hi = bisect_right(evs, te, lo, key=_event_time)
        sub = evs[lo:hi]
        return EventList(max(ts, self.ts), min(te, self.te), sub) if sub else \
            EventList(ts, te, ())

    def filter_by_id(self, node_ids: Iterable[NodeId]) -> "EventList":
        """Restrict to events touching any of ``node_ids`` (paper's
        ``FilterById``)."""
        keep = set(node_ids)
        sub = tuple(
            ev for ev in self.events if ev.node in keep or ev.other in keep
        )
        return EventList(self.ts, self.te, sub)

    def group_by_id(
        self, node_ids: Iterable[NodeId]
    ) -> Dict[NodeId, List[Event]]:
        """:meth:`filter_by_id` for each of ``node_ids`` in one scan:
        ``{node: events touching it}`` over the nodes some event touches.
        An edge event between two of the nodes is one object in both
        lists; a self-loop is listed once."""
        keep = set(node_ids)
        out: Dict[NodeId, List[Event]] = {}
        for ev in self.events:
            u, v = ev.node, ev.other
            if u in keep:
                out.setdefault(u, []).append(ev)
            if v is not None and v != u and v in keep:
                out.setdefault(v, []).append(ev)
        return out

    def apply_to(self, g: Graph) -> Graph:
        """Apply all events in order to ``g`` (mutates and returns it)."""
        g.apply_events(self.events)
        return g

    def change_points(self) -> List[TimePoint]:
        """Distinct time points at which at least one event occurs."""
        out: List[TimePoint] = []
        last: Optional[TimePoint] = None
        for ev in self.events:
            if ev.time != last:
                out.append(ev.time)
                last = ev.time
        return out

    def packed_bytes(self) -> bytes:
        """The list's stored form: the columnar eventlist layout."""
        return pack_eventlist(self.ts, self.te, self.events)


def split_events_into_lists(
    events: Sequence[Event], max_size: int
) -> List[EventList]:
    """Chop a sorted event stream into eventlists of at most ``max_size``
    events each (the TGI build parameter ``l``).

    Events sharing a time point are kept in one eventlist so that every
    eventlist boundary is a consistent time point; this can make a list
    exceed ``max_size`` when a single time point has more events than the
    budget.
    """
    if max_size <= 0:
        raise DeltaError("eventlist size must be positive")
    check_sorted(tuple(events))
    lists: List[EventList] = []
    bucket: List[Event] = []
    for ev in events:
        if bucket and len(bucket) >= max_size and ev.time != bucket[-1].time:
            lists.append(EventList.build(bucket))
            bucket = []
        bucket.append(ev)
    if bucket:
        lists.append(EventList.build(bucket))
    return lists
