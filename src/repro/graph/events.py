"""Atomic change events over a time-evolving graph.

An *event* is the smallest change that happens to a graph (paper,
Example 1): addition or deletion of a node or an edge, or a change in an
attribute value.  Events are totally ordered by ``(time, seq)`` where
``seq`` is a tie-breaking sequence number assigned at generation time, so a
stream of events is an unambiguous description of the graph's history.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EventError
from repro.types import EdgeId, NodeId, TimePoint, canonical_edge


class EventKind(enum.IntEnum):
    """Discriminates the eight atomic change types."""

    NODE_ADD = 0
    NODE_DELETE = 1
    EDGE_ADD = 2
    EDGE_DELETE = 3
    NODE_ATTR_SET = 4
    NODE_ATTR_DEL = 5
    EDGE_ATTR_SET = 6
    EDGE_ATTR_DEL = 7


#: Kinds that reference an edge (and therefore two endpoints).
EDGE_KINDS = frozenset(
    {
        EventKind.EDGE_ADD,
        EventKind.EDGE_DELETE,
        EventKind.EDGE_ATTR_SET,
        EventKind.EDGE_ATTR_DEL,
    }
)


@dataclass(frozen=True, slots=True)
class Event:
    """One atomic change at one time point.

    Attributes:
        time: discrete time point at which the change takes effect.
        seq: tie-breaker for events sharing a time point; assigned by the
            producer, unique within a history.
        kind: which of the eight atomic changes this is.
        node: subject node id (for edge events, the first endpoint).
        other: second endpoint for edge events, else ``None``.
        key: attribute key for attribute events, else ``None``.
        value: new attribute value for ``*_ATTR_SET``; initial attribute map
            for ``NODE_ADD`` / ``EDGE_ADD`` (may be ``None`` for empty).
        old_value: previous attribute value, recorded so that events are
            invertible; ``None`` when there was no previous value.
    """

    time: TimePoint
    seq: int
    kind: EventKind
    node: NodeId
    other: Optional[NodeId] = None
    key: Optional[str] = None
    value: Any = None
    old_value: Any = None

    def __post_init__(self) -> None:
        if self.kind in EDGE_KINDS and self.other is None:
            raise EventError(f"edge event {self.kind.name} requires two endpoints")
        if self.kind in _ATTR_KINDS and self.key is None:
            raise EventError(f"attribute event {self.kind.name} requires a key")

    @property
    def edge(self) -> Optional[EdgeId]:
        """Canonical edge id for edge events, ``None`` for node events."""
        if self.other is None:
            return None
        return canonical_edge(self.node, self.other)

    @property
    def entities(self) -> Tuple[NodeId, ...]:
        """Node ids this event touches (both endpoints for edge events)."""
        if self.other is None:
            return (self.node,)
        return (self.node, self.other)

    def sort_key(self) -> Tuple[TimePoint, int]:
        return (self.time, self.seq)

    def touches(self, node_id: NodeId) -> bool:
        """True when the event concerns ``node_id`` directly."""
        return self.node == node_id or self.other == node_id


_ATTR_KINDS = frozenset(
    {
        EventKind.NODE_ATTR_SET,
        EventKind.NODE_ATTR_DEL,
        EventKind.EDGE_ATTR_SET,
        EventKind.EDGE_ATTR_DEL,
    }
)


class EventBuilder:
    """Convenience factory that assigns monotonically increasing ``seq``.

    Workload generators and tests use this to produce well-formed, totally
    ordered event streams without tracking sequence numbers by hand.
    """

    def __init__(self, start_seq: int = 0) -> None:
        self._seq = start_seq

    def _next(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def node_add(self, t: TimePoint, node: NodeId, attrs: Any = None) -> Event:
        return Event(t, self._next(), EventKind.NODE_ADD, node, value=attrs)

    def node_delete(self, t: TimePoint, node: NodeId) -> Event:
        return Event(t, self._next(), EventKind.NODE_DELETE, node)

    def edge_add(
        self, t: TimePoint, u: NodeId, v: NodeId, attrs: Any = None
    ) -> Event:
        return Event(t, self._next(), EventKind.EDGE_ADD, u, other=v, value=attrs)

    def edge_delete(self, t: TimePoint, u: NodeId, v: NodeId) -> Event:
        return Event(t, self._next(), EventKind.EDGE_DELETE, u, other=v)

    def node_attr_set(
        self, t: TimePoint, node: NodeId, key: str, value: Any, old: Any = None
    ) -> Event:
        return Event(
            t, self._next(), EventKind.NODE_ATTR_SET, node, key=key, value=value,
            old_value=old,
        )

    def node_attr_del(
        self, t: TimePoint, node: NodeId, key: str, old: Any = None
    ) -> Event:
        return Event(
            t, self._next(), EventKind.NODE_ATTR_DEL, node, key=key, old_value=old
        )

    def edge_attr_set(
        self,
        t: TimePoint,
        u: NodeId,
        v: NodeId,
        key: str,
        value: Any,
        old: Any = None,
    ) -> Event:
        return Event(
            t, self._next(), EventKind.EDGE_ATTR_SET, u, other=v, key=key,
            value=value, old_value=old,
        )

    def edge_attr_del(
        self, t: TimePoint, u: NodeId, v: NodeId, key: str, old: Any = None
    ) -> Event:
        return Event(
            t, self._next(), EventKind.EDGE_ATTR_DEL, u, other=v, key=key,
            old_value=old,
        )


def check_sorted(events: Sequence[Event]) -> None:
    """Raise :class:`EventError` unless ``events`` is sorted by (time, seq)."""
    for prev, cur in zip(events, events[1:]):
        if cur.sort_key() < prev.sort_key():
            raise EventError(
                f"event stream out of order at seq {cur.seq} (t={cur.time})"
            )


def dedup_sorted(events: Iterable[Event]) -> List[Event]:
    """Merge possibly replicated event partitions into one stream sorted
    by ``(time, seq)`` with each ``seq`` once (duplicates arise because
    edge events are stored with both endpoints)."""
    seen = set()
    out = []
    for ev in sorted(events, key=Event.sort_key):
        if ev.seq not in seen:
            seen.add(ev.seq)
            out.append(ev)
    return out


def events_in_range(
    events: Iterable[Event], ts: TimePoint, te: TimePoint
) -> Iterator[Event]:
    """Yield events with ``ts < time <= te`` (the paper's ``(ts, te]`` scope)."""
    for ev in events:
        if ts < ev.time <= te:
            yield ev
