"""Common interface for every historical graph index.

The paper's Table 1 compares six index families (Log, Copy, Copy+Log,
node-centric, DeltaGraph, TGI) on five retrieval primitives.  All six are
implemented against this interface so benchmarks and equivalence tests can
treat them interchangeably:

- :meth:`retrieve_snapshot` — graph as of a time point;
- :meth:`retrieve_node_state` — one node's static state at a time point;
- :meth:`retrieve_node_history` — a node's initial state plus all changes
  over an interval (its *versions*);
- :meth:`retrieve_khop` — static k-hop neighborhood at a time point;
- :meth:`retrieve_khop_history` — 1-hop neighborhood over an interval.

Every ``retrieve_x`` returns ``(value, FetchStats)`` — the value and what
fetching it cost (deltas read, bytes, simulated latency: the quantity the
paper's figures report); ``get_x`` is ``retrieve_x(...)[0]``, defined
once on the base class.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.deltas.base import StaticNode
from repro.errors import IndexError_, TimeRangeError
from repro.graph.events import Event, EventKind, dedup_sorted
from repro.graph.static import Graph
from repro.kvstore.cost import FetchStats
from repro.types import NodeId, TimePoint


def evolve_node_state(
    state: Optional[StaticNode], ev: Event, node_id: NodeId
) -> Optional[StaticNode]:
    """Apply one event to a node's static state (``None`` = not alive).

    Only the aspects of the event that concern ``node_id`` are applied:
    edge events adjust the edge list; attribute events adjust the
    attribute map; add/delete create/destroy the state.
    """
    kind = ev.kind
    if kind == EventKind.NODE_ADD and ev.node == node_id:
        attrs = ev.value if isinstance(ev.value, dict) else None
        return StaticNode.make(node_id, (), attrs)
    if kind == EventKind.NODE_DELETE and ev.node == node_id:
        return None
    if kind == EventKind.EDGE_ADD and ev.touches(node_id):
        other = ev.other if ev.node == node_id else ev.node
        assert other is not None
        if state is None:
            state = StaticNode.make(node_id)
        return state.with_neighbor(other)
    if kind == EventKind.EDGE_DELETE and ev.touches(node_id):
        other = ev.other if ev.node == node_id else ev.node
        assert other is not None
        if state is None:
            return None
        return state.without_neighbor(other)
    if kind == EventKind.NODE_ATTR_SET and ev.node == node_id:
        base = state if state is not None else StaticNode.make(node_id)
        assert ev.key is not None
        return base.with_attr(ev.key, ev.value)
    if kind == EventKind.NODE_ATTR_DEL and ev.node == node_id:
        if state is None:
            return None
        assert ev.key is not None
        return state.without_attr(ev.key)
    return state


def _fold_node_history(
    node: NodeId,
    ts: TimePoint,
    te: TimePoint,
    events: Iterable[Event],
    state: Optional[StaticNode] = None,
    after: Optional[TimePoint] = None,
) -> "NodeHistory":
    """A node's history over ``[ts, te]`` off a chronological stream:
    the events at or before ``ts`` (and after ``after``, the time of a
    checkpointed ``state``) fold into ``state``; those in ``(ts, te]``
    touching the node are its changes, deduplicated and sorted."""
    changes: List[Event] = []
    for ev in events:
        if ev.time <= ts:
            if after is None or ev.time > after:
                state = evolve_node_state(state, ev, node)
        elif ev.time <= te and ev.touches(node):
            changes.append(ev)
    return NodeHistory(node, ts, te, state, tuple(dedup_sorted(changes)))


@dataclass(frozen=True)
class NodeHistory:
    """A node's evolution over ``[ts, te]``: the state as of ``ts`` plus
    every event touching the node in ``(ts, te]``.

    This is the paper's "node versions" primitive (Algorithm 2's output).
    """

    node: NodeId
    ts: TimePoint
    te: TimePoint
    initial: Optional[StaticNode]
    events: Tuple[Event, ...]

    def versions(self) -> List[Tuple[TimePoint, Optional[StaticNode]]]:
        """All distinct states with the time each became valid, starting
        with ``(ts, initial)``."""
        out: List[Tuple[TimePoint, Optional[StaticNode]]] = [
            (self.ts, self.initial)
        ]
        state = self.initial
        for ev in self.events:
            nxt = evolve_node_state(state, ev, self.node)
            if nxt != state:
                if out and out[-1][0] == ev.time:
                    out[-1] = (ev.time, nxt)
                else:
                    out.append((ev.time, nxt))
                state = nxt
        return out

    def states_at(
        self, points: Sequence[TimePoint]
    ) -> List[Optional[StaticNode]]:
        """The node's state as of every point of ``points``, in the
        caller's order, from one forward pass over ``events`` (points may
        come unsorted and repeat; each must lie within the history)."""
        order = sorted(range(len(points)), key=points.__getitem__)
        for j in order[:1] + order[-1:]:
            if not (self.ts <= points[j] <= self.te):
                raise TimeRangeError(
                    f"time {points[j]} outside history range "
                    f"[{self.ts}, {self.te}]"
                )
        out: List[Optional[StaticNode]] = [None] * len(points)
        events, node = self.events, self.node
        state, i, n = self.initial, 0, len(events)
        for j in order:
            t = points[j]
            while i < n and events[i].time <= t:
                state = evolve_node_state(state, events[i], node)
                i += 1
            out[j] = state
        return out

    def state_at(self, t: TimePoint) -> Optional[StaticNode]:
        """The node's state as of ``t`` (must lie within the history)."""
        return self.states_at((t,))[0]

    @property
    def num_versions(self) -> int:
        return len(self.versions())


@dataclass(frozen=True)
class NeighborhoodHistory:
    """Evolution of a node's 1-hop neighborhood over ``[ts, te]``
    (Algorithm 5's output): the center's history plus each neighbor's
    history over the sub-interval(s) during which it was a neighbor."""

    center: NodeHistory
    neighbors: Tuple[NodeHistory, ...]

    def all_histories(self) -> List[NodeHistory]:
        return [self.center, *self.neighbors]


def neighbor_intervals(
    center: NodeHistory,
) -> List[Tuple[NodeId, TimePoint, TimePoint]]:
    """Algorithm 5's second step: every node that is a neighbor of the
    center at some point of its history, with the sub-interval from the
    moment it first was one to the history's end — sorted by node id."""
    spans: Dict[NodeId, Tuple[TimePoint, TimePoint]] = {}
    state = center.initial
    if state is not None:
        for nbr in state.E:
            spans[nbr] = (center.ts, center.te)
    for ev in center.events:
        state = evolve_node_state(state, ev, center.node)
        if state is None:
            continue
        for nbr in state.E:
            if nbr not in spans:
                spans[nbr] = (ev.time, center.te)
    return [(nbr, s, e) for nbr, (s, e) in sorted(spans.items())]


def value_only(retrieve: str) -> Callable[..., Any]:
    """The ``get_x`` of a ``retrieve_x``: the same call, returning the
    value without its stats.  Dispatches by name, so a family that
    overrides ``retrieve_x`` has the matching ``get_x`` already."""
    def get(self, *args, **kwargs):
        return getattr(self, retrieve)(*args, **kwargs)[0]
    get.__name__ = retrieve.replace("retrieve", "get", 1)
    get.__doc__ = f"The value of :meth:`{retrieve}`, without its stats."
    return get


class HistoricalGraphIndex(abc.ABC):
    """Interface shared by all temporal graph indexes: ``retrieve_x``
    returns ``(value, FetchStats)``, ``get_x`` the value alone."""

    # -- lifecycle -------------------------------------------------------
    @abc.abstractmethod
    def build(self, events: Sequence[Event]) -> None:
        """Construct the index from a chronologically sorted event stream."""

    # -- retrieval primitives: value and cost ------------------------------
    @abc.abstractmethod
    def retrieve_snapshot(
        self, t: TimePoint, clients: int = 1
    ) -> Tuple[Graph, FetchStats]:
        """The full graph state as of time ``t``."""

    @abc.abstractmethod
    def retrieve_node_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint, clients: int = 1
    ) -> Tuple[NodeHistory, FetchStats]:
        """State at ``ts`` plus all changes to ``node`` during ``(ts, te]``."""

    def retrieve_node_state(
        self, node: NodeId, t: TimePoint, clients: int = 1
    ) -> Tuple[Optional[StaticNode], FetchStats]:
        """Static state of ``node`` at ``t`` (``None`` if not alive)."""
        history, stats = self.retrieve_node_history(node, t, t, clients)
        return history.initial, stats

    def retrieve_node_histories(
        self,
        nodes: Sequence[NodeId],
        ts: TimePoint,
        te: TimePoint,
        clients: int = 1,
    ) -> Tuple[List[NodeHistory], FetchStats]:
        """Histories of many nodes over the same interval, in input order.

        Default implementation loops :meth:`retrieve_node_history` and
        merges the per-node stats; indexes with batched access paths (TGI)
        override it to coalesce the whole population into a handful of
        fetch rounds.
        """
        total = FetchStats()
        out: List[NodeHistory] = []
        for node in nodes:
            history, stats = self.retrieve_node_history(node, ts, te, clients)
            out.append(history)
            total.merge(stats)
        return out, total

    def retrieve_khop(
        self, node: NodeId, t: TimePoint, k: int = 1, clients: int = 1
    ) -> Tuple[Graph, FetchStats]:
        """Static k-hop neighborhood of ``node`` at ``t``.

        Default implementation is the paper's Algorithm 3 (fetch the whole
        snapshot, filter); indexes with targeted access override it with
        Algorithm 4.
        """
        g, stats = self.retrieve_snapshot(t, clients)
        if not g.has_node(node):
            raise IndexError_(f"node {node} not alive at t={t}")
        return g.khop_subgraph(node, k), stats

    def retrieve_khop_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint, clients: int = 1
    ) -> Tuple[NeighborhoodHistory, FetchStats]:
        """1-hop neighborhood evolution (paper Algorithm 5).

        Fetches the center's history, derives the set of (neighbor,
        sub-interval) pairs from it, and fetches each neighbor's history.
        """
        center, total = self.retrieve_node_history(node, ts, te, clients)
        histories = []
        for nbr, s, e in neighbor_intervals(center):
            history, stats = self.retrieve_node_history(nbr, s, e, clients)
            histories.append(history)
            total.merge(stats)
        return NeighborhoodHistory(center, tuple(histories)), total

    # -- the same primitives, value only -----------------------------------
    get_snapshot = value_only("retrieve_snapshot")
    get_node_state = value_only("retrieve_node_state")
    get_node_history = value_only("retrieve_node_history")
    get_node_histories = value_only("retrieve_node_histories")
    get_khop = value_only("retrieve_khop")
    get_khop_history = value_only("retrieve_khop_history")
