"""Common interface for every historical graph index.

The paper's Table 1 compares six index families (Log, Copy, Copy+Log,
node-centric, DeltaGraph, TGI) on five retrieval primitives.  All six are
implemented against this interface so benchmarks and equivalence tests can
treat them interchangeably:

- :meth:`get_snapshot` — graph as of a time point;
- :meth:`get_node_state` — one node's static state at a time point;
- :meth:`get_node_history` — a node's initial state plus all changes over
  an interval (its *versions*);
- :meth:`get_khop` — static k-hop neighborhood at a time point;
- :meth:`get_khop_history` — 1-hop neighborhood evolution over an interval.

Every retrieval records a :class:`~repro.kvstore.cost.FetchStats` in
``last_fetch_stats`` (number of deltas read, bytes, simulated latency),
which is the quantity the paper's figures report.  It holds whatever
retrieval finished last on the object, so it only means something to a
caller with the index to itself (benchmarks; the default loops below,
which the baseline indexes inherit).  The TGI's query path returns the
stats with the value instead, and sessions consume only those.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.deltas.base import StaticNode
from repro.errors import IndexError_, TimeRangeError
from repro.graph.events import Event, EventKind
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

    def state_at(self, t: TimePoint) -> Optional[StaticNode]:
        """The node's state as of ``t`` (must lie within the history)."""
        if not (self.ts <= t <= self.te):
            raise TimeRangeError(
                f"time {t} outside history range [{self.ts}, {self.te}]"
            )
        state = self.initial
        for ev in self.events:
            if ev.time > t:
                break
            state = evolve_node_state(state, ev, self.node)
        return state

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


class HistoricalGraphIndex(abc.ABC):
    """Interface shared by all temporal graph indexes."""

    def __init__(self) -> None:
        self.last_fetch_stats = FetchStats()

    # -- lifecycle -------------------------------------------------------
    @abc.abstractmethod
    def build(self, events: Sequence[Event]) -> None:
        """Construct the index from a chronologically sorted event stream."""

    # -- retrieval primitives ---------------------------------------------
    @abc.abstractmethod
    def get_snapshot(self, t: TimePoint, clients: int = 1) -> Graph:
        """The full graph state as of time ``t``."""

    @abc.abstractmethod
    def get_node_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint, clients: int = 1
    ) -> NodeHistory:
        """State at ``ts`` plus all changes to ``node`` during ``(ts, te]``."""

    def get_node_state(
        self, node: NodeId, t: TimePoint, clients: int = 1
    ) -> Optional[StaticNode]:
        """Static state of ``node`` at ``t`` (``None`` if not alive)."""
        return self.get_node_history(node, t, t, clients=clients).initial

    def get_node_histories(
        self,
        nodes: Sequence[NodeId],
        ts: TimePoint,
        te: TimePoint,
        clients: int = 1,
    ) -> List[NodeHistory]:
        """Histories of many nodes over the same interval, in input order.

        Default implementation loops :meth:`get_node_history` and merges
        the per-node stats; indexes with batched access paths (TGI)
        override it to coalesce the whole population into a handful of
        fetch rounds.
        """
        total = FetchStats()
        out: List[NodeHistory] = []
        for node in nodes:
            out.append(self.get_node_history(node, ts, te, clients=clients))
            total.merge(self.last_fetch_stats)
        self.last_fetch_stats = total
        return out

    def get_khop(
        self, node: NodeId, t: TimePoint, k: int = 1, clients: int = 1
    ) -> Graph:
        """Static k-hop neighborhood of ``node`` at ``t``.

        Default implementation is the paper's Algorithm 3 (fetch the whole
        snapshot, filter); indexes with targeted access override it with
        Algorithm 4.
        """
        g = self.get_snapshot(t, clients=clients)
        if not g.has_node(node):
            raise IndexError_(f"node {node} not alive at t={t}")
        return g.khop_subgraph(node, k)

    def get_khop_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint, clients: int = 1
    ) -> NeighborhoodHistory:
        """1-hop neighborhood evolution (paper Algorithm 5).

        Fetches the center's history, derives the set of (neighbor,
        sub-interval) pairs from it, and fetches each neighbor's history.
        """
        center = self.get_node_history(node, ts, te, clients=clients)
        stats = self.last_fetch_stats
        histories = []
        for nbr, s, e in neighbor_intervals(center):
            histories.append(self.get_node_history(nbr, s, e, clients=clients))
            stats.merge(self.last_fetch_stats)
        self.last_fetch_stats = stats
        return NeighborhoodHistory(center, tuple(histories))

