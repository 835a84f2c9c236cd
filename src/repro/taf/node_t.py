"""Temporal operands: NodeT and SubgraphT (paper Definitions 6-7).

A **temporal node** (NodeT) is the sequence of all states of one node over
a time range; physically it is stored exactly as the paper prescribes
(Sec. 5.2): an initial snapshot of the node followed by a chronologically
sorted list of events, with iterator-style access.

A **temporal subgraph** (SubgraphT) generalizes NodeT to a set of nodes
(typically a k-hop neighborhood): the members' histories plus the
attributed edges among them at the start, from which one fold of the
member events materializes an in-memory
:class:`~repro.graph.static.Graph` as of any covered time point.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.deltas.base import StaticNode
from repro.errors import TimeRangeError
from repro.graph.events import Event
from repro.graph.static import Graph
from repro.index.interface import NodeHistory
from repro.types import AttrMap, NodeId, TimePoint


class NodeT:
    """A node's full evolution over ``[ts, te]``."""

    __slots__ = ("history",)

    def __init__(self, history: NodeHistory) -> None:
        self.history = history

    # -- identity / range ---------------------------------------------------
    @property
    def node_id(self) -> NodeId:
        return self.history.node

    def get_start_time(self) -> TimePoint:
        return self.history.ts

    def get_end_time(self) -> TimePoint:
        return self.history.te

    # -- states ----------------------------------------------------------
    def get_state_at(self, t: TimePoint) -> Optional[StaticNode]:
        """The node's static state as of ``t``."""
        return self.history.state_at(t)

    def get_versions(self) -> List[Tuple[TimePoint, Optional[StaticNode]]]:
        """All distinct (time, state) versions, oldest first."""
        return self.history.versions()

    def get_version_at(self, t: TimePoint) -> Optional[StaticNode]:
        """Alias for :meth:`get_state_at` (paper's ``getVersionAt``)."""
        return self.get_state_at(t)

    def get_neighbor_ids_at(self, t: TimePoint) -> Set[NodeId]:
        state = self.get_state_at(t)
        return set(state.E) if state is not None else set()

    def get_iterator(self) -> Iterator[Tuple[TimePoint, Optional[StaticNode]]]:
        """Chronological iterator over versions (paper's ``GetIterator``)."""
        return iter(self.get_versions())

    def change_points(self) -> List[TimePoint]:
        """Times at which the node's state changed (excluding ``ts``)."""
        return [t for t, _ in self.get_versions()[1:]]

    @property
    def events(self) -> Tuple[Event, ...]:
        return self.history.events

    def timeslice(self, ts: TimePoint, te: TimePoint) -> "NodeT":
        """Restrict the temporal node to ``[ts, te]`` ∩ its range (the
        window must overlap the range)."""
        if ts > te:
            raise TimeRangeError(f"inverted timeslice [{ts}, {te}]")
        lo, hi = self.get_start_time(), self.get_end_time()
        if te < lo or ts > hi:
            raise TimeRangeError(
                f"timeslice [{ts}, {te}] does not overlap range [{lo}, {hi}]"
            )
        ts, te = max(ts, lo), min(te, hi)
        initial = self.history.state_at(ts)
        events = tuple(
            ev for ev in self.history.events if ts < ev.time <= te
        )
        return NodeT(NodeHistory(self.node_id, ts, te, initial, events))

    def project_attrs(self, keys: Sequence[str]) -> "NodeT":
        """Keep only the given attribute keys (the TAF ``Filter`` operator:
        a projection along the attribute dimension of Fig. 6)."""
        keep = set(keys)

        def proj(state: Optional[StaticNode]) -> Optional[StaticNode]:
            if state is None:
                return None
            attrs = {k: v for k, v in state.attrs.items() if k in keep}
            return StaticNode.make(state.I, state.E, attrs)

        def proj_event(ev: Event) -> Event:
            # NODE_ADD / EDGE_ADD events may carry a full attribute map in
            # their value; project it too so replay cannot reintroduce
            # filtered-out attributes
            if isinstance(ev.value, dict):
                return Event(
                    ev.time, ev.seq, ev.kind, ev.node, ev.other, ev.key,
                    {k: v for k, v in ev.value.items() if k in keep},
                    ev.old_value,
                )
            return ev

        events = tuple(
            proj_event(ev)
            for ev in self.history.events
            if ev.key is None or ev.key in keep
        )
        return NodeT(
            NodeHistory(
                self.node_id,
                self.get_start_time(),
                self.get_end_time(),
                proj(self.history.initial),
                events,
            )
        )

    def __repr__(self) -> str:
        return (
            f"<NodeT id={self.node_id} range=[{self.get_start_time()}, "
            f"{self.get_end_time()}] events={len(self.history.events)}>"
        )


def states_by_point(
    nodes: Iterable[NodeT], points: Sequence[TimePoint]
) -> List[Dict[NodeId, StaticNode]]:
    """One ``{node: state}`` map per point of ``points``: the live state
    of each of ``nodes`` whose range covers the point, in ``nodes`` order.
    A node's states over the whole grid come from one
    :meth:`~repro.index.interface.NodeHistory.states_at` walk."""
    out: List[Dict[NodeId, StaticNode]] = [{} for _ in points]
    for nt in nodes:
        h = nt.history
        inside = [j for j, t in enumerate(points) if h.ts <= t <= h.te]
        states = h.states_at([points[j] for j in inside])
        for j, state in zip(inside, states):
            if state is not None:
                out[j][h.node] = state
    return out


def induced_graph(
    states: Dict[NodeId, StaticNode],
    edge_attrs: Optional[Dict[Tuple[NodeId, NodeId], AttrMap]] = None,
) -> Graph:
    """The graph the node states imply among themselves: one node per
    state, an edge wherever an edge list names another state's node, and
    the edge's attributes from ``edge_attrs`` by canonical edge id."""
    return Graph.from_parts(
        {n: s.A for n, s in states.items()},
        {n: s.E for n, s in states.items()},
        edge_attrs,
    )


class SubgraphT:
    """Evolution of a subgraph (k-hop neighborhood) over ``[ts, te]``.

    Held as the paper stores it (Sec. 5.2): the member nodes' temporal
    histories plus ``edge_attrs_initial``, the attributed edges among the
    members alive at ``ts``.  Its version at any covered ``t`` is one
    fold (:meth:`_fold`): the graph the members induce at ``ts``, then
    every member event up to ``t`` applied to it; ``get_version_at``
    prunes that to the center's k-hop.
    """

    __slots__ = ("center", "k", "members", "edge_attrs_initial")

    def __init__(
        self,
        center: NodeId,
        k: int,
        members: Dict[NodeId, NodeT],
        edge_attrs_initial: Optional[Dict[Tuple[NodeId, NodeId], AttrMap]] = None,
    ) -> None:
        self.center = center
        self.k = k
        self.members = members
        self.edge_attrs_initial = edge_attrs_initial or {}

    def get_start_time(self) -> TimePoint:
        return min(nt.get_start_time() for nt in self.members.values())

    def get_end_time(self) -> TimePoint:
        return max(nt.get_end_time() for nt in self.members.values())

    def member_ids(self) -> List[NodeId]:
        return sorted(self.members)

    def get_version_at(self, t: TimePoint) -> Graph:
        """Materialize the subgraph state at ``t`` (induced on members that
        are alive and within k hops of the center at ``t``)."""
        g = self.members_induced_at(t)
        if g.has_node(self.center):
            return g.khop_subgraph(self.center, self.k)
        return g

    def change_points(self) -> List[TimePoint]:
        """Times at which the subgraph itself changes: the times of events
        within the member set (cross-boundary edge events change a member
        node's own edge list but not the induced subgraph, so they are
        excluded — this keeps ``NodeComputeTemporal`` and
        ``NodeComputeDelta`` on the same evaluation grid)."""
        return sorted({ev.time for ev in self.member_events()})

    def events_sorted(self) -> List[Event]:
        """All member events, deduplicated (edge events appear in both
        endpoint histories) and sorted."""
        seen: Set[int] = set()
        out: List[Event] = []
        for nt in self.members.values():
            for ev in nt.events:
                if ev.seq not in seen:
                    seen.add(ev.seq)
                    out.append(ev)
        out.sort(key=Event.sort_key)
        return out

    def member_events(self) -> List[Event]:
        """Events restricted to the member set (node events of members,
        edge events with both endpoints among members), deduplicated and
        sorted: the events the fold applies."""
        keep = set(self.members)
        return [
            ev for ev in self.events_sorted()
            if ev.node in keep and (ev.other is None or ev.other in keep)
        ]

    def _fold(self) -> Tuple[Graph, List[Event]]:
        """The one fold every version comes from: the graph the members
        alive at the start induce, with the attributed edges among them,
        and the member events after the start, in order.  The graph with
        the events up to ``t`` applied is the members' version at ``t``;
        the caller owns the graph and may apply them in place."""
        states = {
            n: nt.history.initial for n, nt in self.members.items()
            if nt.history.initial is not None
        }
        return induced_graph(states, self.edge_attrs_initial), \
            self.member_events()

    def members_induced_at(self, t: TimePoint) -> Graph:
        """Induced graph on *all* member nodes alive at ``t`` (no k-hop
        pruning) — the stable operand used by incremental computation."""
        return self.members_induced_over((t,))[0]

    def members_induced_over(self, points: Sequence[TimePoint]) -> List[Graph]:
        """:meth:`members_induced_at` at each of ``points`` (unsorted and
        repeated points allowed; each must lie within the subgraph's
        range), in the caller's order: a fresh graph per point, from one
        pass of the fold over the sorted points."""
        lo, hi = self.get_start_time(), self.get_end_time()
        g, events = self._fold()
        versions: Dict[int, Graph] = {}
        i = 0
        for j in sorted(range(len(points)), key=points.__getitem__):
            if not lo <= points[j] <= hi:
                raise TimeRangeError(
                    f"time {points[j]} outside subgraph range [{lo}, {hi}]"
                )
            while i < len(events) and events[i].time <= points[j]:
                g.apply_event(events[i])
                i += 1
            versions[j] = g.copy()
        return [versions[j] for j in range(len(points))]

    def timeslice(self, ts: TimePoint, te: TimePoint) -> "SubgraphT":
        """Restrict every member to ``[ts, te]`` ∩ the range (the window
        must overlap it), with the attributed edges among the members at
        the new start."""
        members = {nid: nt.timeslice(ts, te) for nid, nt in self.members.items()}
        start = self.members_induced_at(max(ts, self.get_start_time()))
        return SubgraphT(self.center, self.k, members, {
            e: dict(attrs) for e, attrs in start.attributed_edges().items()
        })

    def __repr__(self) -> str:
        return (
            f"<SubgraphT center={self.center} k={self.k} "
            f"members={len(self.members)}>"
        )
