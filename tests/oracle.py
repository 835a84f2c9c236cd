"""The event-log oracle every test holds an index to: references computed
from the raw event stream alone — no index, no session, no fetch — by
replaying it with ``evolve_node_state`` and ``Graph.replay``."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import TimeRangeError
from repro.graph.events import Event
from repro.graph.static import Graph
from repro.index.interface import NodeHistory, evolve_node_state
from repro.types import NodeId, TimePoint


def replay_state_at(history, t: TimePoint):
    """``NodeHistory.state_at`` as first written: replay from the initial
    state up to ``t`` for every asked point.  The reference
    ``NodeHistory.states_at``'s one forward pass is held to."""
    if not (history.ts <= t <= history.te):
        raise TimeRangeError(
            f"time {t} outside history range [{history.ts}, {history.te}]"
        )
    state = history.initial
    for ev in history.events:
        if ev.time > t:
            break
        state = evolve_node_state(state, ev, history.node)
    return state


def ground_truth_history(
    events: List[Event], node: NodeId, ts: TimePoint, te: TimePoint
) -> Tuple[Optional[object], List[Event]]:
    """Reference node history: (state at ts, events in (ts, te])."""
    state = None
    changes: List[Event] = []
    for ev in events:
        if ev.time <= ts:
            state = evolve_node_state(state, ev, node)
        elif ev.time <= te and ev.touches(node):
            changes.append(ev)
    return state, changes


def oracle_history(events, node, ts, te):
    """:func:`ground_truth_history` as a :class:`NodeHistory`."""
    state, changes = ground_truth_history(events, node, ts, te)
    return NodeHistory(node, ts, te, state, tuple(changes))


def ground_truth_subgraph(
    events: List[Event], center: NodeId, k: int, ts: TimePoint, te: TimePoint
):
    """Reference temporal k-hop subgraph over ``[ts, te]``, from the raw
    log alone: ``(members, edge_attrs)``.  ``members`` maps every member
    to its :func:`ground_truth_history`, discovered level by level — each
    hop adds every node that neighbors a frontier node at *any* point of
    the interval; ``edge_attrs`` holds the attributed edges among the
    members alive at ``ts`` (:func:`edge_attrs_among`).  ``None`` for a
    center that exists at no point of the interval."""
    root = ground_truth_history(events, center, ts, te)
    if root[0] is None and not root[1]:
        return None
    members = {center: root}
    frontier = [center]
    for _ in range(k):
        nbrs = set()
        for nid in frontier:
            state, changes = members[nid]
            if state is not None:
                nbrs |= state.E
            for ev in changes:
                state = evolve_node_state(state, ev, nid)
                if state is not None:
                    nbrs |= state.E
        frontier = sorted(nbrs - set(members))
        for nid in frontier:
            members[nid] = ground_truth_history(events, nid, ts, te)
    return members, edge_attrs_among(events, members, ts)


def edge_attrs_among(events: List[Event], members, t: TimePoint) -> dict:
    """The attributed edges of the snapshot at ``t`` induced on
    ``members``, by canonical edge id."""
    induced = Graph.replay(events, until=t).subgraph(members)
    return {e: dict(attrs) for e, attrs in induced.attributed_edges().items()}


def oracle_parts(events, center, k, t):
    """``helpers.graph_parts`` of the k-hop neighborhood at ``t``, from
    the log alone; ``None`` for a center not alive at ``t``."""
    truth = ground_truth_subgraph(events, center, k, t, t)
    if truth is None or truth[0][center][0] is None:
        return None
    members, edge_attrs = truth
    states = {n: state for n, (state, _changes) in members.items()}
    nodes = {n: dict(state.A) for n, state in states.items()}
    adjacency = {n: set(state.E) & set(states) for n, state in states.items()}
    edges = {
        (u, v): edge_attrs.get((u, v), {})
        for u, nbrs in adjacency.items() for v in nbrs if u <= v
    }
    return False, nodes, adjacency, edges
