"""Shared test utilities: clean random event streams and ground truths."""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.graph.events import Event, EventBuilder
from repro.graph.static import Graph
from repro.index.interface import evolve_node_state
from repro.types import NodeId, TimePoint, canonical_edge


def random_history(
    steps: int = 300,
    seed: int = 0,
    attr_churn: bool = True,
    deletions: bool = True,
) -> List[Event]:
    """A random but *consistent* event stream: every event is applicable in
    strict mode (nodes exist before edges, edges removed before node
    deletion, etc.)."""
    rng = random.Random(seed)
    eb = EventBuilder()
    events: List[Event] = []
    alive: set = set()
    edges: set = set()
    next_node = 0
    t = 0
    for _ in range(steps):
        t += 1
        roll = rng.random()
        if roll < 0.30 or len(alive) < 4:
            events.append(eb.node_add(t, next_node, {"v": next_node % 5}))
            alive.add(next_node)
            next_node += 1
        elif roll < 0.70 and len(alive) >= 2:
            u, v = rng.sample(sorted(alive), 2)
            eid = canonical_edge(u, v)
            if eid not in edges:
                events.append(eb.edge_add(t, *eid, {"w": rng.randint(1, 9)}))
                edges.add(eid)
        elif roll < 0.80 and deletions and edges:
            eid = rng.choice(sorted(edges))
            events.append(eb.edge_delete(t, *eid))
            edges.discard(eid)
        elif roll < 0.86 and deletions and len(alive) > 6:
            n = rng.choice(sorted(alive))
            for eid in [e for e in sorted(edges) if n in e]:
                events.append(eb.edge_delete(t, *eid))
                edges.discard(eid)
            events.append(eb.node_delete(t, n))
            alive.discard(n)
        elif attr_churn and alive:
            n = rng.choice(sorted(alive))
            events.append(eb.node_attr_set(t, n, "x", rng.randint(0, 99)))
    return events


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


def assert_history_equivalent(index, events, node, ts, te, compare_events=True):
    """Assert an index's node history matches the replay ground truth."""
    want_state, want_events = ground_truth_history(events, node, ts, te)
    got = index.get_node_history(node, ts, te)
    assert got.initial == want_state, (
        f"initial state mismatch for node {node}: {got.initial} != {want_state}"
    )
    if compare_events:
        assert list(got.events) == want_events, (
            f"event mismatch for node {node}"
        )
    else:
        from repro.index.interface import NodeHistory

        want = NodeHistory(node, ts, te, want_state, tuple(want_events))
        assert [s for _, s in got.versions()] == [
            s for _, s in want.versions()
        ], f"version-state mismatch for node {node}"


def per_edge_graph(
    node_attrs, adjacency, edge_attrs=None, directed=False, explicit_edges=()
):
    """Node-centric parts materialized the way ``Delta.to_graph``,
    ``PartialState.to_graph`` and ``Graph.subgraph`` did before
    ``Graph.from_parts``: ``add_node`` per node, ``add_edge`` per
    explicit ``(u, v, attrs)`` edge, then one ``has_edge`` / ``add_edge``
    per edge-list entry.  The reference the bulk loader is held to."""
    edge_attrs = edge_attrs or {}
    g = Graph(directed=directed)
    for n, attrs in node_attrs.items():
        g.add_node(n, dict(attrs))
    for u, v, attrs in explicit_edges:
        if g.has_node(u) and g.has_node(v):
            g.add_edge(u, v, attrs)
    for n, nbrs in adjacency.items():
        for nbr in nbrs:
            if g.has_node(n) and g.has_node(nbr) and not g.has_edge(n, nbr):
                eid = canonical_edge(n, nbr, directed)
                g.add_edge(n, nbr, dict(edge_attrs.get(eid, ())))
    return g
