"""Helpers shared by the index implementations."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.deltas.base import Delta, StaticEdge, StaticNode
from repro.graph.events import Event, EventKind
from repro.graph.static import Graph
from repro.types import EdgeId, NodeId, TimePoint


def static_node_from_graph(g: Graph, node: NodeId) -> Optional[StaticNode]:
    """Extract one node's static state from a materialized snapshot."""
    if not g.has_node(node):
        return None
    return StaticNode.make(
        node, g.adjacency()[node], g.node_attr_maps()[node]
    )


def snapshot_delta_of_graph(g: Graph) -> Delta:
    """Snapshot delta in TGI's storage encoding: node-centric static nodes
    (edge lists inline), in ``g``'s node order, plus explicit
    :class:`StaticEdge` components for edges that carry attributes (so
    attribute data survives partitioning).

    This builds every static node afresh.  A build that snapshots the
    graph once per eventlist calls it for the first checkpoint only and
    derives the later ones with :func:`advance_snapshot_delta`."""
    adj, attrs = g.adjacency(), g.node_attr_maps()
    return Delta.from_static(
        {n: StaticNode.make(n, adj[n], attrs[n]) for n in g.nodes()},
        _attributed_static_edges(g),
    )


def advance_snapshot_delta(
    g: Graph, prev: Delta, events: Sequence[Event]
) -> Delta:
    """Apply ``events`` to ``g`` and return the snapshot delta of the
    result, derived from ``prev``: the snapshot delta of ``g`` before the
    events (from :func:`snapshot_delta_of_graph` or an earlier call).

    Only the static nodes the events touched are rebuilt; every other
    node keeps ``prev``'s very :class:`StaticNode` object, so the delta
    algebra over consecutive checkpoints compares them by identity.
    Touched are the entities of every event plus the neighbours a
    ``NODE_DELETE`` drops along with its node: lenient replay removes
    live edges that no event names, so those neighbours are read off the
    adjacency before the events apply (a neighbour gained among the
    events is an entity already).  Nodes follow ``g``'s own order and
    attributed edges are re-derived, so the result equals
    ``snapshot_delta_of_graph(g)`` in value, in order and in packed
    bytes.
    """
    touched: Set[NodeId] = set()
    adj = g.adjacency()
    for ev in events:
        touched.update(ev.entities)
        node = ev.node
        if ev.kind == EventKind.NODE_DELETE and node in adj:
            touched.update(adj[node])
            if g.directed:  # in-neighbours lose an out-edge as well
                touched.update(u for u, nbrs in adj.items() if node in nbrs)
    g.apply_events(events)
    old = prev.static_nodes()
    attrs = g.node_attr_maps()
    return Delta.from_static(
        {
            n: StaticNode.make(n, adj[n], attrs[n])
            if n in touched else old[n]
            for n in g.nodes()
        },
        _attributed_static_edges(g),
    )


def _attributed_static_edges(g: Graph) -> Dict[EdgeId, StaticEdge]:
    """The :class:`StaticEdge` of every edge of ``g`` that carries
    attributes, by stored endpoint pair."""
    directed = g.directed
    return {
        (e.u, e.v): e
        for e in (
            StaticEdge.make(u, v, attrs, directed)
            for (u, v), attrs in g.attributed_edges().items()
        )
    }


def diff_states_to_events(
    node: NodeId,
    t: TimePoint,
    prev: Optional[StaticNode],
    cur: Optional[StaticNode],
    seq_start: int,
) -> List[Event]:
    """Synthesize events that transform ``prev`` into ``cur`` at time ``t``.

    Used by the Copy baseline, which stores states rather than changes but
    must still answer version queries in the common :class:`NodeHistory`
    format.  Sequence numbers start at ``seq_start`` and increase.
    """
    events: List[Event] = []
    seq = seq_start
    if prev is None and cur is None:
        return events
    if cur is None:
        assert prev is not None
        events.append(Event(t, seq, EventKind.NODE_DELETE, node))
        return events
    if prev is None:
        events.append(
            Event(t, seq, EventKind.NODE_ADD, node, value=cur.attrs or None)
        )
        seq += 1
        for nbr in sorted(cur.E):
            events.append(Event(t, seq, EventKind.EDGE_ADD, node, other=nbr))
            seq += 1
        return events
    prev_attrs, cur_attrs = prev.attrs, cur.attrs
    for key in sorted(set(prev_attrs) - set(cur_attrs)):
        events.append(
            Event(t, seq, EventKind.NODE_ATTR_DEL, node, key=key,
                  old_value=prev_attrs[key])
        )
        seq += 1
    for key in sorted(cur_attrs):
        if prev_attrs.get(key, _MISSING) != cur_attrs[key]:
            events.append(
                Event(t, seq, EventKind.NODE_ATTR_SET, node, key=key,
                      value=cur_attrs[key], old_value=prev_attrs.get(key))
            )
            seq += 1
    for nbr in sorted(prev.E - cur.E):
        events.append(Event(t, seq, EventKind.EDGE_DELETE, node, other=nbr))
        seq += 1
    for nbr in sorted(cur.E - prev.E):
        events.append(Event(t, seq, EventKind.EDGE_ADD, node, other=nbr))
        seq += 1
    return events


class _Missing:
    """Sentinel distinguishing an absent attribute from ``None``."""


_MISSING = _Missing()
