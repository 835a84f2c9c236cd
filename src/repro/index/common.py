"""Helpers shared by the index implementations."""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.deltas.base import Delta, StaticEdge, StaticNode
from repro.graph.events import Event, EventKind
from repro.graph.static import Graph
from repro.types import NodeId, TimePoint


def static_node_from_graph(g: Graph, node: NodeId) -> Optional[StaticNode]:
    """Extract one node's static state from a materialized snapshot."""
    if not g.has_node(node):
        return None
    return StaticNode.make(node, g.neighbors(node), g.node_attrs(node))


def snapshot_delta_of_graph(g: Graph) -> Delta:
    """Snapshot delta in TGI's storage encoding: node-centric static nodes
    (edge lists inline) plus explicit :class:`StaticEdge` components for
    edges that carry attributes (so attribute data survives partitioning)."""
    delta = Delta.from_graph(g, node_centric=True)
    for (u, v), attrs in g.attributed_edges().items():
        delta.put(StaticEdge.make(u, v, attrs, g.directed))
    return delta


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
