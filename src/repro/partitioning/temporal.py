"""Dynamic (temporal) graph partitioning — paper Sec. 4.5.

To partition a *time-evolving* graph over a timespan ``τ = [ts, te)``, the
paper projects the evolving graph to a single weighted static graph with a
*time-collapse function* Ω and then runs a static partitioner:

- **Median**: edges and weights as of the median time point of τ;
- **Union-Max**: every edge that ever existed in τ, weighted by the maximum
  weight it attained;
- **Union-Mean**: every edge that ever existed in τ, weighted by the
  time-fraction-weighted mean of its weight (absence counts as 0).

Node weights can be uniform, final-degree, or time-averaged degree.
The paper's default is **Union-Max with uniform node weights**; so is ours.

This module also implements timespan boundary selection: the history is cut
into spans of a (roughly) constant number of events (Sec. 4.4 item 1 and
Fig. 4), each of which is partitioned afresh.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PartitioningError
from repro.graph.events import Event, EventKind
from repro.graph.static import Graph
from repro.partitioning.base import Partitioner, Partitioning
from repro.types import EdgeId, NodeId, TimePoint, canonical_edge


class CollapseFunction(enum.Enum):
    """The Ω functions of Sec. 4.5."""

    MEDIAN = "median"
    UNION_MAX = "union-max"
    UNION_MEAN = "union-mean"


class NodeWeighting(enum.Enum):
    """Node-weight options of Sec. 4.5."""

    UNIFORM = "uniform"
    DEGREE = "degree"
    AVERAGE_DEGREE = "average-degree"


@dataclass(frozen=True)
class CollapsedGraph:
    """Ω(Gτ): a static weighted graph summarizing the evolving graph over τ.

    Guaranteed to contain every vertex that existed at least once in τ
    (the paper's constraint on Ω).
    """

    nodes: Tuple[NodeId, ...]
    edges: Tuple[EdgeId, ...]
    edge_weights: Mapping[EdgeId, float]
    node_weights: Mapping[NodeId, float]


_K_NODE_ADD = int(EventKind.NODE_ADD)
_K_NODE_DELETE = int(EventKind.NODE_DELETE)
_K_EDGE_ADD = int(EventKind.EDGE_ADD)
_K_EDGE_DELETE = int(EventKind.EDGE_DELETE)
_K_EDGE_ATTR_SET = int(EventKind.EDGE_ATTR_SET)


def _edge_intervals(
    initial: Graph,
    events: Sequence[Event],
    ts: TimePoint,
    te: TimePoint,
) -> Tuple[Dict[NodeId, float], Dict[EdgeId, List[Tuple[TimePoint, TimePoint, float]]]]:
    """Presence intervals for nodes (as total lifetime) and edges (as
    weighted intervals), scanning ``events`` over ``[ts, te)``.

    Edge weight is taken from the edge attribute ``"weight"`` (1.0 when
    absent), matching the paper's weighted-graph formulation.

    Each edge's intervals are in time order; the order in which edges
    first close (the key order of the result) is unspecified, since
    every consumer reads the weights by key.  A ``NODE_DELETE`` closes
    its node's open edges through an endpoint index, built on a span's
    first delete, so spans without deletes do not pay for it.
    """
    node_alive_since: Dict[NodeId, TimePoint] = dict.fromkeys(
        initial.nodes(), ts
    )
    node_lifetime: Dict[NodeId, float] = {}
    edge_open: Dict[EdgeId, Tuple[TimePoint, float]] = dict.fromkeys(
        initial.edges(), (ts, 1.0)
    )
    for e, attrs in initial.attributed_edges().items():
        if "weight" in attrs and e in edge_open:
            edge_open[e] = (ts, float(attrs["weight"]))
    intervals: Dict[EdgeId, List[Tuple[TimePoint, TimePoint, float]]] = {}
    # open edges by endpoint (stale entries allowed), from the first delete
    incident: Optional[Dict[NodeId, Dict[EdgeId, None]]] = None

    def close_node(n: NodeId, t: TimePoint) -> None:
        since = node_alive_since.pop(n, None)
        if since is not None:
            node_lifetime[n] = node_lifetime.get(n, 0.0) + max(0, t - since)

    def close_edge(e: EdgeId, t: TimePoint) -> None:
        opened = edge_open.pop(e, None)
        if opened is not None:
            start, w = opened
            intervals.setdefault(e, []).append((start, t, w))

    for ev in events:
        t = min(max(ev.time, ts), te)
        kind = ev.kind
        if kind == _K_NODE_ADD:
            node_alive_since.setdefault(ev.node, t)
        elif kind == _K_NODE_DELETE:
            close_node(ev.node, t)
            if incident is None:
                incident = {}
                for e in edge_open:
                    incident.setdefault(e[0], {})[e] = None
                    incident.setdefault(e[1], {})[e] = None
            for e in incident.pop(ev.node, ()):
                close_edge(e, t)
        elif kind == _K_EDGE_ADD:
            assert ev.other is not None
            node_alive_since.setdefault(ev.node, t)
            node_alive_since.setdefault(ev.other, t)
            e = canonical_edge(ev.node, ev.other)
            w = 1.0
            if isinstance(ev.value, dict):
                w = float(ev.value.get("weight", 1.0))
            if e not in edge_open:
                edge_open[e] = (t, w)
                if incident is not None:
                    incident.setdefault(e[0], {})[e] = None
                    incident.setdefault(e[1], {})[e] = None
        elif kind == _K_EDGE_DELETE:
            assert ev.other is not None
            close_edge(canonical_edge(ev.node, ev.other), t)
        elif kind == _K_EDGE_ATTR_SET and ev.key == "weight":
            assert ev.other is not None
            e = canonical_edge(ev.node, ev.other)
            if e in edge_open:
                close_edge(e, t)
                edge_open[e] = (t, float(ev.value))

    for n, since in node_alive_since.items():
        node_lifetime[n] = node_lifetime.get(n, 0.0) + max(0, te - since)
    for e, (start, w) in edge_open.items():
        intervals.setdefault(e, []).append((start, te, w))
    return node_lifetime, intervals


def collapse(
    initial: Graph,
    events: Sequence[Event],
    ts: TimePoint,
    te: TimePoint,
    omega: CollapseFunction = CollapseFunction.UNION_MAX,
    node_weighting: NodeWeighting = NodeWeighting.UNIFORM,
) -> CollapsedGraph:
    """Project the evolving graph over ``[ts, te)`` to a static weighted
    graph using time-collapse function ``omega``.

    ``initial`` is the graph state as of ``ts``; ``events`` are the changes
    within the span, sorted by time.  Nodes and edges come out sorted;
    ``edge_weights`` is keyed in no particular order (see
    :func:`_edge_intervals`), so read it by key.  Degrees are counted
    only for the node weightings that use them.
    """
    if te <= ts:
        raise PartitioningError(f"empty timespan [{ts}, {te})")
    node_lifetime, intervals = _edge_intervals(initial, events, ts, te)
    span = float(te - ts)

    all_nodes = tuple(sorted(node_lifetime))
    edge_weights: Dict[EdgeId, float] = {}

    if omega is CollapseFunction.MEDIAN:
        mid = ts + (te - ts) // 2
        for e, ivals in intervals.items():
            for (start, end, w) in ivals:
                if start <= mid < end:
                    edge_weights[e] = w
                    break
    elif omega is CollapseFunction.UNION_MAX:
        for e, ivals in intervals.items():
            edge_weights[e] = (
                ivals[0][2] if len(ivals) == 1 else max(w for (_, _, w) in ivals)
            )
    elif omega is CollapseFunction.UNION_MEAN:
        for e, ivals in intervals.items():
            weighted = sum(w * (end - start) for (start, end, w) in ivals)
            edge_weights[e] = weighted / span
    else:  # pragma: no cover - exhaustive over enum
        raise PartitioningError(f"unknown collapse function {omega!r}")

    if node_weighting is NodeWeighting.UNIFORM:
        node_weights: Dict[NodeId, float] = dict.fromkeys(all_nodes, 1.0)
    else:
        degree: Dict[NodeId, float] = dict.fromkeys(all_nodes, 0.0)
        for (u, v) in edge_weights:
            if u in degree:
                degree[u] += 1.0
            if v in degree:
                degree[v] += 1.0
        if node_weighting is NodeWeighting.DEGREE:
            node_weights = degree
        else:  # AVERAGE_DEGREE: degree scaled by the node's lifetime fraction
            node_weights = {
                n: degree[n] * (node_lifetime.get(n, 0.0) / span)
                for n in all_nodes
            }

    return CollapsedGraph(
        nodes=all_nodes,
        edges=tuple(sorted(edge_weights)),
        edge_weights=edge_weights,
        node_weights=node_weights,
    )


def partition_timespan(
    initial: Graph,
    events: Sequence[Event],
    ts: TimePoint,
    te: TimePoint,
    partitioner: Partitioner,
    num_partitions: int,
    omega: CollapseFunction = CollapseFunction.UNION_MAX,
    node_weighting: NodeWeighting = NodeWeighting.UNIFORM,
) -> Partitioning:
    """Collapse the evolving graph over the span, then statically partition.

    The returned partitioning covers every node alive at any point in the
    span, so micro-delta routing within the span never misses a node.
    """
    cg = collapse(initial, events, ts, te, omega, node_weighting)
    return partitioner.partition(
        cg.nodes,
        cg.edges,
        num_partitions,
        edge_weights=cg.edge_weights,
        node_weights=cg.node_weights,
    )


def timespan_boundaries(
    events: Sequence[Event], events_per_span: int
) -> List[Tuple[TimePoint, TimePoint]]:
    """Cut the history into spans of roughly ``events_per_span`` events.

    Spans never split a time point (all events of one time point land in
    one span).  Returns half-open intervals ``[ts, te)`` covering all
    events; the first span starts at the first event's time.
    """
    if events_per_span <= 0:
        raise PartitioningError("events_per_span must be positive")
    if not events:
        return []
    spans: List[Tuple[TimePoint, TimePoint]] = []
    start = events[0].time
    count = 0
    last_time = start
    for ev in events:
        if count >= events_per_span and ev.time != last_time:
            spans.append((start, ev.time))
            start = ev.time
            count = 0
        count += 1
        last_time = ev.time
    spans.append((start, last_time + 1))
    return spans
