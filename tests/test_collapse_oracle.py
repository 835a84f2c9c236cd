"""Ω-collapse against the straightforward implementation it replaced.

The oracle below is the earlier ``_edge_intervals`` + ``collapse``: a
close per edge through a helper, and a ``NODE_DELETE`` that scans every
open edge.  The property draws lenient histories — nodes deleted with
live edges and re-added, ``weight`` set on open and on closed edges,
event times outside ``[ts, te)`` — and compares every Ω × node
weighting: nodes, edges, edge weights (NaN-aware, by key) and node
weights must be equal.
"""

from typing import Dict, List, Sequence, Tuple

import hypothesis.strategies as st
from hypothesis import HealthCheck, Phase, given, settings

from repro.errors import PartitioningError
from repro.graph.events import Event, EventBuilder, EventKind
from repro.graph.static import Graph
from repro.partitioning.temporal import (
    CollapseFunction,
    NodeWeighting,
    collapse,
)
from repro.types import canonical_edge

NAN = float("nan")


# -- the oracle: the implementation before endpoint indexing ------------------

def oracle_edge_intervals(initial, events, ts, te):
    node_alive_since: Dict = {}
    node_lifetime: Dict = {}
    edge_open: Dict = {}
    intervals: Dict = {}

    def close_node(n, t):
        since = node_alive_since.pop(n, None)
        if since is not None:
            node_lifetime[n] = node_lifetime.get(n, 0.0) + max(0, t - since)

    def close_edge(e, t):
        opened = edge_open.pop(e, None)
        if opened is not None:
            start, w = opened
            intervals.setdefault(e, []).append((start, t, w))

    for n in initial.nodes():
        node_alive_since[n] = ts
    attributed = initial.attributed_edges()
    for e in initial.edges():
        edge_open[e] = (ts, float(attributed.get(e, {}).get("weight", 1.0)))

    for ev in events:
        t = min(max(ev.time, ts), te)
        if ev.kind == EventKind.NODE_ADD:
            node_alive_since.setdefault(ev.node, t)
        elif ev.kind == EventKind.NODE_DELETE:
            close_node(ev.node, t)
            for e in [e for e in edge_open if ev.node in e]:
                close_edge(e, t)
        elif ev.kind == EventKind.EDGE_ADD:
            node_alive_since.setdefault(ev.node, t)
            node_alive_since.setdefault(ev.other, t)
            e = canonical_edge(ev.node, ev.other)
            w = 1.0
            if isinstance(ev.value, dict):
                w = float(ev.value.get("weight", 1.0))
            edge_open.setdefault(e, (t, w))
        elif ev.kind == EventKind.EDGE_DELETE:
            close_edge(canonical_edge(ev.node, ev.other), t)
        elif ev.kind == EventKind.EDGE_ATTR_SET and ev.key == "weight":
            e = canonical_edge(ev.node, ev.other)
            if e in edge_open:
                close_edge(e, t)
                edge_open[e] = (t, float(ev.value))

    for n in list(node_alive_since):
        close_node(n, te)
    for e in list(edge_open):
        close_edge(e, te)
    return node_lifetime, intervals


def oracle_collapse(initial, events, ts, te, omega, node_weighting):
    if te <= ts:
        raise PartitioningError(f"empty timespan [{ts}, {te})")
    node_lifetime, intervals = oracle_edge_intervals(initial, events, ts, te)
    span = float(te - ts)
    all_nodes = tuple(sorted(node_lifetime))
    edge_weights: Dict = {}
    if omega is CollapseFunction.MEDIAN:
        mid = ts + (te - ts) // 2
        for e, ivals in intervals.items():
            for (start, end, w) in ivals:
                if start <= mid < end:
                    edge_weights[e] = w
                    break
    elif omega is CollapseFunction.UNION_MAX:
        for e, ivals in intervals.items():
            edge_weights[e] = max(w for (_, _, w) in ivals)
    else:
        for e, ivals in intervals.items():
            weighted = sum(w * (end - start) for (start, end, w) in ivals)
            edge_weights[e] = weighted / span
    degree = {n: 0.0 for n in all_nodes}
    for (u, v), w in edge_weights.items():
        if u in degree:
            degree[u] += 1.0
        if v in degree:
            degree[v] += 1.0
    if node_weighting is NodeWeighting.UNIFORM:
        node_weights = {n: 1.0 for n in all_nodes}
    elif node_weighting is NodeWeighting.DEGREE:
        node_weights = dict(degree)
    else:
        node_weights = {
            n: degree[n] * (node_lifetime.get(n, 0.0) / span) for n in all_nodes
        }
    return all_nodes, tuple(sorted(edge_weights)), edge_weights, node_weights


# -- lenient histories ----------------------------------------------------------

#: weights an event may carry: ints, a fraction, NaN
_WEIGHTS = (1, 2, 5, 0.25, NAN)

# one op: (kind, a, b, weight index, time step); a small id pool, so
# nodes are deleted with live edges and re-added
op = st.tuples(
    st.sampled_from((0, 1, 1, 2, 2, 2, 3, 4, 4, 5)),
    st.integers(0, 7), st.integers(0, 7),
    st.integers(0, 9), st.integers(0, 2),
)


def lenient(ops: Sequence[Tuple[int, int, int, int, int]], t0: int) -> List[Event]:
    """Events from ``t0`` on; kinds 0-5 are node add, node delete, edge
    add (weighted or not), edge delete, ``weight`` set (on whatever edge,
    open or closed) and an unrelated edge attribute."""
    eb = EventBuilder()
    events: List[Event] = []
    t = t0
    for kind, a, b, wi, step in ops:
        t += step
        w = _WEIGHTS[wi % len(_WEIGHTS)]
        if kind == 0:
            events.append(eb.node_add(t, a))
        elif kind == 1:
            events.append(eb.node_delete(t, a))
        elif kind == 2:
            events.append(eb.edge_add(t, a, b, {"weight": w} if wi % 2 else None))
        elif kind == 3:
            events.append(eb.edge_delete(t, a, b))
        elif kind == 4:
            events.append(eb.edge_attr_set(t, a, b, "weight", w))
        else:
            events.append(eb.edge_attr_set(t, a, b, "color", w))
    return events


def same_float(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)


def same_map(got, want) -> bool:
    return got.keys() == want.keys() and all(
        same_float(got[k], want[k]) for k in want
    )


# no explain phase: on a failure it re-runs the examples under a tracer
# for minutes before reporting
@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
          suppress_health_check=[HealthCheck.too_slow])
@given(
    before=st.lists(op, max_size=30),
    during=st.lists(op, min_size=1, max_size=60),
    lead=st.integers(-3, 3),
    length=st.integers(1, 40),
)
def test_collapse_matches_the_oracle(before, during, lead, length):
    initial = Graph.replay(lenient(before, 1))
    events = lenient(during, 100)
    # the span starts before, at or after the first event and may end
    # before the last: times outside [ts, te) clamp onto it
    ts = events[0].time + lead
    te = ts + length
    for omega in CollapseFunction:
        for weighting in NodeWeighting:
            got = collapse(initial, events, ts, te, omega, weighting)
            nodes, edges, edge_weights, node_weights = oracle_collapse(
                initial, events, ts, te, omega, weighting
            )
            assert got.nodes == nodes
            assert got.edges == edges
            assert same_map(got.edge_weights, edge_weights), (omega, weighting)
            assert same_map(got.node_weights, node_weights), (omega, weighting)


def test_node_delete_closes_only_its_own_edges():
    eb = EventBuilder()
    initial = Graph.replay([
        eb.edge_add(1, 0, 1, {"weight": 3}), eb.edge_add(1, 1, 2),
        eb.edge_add(1, 2, 3),
    ])
    events = [
        eb.node_delete(10, 1),  # builds the endpoint index
        eb.edge_add(12, 1, 3, {"weight": 7}),  # reopens under the index
        eb.edge_add(13, 0, 1),
        eb.node_delete(14, 1),
        eb.node_delete(15, 9),  # no such node
    ]
    got = collapse(initial, events, 10, 20, CollapseFunction.UNION_MEAN)
    assert got.edges == ((0, 1), (1, 2), (1, 3), (2, 3))
    assert got.edge_weights == {
        (0, 1): 1 * 1 / 10, (1, 2): 0.0, (1, 3): 7 * 2 / 10, (2, 3): 1.0,
    }
