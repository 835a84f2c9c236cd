"""Checkpoint snapshots derived one eventlist at a time.

Every build that snapshots the graph after each batch of events derives
the snapshot from the previous one (``index.common.advance_snapshot_delta``)
and rebuilds only the static nodes the batch touched.  These tests pin
that the derived snapshots are the whole-graph ones — in value, node
order and packed bytes — on lenient histories (a node deleted with live
edges, re-added, edges that create their endpoints, NaN attributes), and
that the stored rows of the four such builds did not change.
"""

import hashlib
import random
from typing import List, Sequence, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.index.tgi.build as tgi_build
from repro.deltas.base import Delta, StaticEdge, StaticNode
from repro.deltas.columnar import pack_delta
from repro.deltas.eventlist import split_events_into_lists
from repro.graph.events import Event, EventBuilder, EventKind
from repro.graph.static import Graph
from repro.index.common import (
    advance_snapshot_delta,
    snapshot_delta_of_graph,
    static_node_from_graph,
)
from repro.index.copy import CopyIndex
from repro.index.copylog import CopyLogIndex
from repro.index.deltagraph import DeltaGraphIndex
from repro.index.tgi import TGI, TGIConfig
from repro.kvstore.cluster import ClusterConfig

NAN = float("nan")

# one op: (kind, a, b, value index, time step); ids come from a small pool
# so nodes are deleted and re-added
Op = Tuple[int, int, int, int, int]
_VALUES = (1, 2, "x", NAN, None)


def lenient_events(ops: Sequence[Op]) -> List[Event]:
    """The events ``ops`` spell out, applicable only leniently: a node
    is deleted with its edges still live, an edge creates missing
    endpoints, attributes are set on missing nodes and deleted when
    absent."""
    eb = EventBuilder()
    events: List[Event] = []
    t = 1
    for kind, a, b, vi, step in ops:
        t += step
        value = _VALUES[vi % len(_VALUES)]
        key = "k%d" % (vi % 2)
        if kind == 0:
            events.append(eb.node_add(t, a, {key: value} if vi % 3 else None))
        elif kind == 1:
            events.append(eb.node_delete(t, a))
        elif kind == 2:
            events.append(eb.edge_add(t, a, b, {key: value} if vi % 2 else None))
        elif kind == 3:
            events.append(eb.edge_delete(t, a, b))
        elif kind == 4:
            events.append(eb.node_attr_set(t, a, key, value))
        elif kind == 5:
            events.append(eb.node_attr_del(t, a, key))
        elif kind == 6:
            events.append(eb.edge_attr_set(t, a, b, key, value))
        else:
            events.append(eb.edge_attr_del(t, a, b, key))
    return events


def _node_order(d: Delta) -> list:
    return list(d.static_nodes())


def _edge_order(d: Delta) -> list:
    return list(d.static_edges())


# -- the helper against whole-graph snapshots ---------------------------------

# edge adds and node deletes weigh double, so most nodes deleted still
# have edges
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from((0, 1, 1, 2, 2, 3, 4, 5, 6, 7)),
        st.integers(0, 6), st.integers(0, 6),
        st.integers(0, 11), st.integers(0, 1),
    ),
    min_size=8, max_size=80,
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops_strategy, st.integers(1, 6), st.booleans())
def test_derived_checkpoints_equal_whole_graph_snapshots(ops, size, directed):
    g = Graph(directed=directed)
    prev = snapshot_delta_of_graph(g)
    for _ts, _te, evs in split_events_into_lists(lenient_events(ops), size):
        prev = advance_snapshot_delta(g, prev, evs)
        fresh = snapshot_delta_of_graph(g)
        assert prev == fresh
        assert _node_order(prev) == _node_order(fresh)
        assert _node_order(prev) == list(g.nodes())
        assert _edge_order(prev) == _edge_order(fresh)
        assert pack_delta(prev) == pack_delta(fresh)


def test_untouched_nodes_keep_their_objects():
    eb = EventBuilder()
    g = Graph()
    first = [eb.node_add(1, n) for n in range(5)]
    first += [eb.edge_add(2, 0, 1), eb.edge_add(2, 2, 3)]
    prev = advance_snapshot_delta(g, snapshot_delta_of_graph(g), first)
    cur = advance_snapshot_delta(
        g, prev, [eb.node_attr_set(3, 4, "a", 1), eb.edge_delete(3, 2, 3)]
    )
    before, after = prev.static_nodes(), cur.static_nodes()
    assert [n for n in after if after[n] is before[n]] == [0, 1]
    assert after[4].attrs == {"a": 1} and after[3].E == frozenset()


def test_lenient_node_delete_rebuilds_its_former_neighbours():
    """No event names the hub's leaves when it is deleted with its edges
    live; they lose the edge all the same."""
    eb = EventBuilder()
    g = Graph()
    star = [eb.node_add(1, n) for n in range(4)]
    star += [eb.edge_add(1, 0, n) for n in (1, 2, 3)]
    prev = advance_snapshot_delta(g, snapshot_delta_of_graph(g), star)
    cur = advance_snapshot_delta(g, prev, [eb.node_delete(2, 0)])
    assert cur == snapshot_delta_of_graph(g)
    assert all(c.E == frozenset() for c in cur.static_nodes().values())


# -- the delta algebra against its plain definitions ---------------------------

def _plain_sub(a: dict, b: dict) -> dict:
    return {k: c for k, c in a.items() if b.get(k) != c}


def _plain_and(a: dict, b: dict) -> dict:
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    return {k: c for k, c in small.items() if large.get(k) == c}


def _same(got: dict, want: dict) -> bool:
    """Same keys in the same order, holding the very same objects."""
    return [(k, id(c)) for k, c in got.items()] == [
        (k, id(c)) for k, c in want.items()
    ]


component_strategy = st.tuples(
    st.integers(0, 7),                                     # id / endpoint
    st.frozensets(st.integers(0, 7), max_size=3),           # edge list
    st.sampled_from([(), (("w", 1),), (("w", NAN),), (("w", "x"),)]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(component_strategy, max_size=8),
       st.lists(component_strategy, max_size=8),
       st.lists(st.integers(0, 3), max_size=16))
def test_sub_and_and_match_their_plain_definitions(left, right, share):
    """``b`` holds ``a``'s objects, equal copies of them (distinct NaN
    objects included) or different components, by ``share``."""
    def nodes(spec):
        return {i: StaticNode(i, e, a) for i, e, a in spec}

    def edges(spec):
        return {(i, i + 1): StaticEdge(i, i + 1, False, a) for i, _, a in spec}

    a_nodes, a_edges = nodes(left), edges(left)
    b_nodes, b_edges = nodes(right), edges(right)
    for mine, theirs in ((a_nodes, b_nodes), (a_edges, b_edges)):
        for k, how in zip(list(mine), share):
            if how == 0:
                theirs[k] = mine[k]
            elif how == 1:
                c = mine[k]
                fresh_a = tuple(
                    (key, float("nan") if v != v else v) for key, v in c.A
                )
                theirs[k] = (
                    StaticNode(c.I, c.E, fresh_a) if isinstance(c, StaticNode)
                    else StaticEdge(c.u, c.v, c.directed, fresh_a)
                )
            elif how == 2:
                theirs.pop(k, None)
    a = Delta.from_static(a_nodes, a_edges)
    b = Delta.from_static(b_nodes, b_edges)
    for got, plain in ((a - b, _plain_sub), (a & b, _plain_and)):
        assert _same(got.static_nodes(), plain(a_nodes, b_nodes))
        assert _same(got.static_edges(), plain(a_edges, b_edges))


# -- a hub deleted with its edges live, through TGI ----------------------------

def star_history() -> List[Event]:
    """12 nodes: a hub and 11 leaves, the hub deleted leniently twice
    (once with an edge gained in the same eventlist), with node and edge
    attributes."""
    eb = EventBuilder()
    ev = [eb.node_add(1, n, {"v": n}) for n in range(12)]
    for n in range(1, 12):
        ev.append(eb.edge_add(1 + n, 0, n, {"w": n} if n % 2 else None))
    ev.append(eb.node_attr_set(13, 3, "v", "z"))
    ev.append(eb.node_delete(14, 0))
    for n in (2, 5, 8):
        ev.append(eb.node_attr_set(15 + n, n, "seen", n))
    ev.append(eb.node_add(24, 0, {"v": 0}))
    ev += [eb.edge_add(25, 0, n) for n in (1, 4, 7, 10)]
    ev.append(eb.edge_attr_set(26, 0, 4, "w", 4))
    ev += [eb.edge_add(27, 0, 11), eb.node_delete(27, 0)]
    ev += [eb.node_attr_set(28 + n, n, "v", -n) for n in (1, 6)]
    return ev


def _star_tgi() -> TGI:
    tgi = TGI(TGIConfig(
        events_per_timespan=16, eventlist_size=3, micro_partition_size=4,
        cluster=ClusterConfig(num_machines=2, replication=1),
    ))
    tgi.build(star_history())
    return tgi


def _rows(cluster) -> dict:
    return {
        k: v.payload for machine in cluster.machines
        for k, v in machine.items()
    }


def test_star_rows_match_a_whole_graph_build(monkeypatch):
    derived = _rows(_star_tgi().cluster)

    def whole_graph(g, prev, events):
        g.apply_events(events)
        return snapshot_delta_of_graph(g)

    monkeypatch.setattr(tgi_build, "advance_snapshot_delta", whole_graph)
    assert derived == _rows(_star_tgi().cluster)


def test_star_leaves_answer_at_every_checkpoint():
    events = star_history()
    tgi = _star_tgi()
    t_min = events[0].time
    times = sorted({
        t for span in tgi._spans for t in span.checkpoints if t >= t_min
    })
    assert len(times) > 6
    for t in times:
        want = Graph.replay(events, until=t)
        for leaf in range(1, 12):
            assert tgi.get_node_state(leaf, t) == \
                static_node_from_graph(want, leaf), (leaf, t)


# -- stored bytes of the four builds ------------------------------------------

def golden_history() -> List[Event]:
    rng = random.Random(32)
    ops = [
        (rng.choice((0, 0, 1, 2, 2, 2, 3, 4, 5, 6, 7)), rng.randrange(14),
         rng.randrange(14), rng.randrange(12), rng.randrange(2))
        for _ in range(400)
    ]
    return lenient_events(ops)


def _digest(cluster) -> str:
    h = hashlib.sha256()
    for payload in sorted(_rows(cluster).values()):
        h.update(len(payload).to_bytes(8, "big"))
        h.update(payload)
    return h.hexdigest()


@pytest.mark.parametrize("make, rows, digest", [
    (lambda: TGI(TGIConfig(
        events_per_timespan=90, eventlist_size=12, micro_partition_size=5,
        cluster=ClusterConfig(num_machines=2, replication=1))),
     270, "0e5e5ed10d7800ce4f0335788b9700e5b8b4dd3b7baea6ca653a9f90c5c92c8a"),
    (lambda: DeltaGraphIndex(eventlist_size=12, arity=3),
     83, "e20175c0e072fe564983d77c73fd10b0ba97c295e95d5dd2aa2a9bb26d851a7c"),
    (lambda: CopyIndex(),
     200, "b11909e2250d49c17a226e28ed5103c44233dca2659ff2c85607082ca5b0f617"),
    (lambda: CopyLogIndex(eventlist_size=12, lists_per_checkpoint=3),
     43, "976e05b6b92efa661131af3aa3d4447326c41f351892622858b68998ca1dc32c"),
], ids=["tgi", "deltagraph", "copy", "copylog"])
def test_stored_rows_are_byte_identical(make, rows, digest):
    """Sha256 over the sorted stored payloads of one lenient build per
    index; the values are those of whole-graph checkpoint snapshots."""
    idx = make()
    idx.build(golden_history())
    assert (len(_rows(idx.cluster)), _digest(idx.cluster)) == (rows, digest)
