"""Unit tests for the in-memory property graph."""

import gc
import random
import sys
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.deltas.base import Delta
from repro.deltas.columnar import ColumnarEventList, pack_eventlist
from repro.errors import EventError, GraphError
from repro.graph.events import EventBuilder, EventKind
from repro.graph.static import Graph
from repro.index.common import snapshot_delta_of_graph
from tests.helpers import graph_parts, per_edge_graph, random_history


@pytest.fixture
def triangle():
    g = Graph()
    for n in (1, 2, 3):
        g.add_node(n, {"label": f"n{n}"})
    g.add_edge(1, 2, {"w": 1})
    g.add_edge(2, 3)
    g.add_edge(1, 3)
    return g


def test_add_and_query_nodes(triangle):
    assert triangle.num_nodes == 3
    assert triangle.node_attrs(1) == {"label": "n1"}
    assert triangle.has_node(2) and not triangle.has_node(9)


def test_add_edge_requires_endpoints():
    g = Graph()
    g.add_node(1)
    with pytest.raises(GraphError):
        g.add_edge(1, 2)


def test_remove_node_drops_incident_edges(triangle):
    triangle.remove_node(2)
    assert triangle.num_nodes == 2
    assert triangle.num_edges == 1
    assert triangle.has_edge(1, 3)


def test_remove_missing_edge_raises(triangle):
    triangle.remove_edge(1, 2)
    with pytest.raises(GraphError):
        triangle.remove_edge(1, 2)


def test_neighbors_undirected(triangle):
    assert triangle.neighbors(1) == {2, 3}


def test_directed_adjacency():
    g = Graph(directed=True)
    g.add_node(1)
    g.add_node(2)
    g.add_edge(1, 2)
    assert g.neighbors(1) == {2}
    assert g.neighbors(2) == set()


def test_directed_remove_node_drops_incoming():
    g = Graph(directed=True)
    for n in (1, 2):
        g.add_node(n)
    g.add_edge(1, 2)
    g.remove_node(2)
    assert g.num_edges == 0


def test_subgraph_induces(triangle):
    sub = triangle.subgraph([1, 2])
    assert sorted(sub.nodes()) == [1, 2]
    assert sub.num_edges == 1
    assert sub.node_attrs(1) == {"label": "n1"}


def test_khop_nodes():
    g = Graph()
    for n in range(5):
        g.add_node(n)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        g.add_edge(u, v)
    assert g.khop_nodes(0, 2) == {0, 1, 2}
    assert g.khop_nodes(2, 1) == {1, 2, 3}


def test_khop_subgraph_is_induced():
    g = Graph()
    for n in range(4):
        g.add_node(n)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    g.add_edge(2, 3)
    sub = g.khop_subgraph(0, 1)
    assert sorted(sub.nodes()) == [0, 1, 2]
    assert sub.num_edges == 3  # includes the 1-2 edge between neighbors


def test_equality_and_copy(triangle):
    dup = triangle.copy()
    assert dup == triangle
    dup.node_attrs(1)["label"] = "changed"
    assert dup != triangle


def test_replay_matches_manual():
    eb = EventBuilder()
    events = [
        eb.node_add(1, 0),
        eb.node_add(2, 1),
        eb.edge_add(3, 0, 1, {"w": 2}),
        eb.node_attr_set(4, 0, "x", 9),
        eb.edge_delete(5, 0, 1),
    ]
    g3 = Graph.replay(events, until=3)
    assert g3.has_edge(0, 1) and g3.edge_attrs(0, 1) == {"w": 2}
    g5 = Graph.replay(events, until=5)
    assert not g5.has_edge(0, 1)
    assert g5.node_attrs(0) == {"x": 9}


def test_strict_mode_rejects_redundant_add():
    eb = EventBuilder()
    g = Graph()
    g.apply_event(eb.node_add(1, 0))
    with pytest.raises(EventError):
        g.apply_event(eb.node_add(2, 0), strict=True)


def test_lenient_mode_tolerates_redundant_ops():
    eb = EventBuilder()
    g = Graph()
    g.apply_event(eb.edge_delete(1, 5, 6))  # no-op
    g.apply_event(eb.node_delete(1, 5))  # no-op
    assert g.num_nodes == 0


def test_lenient_edge_add_autocreates_endpoints():
    eb = EventBuilder()
    g = Graph()
    g.apply_event(eb.edge_add(1, 4, 5))
    assert g.has_node(4) and g.has_node(5) and g.has_edge(4, 5)


def test_edge_attr_set_and_del():
    eb = EventBuilder()
    g = Graph()
    g.apply_event(eb.node_add(1, 0))
    g.apply_event(eb.node_add(1, 1))
    g.apply_event(eb.edge_add(2, 0, 1))
    g.apply_event(eb.edge_attr_set(3, 0, 1, "w", 7))
    assert g.edge_attrs(0, 1) == {"w": 7}
    g.apply_event(eb.edge_attr_del(4, 0, 1, "w"))
    assert g.edge_attrs(0, 1) == {}


def test_node_attr_del():
    eb = EventBuilder()
    g = Graph()
    g.apply_event(eb.node_add(1, 0, {"a": 1, "b": 2}))
    g.apply_event(eb.node_attr_del(2, 0, "a"))
    assert g.node_attrs(0) == {"b": 2}


# -- bulk loader --------------------------------------------------------------
# ``from_parts`` against the per-edge construction it replaced
# (``tests.helpers.per_edge_graph``).

_IDS = st.integers(0, 11)
_ATTRS = st.dictionaries(
    st.sampled_from(["w", "label"]), st.integers(0, 3), max_size=2
)


@st.composite
def _parts(draw):
    """Arbitrary node-centric parts: edge lists may name absent nodes,
    list an edge from one endpoint only, or repeat an entry; edge
    attributes may cover edges the lists do not define."""
    nodes = draw(st.lists(_IDS, max_size=9, unique=True))
    # attributes as dicts or as pair tuples (what a StaticNode carries)
    node_attrs = {
        n: a if draw(st.booleans()) else tuple(sorted(a.items()))
        for n in nodes for a in [draw(_ATTRS)]
    }
    adjacency = {
        n: draw(st.lists(st.integers(0, 14), max_size=5))
        for n in nodes + [12] if draw(st.booleans())
    }
    edge_attrs = {
        (draw(_IDS), draw(_IDS)): tuple(sorted(draw(_ATTRS).items()))
        for _ in range(draw(st.integers(0, 8)))
    }
    return node_attrs, adjacency, edge_attrs


@given(parts=_parts(), directed=st.booleans())
@settings(max_examples=200, deadline=None)
def test_from_parts_matches_per_edge_construction(parts, directed):
    node_attrs, adjacency, edge_attrs = parts
    got = Graph.from_parts(node_attrs, adjacency, edge_attrs, directed)
    want = per_edge_graph(node_attrs, adjacency, edge_attrs, directed)
    _agree(got, want)
    # the loader copies what it is given
    for n in got.nodes():
        got.node_attrs(n)["touched"] = True
    assert all("touched" not in dict(a) for a in node_attrs.values())


@st.composite
def _graphs(draw):
    g = Graph(directed=draw(st.booleans()))
    for n in draw(st.lists(_IDS, max_size=10, unique=True)):
        g.add_node(n, draw(_ATTRS))
    alive = sorted(g.nodes())
    if alive:
        for _ in range(draw(st.integers(0, 14))):
            g.add_edge(
                draw(st.sampled_from(alive)), draw(st.sampled_from(alive)),
                draw(_ATTRS),
            )
    return g


@given(g=_graphs(), keep=st.lists(st.integers(0, 14), max_size=8))
@settings(max_examples=150, deadline=None)
def test_subgraph_matches_edge_scan(g, keep):
    want = Graph(directed=g.directed)
    kept = {n for n in keep if g.has_node(n)}
    for n in kept:
        want.add_node(n, g.node_attrs(n))
    for (u, v) in g.edges():
        if u in kept and v in kept:
            want.add_edge(u, v, g.edge_attrs(u, v))
    got = g.subgraph(keep)
    _agree(got, want)
    # edge attribute maps are the result's own, not the source's
    for eid in got.edges():
        got.edge_attrs(*eid)["touched"] = True
    assert all("touched" not in g.edge_attrs(*e) for e in g.edges())


def test_from_parts_round_trips_a_graph(triangle):
    parts = (
        {n: triangle.node_attrs(n) for n in triangle.nodes()},
        {n: triangle.neighbors(n) for n in triangle.nodes()},
        {e: triangle.edge_attrs(*e) for e in triangle.edges()},
    )
    _agree(Graph.from_parts(*parts), triangle)


# -- one representation, every construction -----------------------------------
# Adjacency is the edge set and the attribute map is sparse; whichever
# way a graph is built it must be indistinguishable from the per-edge
# reference through the public surface.

def _replayed_parts(events, directed):
    """Node-centric parts of the state a strict-consistent history ends
    in, replayed on plain dicts (no ``Graph`` involved)."""
    nodes, adjacency, edge_attrs = {}, {}, {}
    for ev in events:
        kind, u, v = ev.kind, ev.node, ev.other
        if kind == EventKind.NODE_ADD:
            nodes[u], adjacency[u] = dict(ev.value or {}), set()
        elif kind == EventKind.NODE_DELETE:
            del nodes[u], adjacency[u]
        elif kind == EventKind.NODE_ATTR_SET:
            nodes[u][ev.key] = ev.value
        elif kind == EventKind.EDGE_ADD:
            adjacency[u].add(v)
            if not directed:
                adjacency[v].add(u)
            edge_attrs[(u, v)] = dict(ev.value or {})
        elif kind == EventKind.EDGE_DELETE:
            adjacency[u].discard(v)
            if not directed:
                adjacency[v].discard(u)
            del edge_attrs[(u, v)]
        elif kind == EventKind.EDGE_ATTR_SET:
            edge_attrs[(u, v)][ev.key] = ev.value
        else:
            assert kind == EventKind.EDGE_ATTR_DEL
            del edge_attrs[(u, v)][ev.key]
    return nodes, adjacency, edge_attrs


def _agree(got, want):
    assert set(got.nodes()) == set(want.nodes())
    edges = list(got.edges())
    assert len(edges) == len(set(edges)) == got.num_edges == want.num_edges
    assert set(edges) == set(want.edges())
    ids = set(want.nodes()) | {12, 13}
    for u in ids:
        for v in ids:
            assert got.has_edge(u, v) == want.has_edge(u, v), (u, v)
    for n in want.nodes():
        assert got.neighbors(n) == want.neighbors(n)
        assert got.node_attrs(n) == want.node_attrs(n)
    assert got.attributed_edges() == want.attributed_edges()
    assert got == want and want == got
    # handing out a bare edge's (empty) map changes nothing observable
    for e in edges:
        assert got.edge_attrs(*e) == want.edge_attrs(*e)
    assert got == want and want == got


@st.composite
def _sources(draw):
    """``(parts, events)``: the end state of a churned history (every
    other edge bare, attribute keys set and deleted) with the events
    that lead there, or raw parts — self-loops, one-sided and dangling
    entries, attributes for absent edges — with no history."""
    directed = draw(st.booleans())
    if draw(st.booleans()):
        return draw(_parts()), None, directed
    events = random_history(
        steps=draw(st.integers(10, 120)), seed=draw(st.integers(0, 40)),
        edge_attr_churn=True, bare_edges=True,
    )
    return _replayed_parts(events, directed), events, directed


@given(source=_sources(), keep=st.lists(st.integers(0, 40), max_size=12))
@settings(max_examples=120, deadline=None)
def test_every_construction_agrees_with_the_per_edge_reference(source, keep):
    parts, events, directed = source
    want = per_edge_graph(*parts, directed)
    built = [Graph.from_parts(*parts, directed)]
    if events is not None:
        replayed = Graph(directed)
        replayed.apply_events(events, strict=True)
        columnar = Graph(directed)
        columnar.apply_columnar([ColumnarEventList(
            pack_eventlist(0, events[-1].time, tuple(events))
        )])
        built += [
            replayed, columnar,
            snapshot_delta_of_graph(want).to_graph(directed),
            Delta.from_graph(want).to_graph(directed),
        ]
    node_attrs, adjacency, edge_attrs = parts
    induced = per_edge_graph(
        {n: node_attrs[n] for n in keep if n in node_attrs},
        {n: adjacency[n] for n in keep if n in adjacency},
        edge_attrs, directed,
    )
    for got in built:
        _agree(got, want)
        _agree(got.copy(), want)
        _agree(got.subgraph(keep), induced)


@pytest.mark.parametrize("directed", [False, True])
def test_string_ids_agree_whatever_order_their_sets_iterate_in(directed):
    """``edges()`` walks adjacency sets, so with string ids its order
    follows ``PYTHONHASHSEED`` (CI runs this file under two values)."""
    rng = random.Random(1)
    names = [f"n{i}" for i in range(12)]
    node_attrs = {n: {"label": n} for n in names[:10]}
    adjacency = {n: rng.sample(names, 4) for n in names[:10]}
    edge_attrs = {
        tuple(sorted(rng.sample(names, 2))): {"w": i} for i in range(20)
    }
    want = per_edge_graph(node_attrs, adjacency, edge_attrs, directed)
    got = Graph.from_parts(node_attrs, adjacency, edge_attrs, directed)
    assert 0 < len(want.attributed_edges()) < want.num_edges
    _agree(got, want)
    _agree(snapshot_delta_of_graph(got).to_graph(directed), want)
    _agree(got.subgraph(names[3:]), want.subgraph(names[3:]))


@pytest.mark.parametrize("columnar", [False, True])
def test_an_edge_stripped_of_its_only_attribute_equals_a_bare_one(columnar):
    eb = EventBuilder()
    nodes = [eb.node_add(1, 0), eb.node_add(1, 1)]
    histories = (
        nodes + [eb.edge_add(2, 0, 1)],
        nodes + [eb.edge_add(2, 0, 1, {"w": 1}),
                 eb.edge_attr_del(3, 0, 1, "w")],
    )
    bare, stripped = Graph(), Graph()
    for g, events in zip((bare, stripped), histories):
        if columnar:
            g.apply_columnar([ColumnarEventList(
                pack_eventlist(0, 3, tuple(events))
            )])
        else:
            g.apply_events(events, strict=True)
    assert bare == stripped and stripped == bare
    assert stripped.attributed_edges() == {} == stripped.copy()._edge_attrs


@given(g=_graphs())
@settings(max_examples=100, deadline=None)
def test_a_first_write_to_an_edge_stays_on_the_graph_it_was_made_on(g):
    before = graph_parts(g)
    for derived in (g.copy(), g.subgraph(list(g.nodes()))):
        edges = list(derived.edges())
        for e in edges:
            derived.edge_attrs(*e)["rogue"] = True
        assert all(derived.attributed_edges()[e]["rogue"] for e in edges)
        assert graph_parts(g) == before
        # removals leave no orphan entry in the sparse map
        for e in edges[::2]:
            derived.remove_edge(*e)
        for n in list(derived.nodes())[::2]:
            derived.remove_node(n)
        left = set(derived.edges())
        assert set(derived._edge_attrs) <= left
        assert derived.num_edges == len(left)
        assert all(derived.has_edge(*e) for e in left)


# -- what a graph costs -------------------------------------------------------

def _retained(build):
    """``build()`` and the bytes it left allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        return built, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _node_and_adjacency_bytes(g):
    return sum(
        sys.getsizeof(table) + sum(map(sys.getsizeof, table.values()))
        for table in (g._nodes, g._adj)
    )


def test_an_attribute_less_graph_retains_nothing_per_edge():
    """2 000 nodes / 8 000 bare edges: ``from_parts``, ``copy`` and a
    200-node ``subgraph`` keep the node dicts and the adjacency sets and
    nothing else — with a tuple key and a dict per edge they kept 1.67x,
    1.47x and 1.16x that."""
    rng = random.Random(5)
    ids = range(1000, 3000)  # above the interpreter's shared small ints
    adjacency = {n: set() for n in ids}
    while sum(map(len, adjacency.values())) < 16000:
        u, v = rng.sample(ids, 2)
        adjacency[u].add(v)
        adjacency[v].add(u)
    node_attrs = {n: (("v", n % 5),) for n in ids}
    keep = rng.sample(ids, 200)

    g, loaded = _retained(lambda: Graph.from_parts(node_attrs, adjacency))
    assert g.num_edges == 8000 and not g._edge_attrs
    dup, copied = _retained(g.copy)
    sub, induced = _retained(lambda: g.subgraph(keep))
    assert sub.num_nodes == 200
    for built, retained in ((g, loaded), (dup, copied), (sub, induced)):
        assert retained <= 1.1 * _node_and_adjacency_bytes(built) + 2048
