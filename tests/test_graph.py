"""Unit tests for the in-memory property graph."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import EventError, GraphError
from repro.graph.events import EventBuilder
from repro.graph.static import Graph
from tests.helpers import per_edge_graph


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


def _same_graph(a, b):
    """Equal, adjacency included (``==`` compares nodes and edges)."""
    return a == b and all(
        a.neighbors(n) == b.neighbors(n) for n in a.nodes()
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
    assert _same_graph(got, want)
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
    assert _same_graph(got, want)
    # a private copy: attribute maps are not shared with the source
    for eid in got.edges():
        got.edge_attrs(*eid)["touched"] = True
    assert all("touched" not in g.edge_attrs(*e) for e in g.edges())


def test_from_parts_round_trips_a_graph(triangle):
    parts = (
        {n: triangle.node_attrs(n) for n in triangle.nodes()},
        {n: triangle.neighbors(n) for n in triangle.nodes()},
        {e: triangle.edge_attrs(*e) for e in triangle.edges()},
    )
    assert _same_graph(Graph.from_parts(*parts), triangle)
