"""Unit tests for the delta algebra (paper Definitions 1-5)."""

import pytest

from repro.deltas.base import Delta, EMPTY_DELTA, StaticEdge, StaticNode
from repro.errors import DeltaError
from repro.graph.static import Graph


def sn(i, nbrs=(), **attrs):
    return StaticNode.make(i, nbrs, attrs)


def test_static_node_identity_and_attrs():
    a = sn(1, (2, 3), color="red")
    assert a.key == ("n", 1)
    assert a.attrs == {"color": "red"}
    assert a.E == frozenset({2, 3})


def test_static_node_modifiers():
    a = sn(1)
    b = a.with_neighbor(2).with_attr("x", 5)
    assert b.E == frozenset({2}) and b.attrs == {"x": 5}
    c = b.without_neighbor(2).without_attr("x")
    assert c == a


def test_static_edge_canonicalization():
    e = StaticEdge.make(5, 2, {"w": 1})
    assert (e.u, e.v) == (2, 5)
    assert e.key == ("e", (2, 5))


def test_sum_right_operand_wins():
    d1 = Delta([sn(1, (), v=1)])
    d2 = Delta([sn(1, (), v=2)])
    merged = d1 + d2
    assert merged.get(("n", 1)).attrs == {"v": 2}


def test_sum_not_commutative():
    d1 = Delta([sn(1, (), v=1)])
    d2 = Delta([sn(1, (), v=2)])
    assert (d1 + d2) != (d2 + d1)


def test_sum_identity_and_associativity():
    d1 = Delta([sn(1), sn(2)])
    d2 = Delta([sn(2, (), x=1), sn(3)])
    d3 = Delta([sn(4)])
    assert d1 + EMPTY_DELTA == d1
    assert EMPTY_DELTA + d1 == d1
    assert (d1 + d2) + d3 == d1 + (d2 + d3)


def test_difference_self_is_empty():
    d = Delta([sn(1), sn(2, (1,))])
    assert len(d - d) == 0


def test_difference_keeps_changed_versions():
    d1 = Delta([sn(1, (), v=1), sn(2)])
    d2 = Delta([sn(1, (), v=2), sn(2)])
    diff = d1 - d2
    assert len(diff) == 1
    assert diff.get(("n", 1)).attrs == {"v": 1}


def test_parent_plus_difference_reconstructs_child():
    child = Delta([sn(1, (2,)), sn(2, (1,)), sn(3)])
    other = Delta([sn(1, (2,)), sn(2, (1,), moved=True)])
    parent = child & other
    assert parent + (child - parent) == child


def test_intersection_requires_identical_state():
    d1 = Delta([sn(1, (), v=1), sn(2)])
    d2 = Delta([sn(1, (), v=2), sn(2)])
    inter = d1 & d2
    assert len(inter) == 1 and inter.get(("n", 2)) is not None


def test_intersection_with_empty():
    d = Delta([sn(1)])
    assert len(d & EMPTY_DELTA) == 0


def test_union_with_empty():
    d = Delta([sn(1)])
    assert (d | EMPTY_DELTA) == d


def test_union_prefers_left():
    d1 = Delta([sn(1, (), v=1)])
    d2 = Delta([sn(1, (), v=2), sn(3)])
    u = d1 | d2
    assert u.get(("n", 1)).attrs == {"v": 1}
    assert len(u) == 2


def test_cardinality_and_size():
    d = Delta([sn(1, (2, 3)), sn(2), StaticEdge.make(1, 2)])
    assert d.cardinality == 3
    # node 1 contributes 1 + 2 edge entries; node 2 -> 1; edge -> 1
    assert d.size == 5


def test_type_errors():
    with pytest.raises(DeltaError):
        Delta() + 3
    with pytest.raises(DeltaError):
        Delta() - "x"
    with pytest.raises(DeltaError):
        Delta() & None
    with pytest.raises(DeltaError):
        Delta() | 1


def test_from_graph_roundtrip_edge_components():
    g = Graph()
    g.add_node(1, {"a": 1})
    g.add_node(2)
    g.add_edge(1, 2, {"w": 3})
    d = Delta.from_graph(g)
    g2 = d.to_graph()
    assert g2 == g


def test_from_graph_node_centric_roundtrip_structure():
    g = Graph()
    for n in (1, 2, 3):
        g.add_node(n)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    d = Delta.from_graph(g, node_centric=True)
    g2 = d.to_graph()
    assert sorted(g2.nodes()) == [1, 2, 3]
    assert g2.has_edge(1, 2) and g2.has_edge(2, 3)


def test_to_graph_drops_dangling_edges():
    d = Delta([sn(1, (99,)), StaticEdge.make(1, 99)])
    g = d.to_graph()
    assert g.num_nodes == 1 and g.num_edges == 0
