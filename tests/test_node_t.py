"""Unit tests for the temporal operands NodeT and SubgraphT."""

import pytest

from repro.deltas.base import StaticNode
from repro.errors import TimeRangeError
from repro.graph.events import EventBuilder
from repro.index.interface import NodeHistory
from repro.taf.node_t import NodeT, SubgraphT


@pytest.fixture
def node_t():
    eb = EventBuilder()
    initial = StaticNode.make(1, (2,), {"x": 1})
    events = (
        eb.edge_add(10, 1, 3),
        eb.node_attr_set(20, 1, "x", 2, old=1),
        eb.edge_delete(30, 1, 2),
    )
    return NodeT(NodeHistory(1, 0, 40, initial, events))


def test_basic_accessors(node_t):
    assert node_t.node_id == 1
    assert node_t.get_start_time() == 0
    assert node_t.get_end_time() == 40


def test_get_state_at(node_t):
    assert node_t.get_state_at(0).E == frozenset({2})
    assert node_t.get_state_at(15).E == frozenset({2, 3})
    assert node_t.get_state_at(35).E == frozenset({3})
    assert node_t.get_state_at(25).attrs == {"x": 2}


def test_get_state_outside_range_raises(node_t):
    with pytest.raises(TimeRangeError):
        node_t.get_state_at(41)
    with pytest.raises(TimeRangeError):
        node_t.get_state_at(-1)


def test_versions_and_change_points(node_t):
    versions = node_t.get_versions()
    assert [t for t, _ in versions] == [0, 10, 20, 30]
    assert node_t.change_points() == [10, 20, 30]


def test_get_version_at_is_get_state_at(node_t):
    # the paper's getVersionAt
    for t in (0, 10, 15, 25, 35, 40):
        assert node_t.get_version_at(t) == node_t.get_state_at(t)
    assert node_t.get_version_at(25).attrs == {"x": 2}
    with pytest.raises(TimeRangeError):
        node_t.get_version_at(41)


def test_get_neighbor_ids_at(node_t):
    assert node_t.get_neighbor_ids_at(12) == {2, 3}


def test_iterator(node_t):
    assert list(node_t.get_iterator()) == node_t.get_versions()


def test_timeslice_restricts(node_t):
    sliced = node_t.timeslice(15, 25)
    assert sliced.get_start_time() == 15
    assert sliced.get_end_time() == 25
    assert sliced.get_state_at(15).E == frozenset({2, 3})
    assert [e.time for e in sliced.events] == [20]


def test_timeslice_inverted_raises(node_t):
    with pytest.raises(TimeRangeError):
        node_t.timeslice(30, 10)
    # a window disjoint from the range would clamp to an inverted one
    late = NodeT(NodeHistory(1, 10, 20, StaticNode.make(1), ()))
    for ts, te in ((0, 5), (25, 30)):
        with pytest.raises(TimeRangeError):
            late.timeslice(ts, te)


def test_project_attrs_strips(node_t):
    projected = node_t.project_attrs(["y"])
    for _, state in projected.get_versions():
        if state is not None:
            assert state.attrs == {}
    # structure untouched
    assert projected.get_state_at(15).E == frozenset({2, 3})


@pytest.fixture
def subgraph_t():
    eb = EventBuilder()
    h1 = NodeHistory(
        1, 0, 40, StaticNode.make(1, (2,)),
        (eb.edge_add(10, 1, 3),),
    )
    # edge event replicated in both endpoint histories, same seq
    ev_edge = h1.events[0]
    h2 = NodeHistory(2, 0, 40, StaticNode.make(2, (1,)), ())
    h3 = NodeHistory(3, 0, 40, StaticNode.make(3), (ev_edge,))
    return SubgraphT(1, 1, {1: NodeT(h1), 2: NodeT(h2), 3: NodeT(h3)})


def test_subgraph_version_at(subgraph_t):
    g0 = subgraph_t.get_version_at(5)
    assert sorted(g0.nodes()) == [1, 2]  # 3 not a neighbor yet
    g1 = subgraph_t.get_version_at(15)
    assert sorted(g1.nodes()) == [1, 2, 3]


def test_subgraph_member_ids(subgraph_t):
    assert subgraph_t.member_ids() == [1, 2, 3]
    assert subgraph_t.timeslice(0, 5).member_ids() == [1, 2, 3]


def test_subgraph_events_deduplicated(subgraph_t):
    events = subgraph_t.events_sorted()
    assert len(events) == 1  # edge event appears once despite replication


def test_subgraph_change_points_member_scoped(subgraph_t):
    assert subgraph_t.change_points() == [10]


def test_subgraph_members_induced_at(subgraph_t):
    g = subgraph_t.members_induced_at(15)
    assert sorted(g.nodes()) == [1, 2, 3]
    assert g.has_edge(1, 3)


def test_subgraph_timeslice(subgraph_t):
    sliced = subgraph_t.timeslice(0, 5)
    assert sliced.change_points() == []
