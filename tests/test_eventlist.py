"""Unit tests for eventlist deltas."""

import pytest

from repro.deltas.eventlist import EventList, split_events_into_lists
from repro.errors import DeltaError
from repro.graph.events import EventBuilder
from repro.graph.static import Graph


@pytest.fixture
def eb():
    return EventBuilder()


def make_events(eb, n=10):
    events = []
    for i in range(n):
        events.append(eb.node_add(i + 1, i))
    return events


def test_build_infers_scope(eb):
    evs = make_events(eb, 5)
    el = EventList.build(evs)
    assert el.ts == 0 and el.te == 5 and len(el) == 5


def test_scope_validation(eb):
    evs = make_events(eb, 3)
    with pytest.raises(DeltaError):
        EventList(1, 3, tuple(evs))  # first event at t=1 not in (1, 3]


def test_filter_by_time(eb):
    el = EventList.build(make_events(eb, 10))
    sub = el.filter_by_time(3, 7)
    assert [e.time for e in sub] == [4, 5, 6, 7]


def test_filter_by_id(eb):
    events = [eb.node_add(1, 0), eb.node_add(2, 1), eb.edge_add(3, 0, 1)]
    el = EventList.build(events)
    sub = el.filter_by_id([0])
    assert len(sub) == 2  # node add of 0 plus the edge touching 0


def test_apply_to(eb):
    el = EventList.build(make_events(eb, 4))
    g = el.apply_to(Graph())
    assert g.num_nodes == 4


def test_change_points(eb):
    events = [eb.node_add(1, 0), eb.node_add(1, 1), eb.node_add(5, 2)]
    el = EventList.build(events)
    assert el.change_points() == [1, 5]


def test_split_respects_max_size(eb):
    lists = split_events_into_lists(make_events(eb, 10), 3)
    assert [len(el) for el in lists] == [3, 3, 3, 1]


def test_split_does_not_split_time_points():
    eb2 = EventBuilder()
    events = [eb2.node_add(1, i) for i in range(5)]  # all at t=1
    events += [eb2.node_add(2, 10 + i) for i in range(2)]
    lists = split_events_into_lists(events, 2)
    assert len(lists[0]) == 5  # t=1 events stay together
    assert len(lists[1]) == 2


def test_split_rejects_nonpositive(eb):
    with pytest.raises(DeltaError):
        split_events_into_lists(make_events(eb, 3), 0)
