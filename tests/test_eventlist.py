"""Unit tests for eventlists: chopping a stream into ``(ts, te,
events)`` runs, and the paper's FilterByTime / FilterById on the packed
row a run becomes, each held to the events it was packed from."""

import pytest

from repro.deltas.columnar import ColumnarEventList, pack_eventlist
from repro.deltas.eventlist import split_events_into_lists
from repro.errors import DeltaError, EventError
from repro.graph.events import Event, EventBuilder, EventKind
from repro.index.copylog import CopyLogIndex
from repro.index.deltagraph import DeltaGraphIndex
from repro.index.log import LogIndex
from repro.index.tgi import TGI, TGIConfig


@pytest.fixture
def eb():
    return EventBuilder()


def make_events(eb, n=10):
    events = []
    for i in range(n):
        events.append(eb.node_add(i + 1, i))
    return events


def row(events):
    """The packed row of one run, scoped as a split scopes it."""
    return ColumnarEventList(
        pack_eventlist(events[0].time - 1, events[-1].time, events)
    )


def test_filter_by_time(eb):
    events = make_events(eb, 10)
    sub = row(events).filter_by_time(3, 7)
    assert [e.time for e in sub] == [4, 5, 6, 7]
    assert sub.events == tuple(ev for ev in events if 3 < ev.time <= 7)
    assert (sub.ts, sub.te) == (3, 7)


def test_filter_by_id(eb):
    events = [eb.node_add(1, 0), eb.node_add(2, 1), eb.edge_add(3, 0, 1)]
    sub = row(events).filter_by_id([0])
    assert isinstance(sub, ColumnarEventList)
    assert len(sub) == 2  # node add of 0 plus the edge touching 0
    assert sub.events == (events[0], events[2])
    assert (sub.ts, sub.te) == (0, 3)


def test_split_respects_max_size(eb):
    lists = split_events_into_lists(make_events(eb, 10), 3)
    assert [len(evs) for _ts, _te, evs in lists] == [3, 3, 3, 1]


def test_split_does_not_split_time_points():
    eb2 = EventBuilder()
    events = [eb2.node_add(1, i) for i in range(5)]  # all at t=1
    events += [eb2.node_add(2, 10 + i) for i in range(2)]
    lists = split_events_into_lists(events, 2)
    assert len(lists[0][2]) == 5  # t=1 events stay together
    assert len(lists[1][2]) == 2


def test_build_infers_scope(eb):
    """A split builds each run's scope from its events: ``(first time -
    1, last time]``, over the stream's own events in order (concatenated,
    the runs are the stream)."""
    events = make_events(eb, 7)
    runs = split_events_into_lists(events, 3)
    assert [(ts, te) for ts, te, _evs in runs] == [(0, 3), (3, 6), (6, 7)]
    assert [ev for _ts, _te, evs in runs for ev in evs] == events
    assert split_events_into_lists([], 3) == []


@pytest.mark.parametrize("writer", [LogIndex, CopyLogIndex, DeltaGraphIndex])
def test_writer_refuses_an_unsorted_stream(eb, writer):
    """Each baseline writer checks its stream's order once, before its
    first row: an unsorted one is refused and nothing is stored."""
    events = make_events(eb, 3)
    index = writer(eventlist_size=2)
    with pytest.raises(EventError, match="out of order"):
        index.build(events[::-1])
    assert index.cluster.unique_rows == 0


def tgi_writer(eventlist_size):
    return TGI(TGIConfig(
        events_per_timespan=4, eventlist_size=eventlist_size,
        micro_partition_size=2,
    ))


@pytest.mark.parametrize("bad", [
    Event(2 ** 63, 100, EventKind.NODE_ADD, 50),
    Event(9, 2 ** 63, EventKind.NODE_ADD, 50),
    Event(9, 100, EventKind.EDGE_ADD, 1, other=-(2 ** 63)),
], ids=["time", "seq", "sentinel-endpoint"])
@pytest.mark.parametrize("writer", [
    LogIndex, CopyLogIndex, DeltaGraphIndex, tgi_writer,
], ids=["log", "copylog", "deltagraph", "tgi"])
def test_writer_refuses_an_unpackable_stream(eb, writer, bad):
    """Each writer checks its stream's packability once, before its
    first row: a stream whose last event no row could hold is refused
    and nothing is stored, not even the rows before that event."""
    events = make_events(eb, 6) + [bad]
    index = writer(eventlist_size=2)
    with pytest.raises(EventError):
        index.build(events)
    assert index.cluster.unique_rows == 0


def test_split_rejects_nonpositive(eb):
    with pytest.raises(DeltaError):
        split_events_into_lists(make_events(eb, 3), 0)
