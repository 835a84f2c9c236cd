"""Unit + equivalence tests for the Log, Copy, Copy+Log and node-centric
baseline indexes."""

import pytest

from repro.errors import TimeRangeError
from repro.graph.static import Graph
from repro.index.copy import CopyIndex
from repro.index.copylog import CopyLogIndex
from repro.index.log import LogIndex
from repro.index.nodecentric import NodeCentricIndex
from tests.helpers import assert_history_equivalent, random_history


@pytest.fixture(scope="module")
def events():
    return random_history(steps=250, seed=9)


def build(cls, events, **kw):
    idx = cls(**kw)
    idx.build(events)
    return idx


@pytest.mark.parametrize(
    "cls,kw",
    [
        (LogIndex, {"eventlist_size": 40}),
        (CopyIndex, {}),
        (CopyLogIndex, {"eventlist_size": 40, "lists_per_checkpoint": 3}),
        (NodeCentricIndex, {}),
    ],
)
def test_snapshot_equals_replay(events, cls, kw):
    idx = build(cls, events, **kw)
    for t in (1, 50, 125, 250):
        assert idx.get_snapshot(t) == Graph.replay(events, until=t)


@pytest.mark.parametrize(
    "cls,kw,exact_events",
    [
        (LogIndex, {"eventlist_size": 40}, True),
        (CopyIndex, {}, False),
        (CopyLogIndex, {"eventlist_size": 40, "lists_per_checkpoint": 3}, True),
        (NodeCentricIndex, {}, True),
    ],
)
def test_node_history_equals_replay(events, cls, kw, exact_events):
    idx = build(cls, events, **kw)
    final = Graph.replay(events)
    for node in sorted(final.nodes())[:8]:
        assert_history_equivalent(
            idx, events, node, 60, 220, compare_events=exact_events
        )


@pytest.mark.parametrize(
    "cls,kw",
    [
        (LogIndex, {"eventlist_size": 40}),
        (CopyIndex, {}),
        (CopyLogIndex, {"eventlist_size": 40}),
        (NodeCentricIndex, {}),
    ],
)
def test_time_out_of_range_raises(events, cls, kw):
    idx = build(cls, events, **kw)
    with pytest.raises(TimeRangeError):
        idx.get_snapshot(10_000)


def test_log_cost_grows_with_time(events):
    idx = build(LogIndex, events, eventlist_size=20)
    early = idx.retrieve_snapshot(30)[1].num_requests
    late = idx.retrieve_snapshot(250)[1].num_requests
    assert late > early


def test_copy_snapshot_is_single_fetch(events):
    idx = build(CopyIndex, events)
    assert idx.retrieve_snapshot(125)[1].num_requests == 1


def test_copylog_fetches_one_snapshot_plus_lists(events):
    idx = build(CopyLogIndex, events, eventlist_size=40,
                lists_per_checkpoint=3)
    n = idx.retrieve_snapshot(125)[1].num_requests
    assert 1 <= n <= 4  # one checkpoint + at most lists_per_checkpoint lists


def test_nodecentric_history_is_single_row(events):
    idx = build(NodeCentricIndex, events)
    final = Graph.replay(events)
    node = sorted(final.nodes())[0]
    assert idx.retrieve_node_history(node, 60, 220)[1].num_requests == 1


def test_nodecentric_khop_equals_ground_truth(events):
    idx = build(NodeCentricIndex, events)
    final = Graph.replay(events)
    for node in sorted(final.nodes())[:6]:
        for k in (1, 2):
            assert idx.get_khop(node, 250, k=k) == final.khop_subgraph(node, k)


def test_nodecentric_khop_fetches_few_rows(events):
    idx = build(NodeCentricIndex, events)
    final = Graph.replay(events)
    node = max(final.nodes(), key=final.degree)
    _, stats = idx.retrieve_khop(node, 250, k=1)
    assert stats.num_requests <= 1 + final.degree(node)


def test_copy_storage_far_exceeds_log(events):
    log = build(LogIndex, events, eventlist_size=40)
    copy = build(CopyIndex, events)
    assert copy.cluster.stored_bytes > 5 * log.cluster.stored_bytes
