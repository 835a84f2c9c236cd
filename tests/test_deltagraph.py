"""Unit tests for the DeltaGraph baseline index."""

import pytest

from repro.errors import TimeRangeError
from repro.graph.static import Graph
from repro.index.deltagraph import DeltaGraphIndex
from tests.helpers import assert_history_equivalent, random_history


@pytest.fixture(scope="module")
def events():
    return random_history(steps=260, seed=4)


@pytest.fixture(scope="module")
def index(events):
    idx = DeltaGraphIndex(eventlist_size=30, arity=2)
    idx.build(events)
    return idx


def test_snapshot_equals_replay(index, events):
    for t in (1, 40, 130, 260):
        assert index.get_snapshot(t) == Graph.replay(events, until=t)


def test_snapshot_between_checkpoints(index, events):
    # pick a time strictly inside an eventlist
    assert index.get_snapshot(37) == Graph.replay(events, until=37)


def test_node_history_equals_replay(index, events):
    final = Graph.replay(events)
    for node in sorted(final.nodes())[:8]:
        assert_history_equivalent(index, events, node, 50, 230)


def test_snapshot_cost_is_path_not_full_history(index, events):
    fetched = index.retrieve_snapshot(260)[1].num_requests
    # path of height h plus trailing eventlists; far below total row count
    assert fetched <= index.tree_height + 3


def test_tree_height_positive(index):
    assert index.tree_height >= 1


def test_out_of_range(index):
    with pytest.raises(TimeRangeError):
        index.get_snapshot(10_000)
    with pytest.raises(TimeRangeError):
        index.get_snapshot(-100)


def test_empty_build_rejected():
    with pytest.raises(TimeRangeError):
        DeltaGraphIndex().build([])


def test_higher_arity_reduces_height(events):
    deep = DeltaGraphIndex(eventlist_size=30, arity=2)
    deep.build(events)
    shallow = DeltaGraphIndex(eventlist_size=30, arity=4)
    shallow.build(events)
    assert shallow.tree_height <= deep.tree_height
