"""Unit tests for the Temporal Graph Index (config, build, retrieval)."""

import pytest

from repro.errors import EventError, IndexError_, TimeRangeError
from repro.graph.events import Event, EventBuilder, EventKind
from repro.graph.static import Graph
from repro.index.tgi import TGI, PartitioningStrategy, TGIConfig
from repro.kvstore.cluster import ClusterConfig
from tests.helpers import assert_history_equivalent, random_history


@pytest.fixture(scope="module")
def events():
    return random_history(steps=400, seed=21)


def make_tgi(events, **overrides):
    defaults = dict(
        events_per_timespan=150,
        eventlist_size=25,
        micro_partition_size=10,
    )
    defaults.update(overrides)
    idx = TGI(TGIConfig(**defaults))
    idx.build(events)
    return idx


@pytest.fixture(scope="module")
def tgi(events):
    return make_tgi(events)


@pytest.fixture(scope="module")
def tgi_mincut(events):
    return make_tgi(
        events,
        partitioning=PartitioningStrategy.MINCUT,
        replicate_boundary=True,
    )


# -- config ------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(IndexError_):
        TGIConfig(events_per_timespan=0)
    with pytest.raises(IndexError_):
        TGIConfig(eventlist_size=0)
    with pytest.raises(IndexError_):
        TGIConfig(eventlist_size=100, events_per_timespan=50)
    with pytest.raises(IndexError_):
        TGIConfig(arity=1)
    with pytest.raises(IndexError_):
        TGIConfig(micro_partition_size=0)
    with pytest.raises(IndexError_):
        TGIConfig(placement_groups=0)


# -- build -------------------------------------------------------------------

def test_build_creates_multiple_timespans(tgi):
    assert tgi.num_timespans >= 2


def test_build_rejects_empty():
    with pytest.raises(TimeRangeError):
        TGI().build([])


def test_build_twice_rejected(tgi, events):
    with pytest.raises(IndexError_):
        tgi.build(events)


# -- snapshots -----------------------------------------------------------------

@pytest.mark.parametrize("t", [1, 77, 150, 151, 263, 400])
def test_snapshot_equals_replay(tgi, events, t):
    assert tgi.get_snapshot(t) == Graph.replay(events, until=t)


@pytest.mark.parametrize("t", [1, 77, 150, 151, 263, 400])
def test_snapshot_equals_replay_mincut(tgi_mincut, events, t):
    assert tgi_mincut.get_snapshot(t) == Graph.replay(events, until=t)


def test_snapshot_parallel_clients_same_result(tgi, events):
    g1 = tgi.get_snapshot(263, clients=1)
    g8 = tgi.get_snapshot(263, clients=8)
    assert g1 == g8


def test_snapshot_out_of_range(tgi):
    with pytest.raises(TimeRangeError):
        tgi.get_snapshot(100_000)
    with pytest.raises(TimeRangeError):
        tgi.get_snapshot(-5)


# -- node history -----------------------------------------------------------

def test_node_history_equals_replay(tgi, events):
    final = Graph.replay(events)
    for node in sorted(final.nodes())[:10]:
        assert_history_equivalent(tgi, events, node, 80, 350)


def test_node_history_equals_replay_mincut(tgi_mincut, events):
    final = Graph.replay(events)
    for node in sorted(final.nodes())[:10]:
        assert_history_equivalent(tgi_mincut, events, node, 80, 350)


def test_node_history_crossing_timespans(tgi, events):
    # range spans multiple timespans (150 events per span)
    final = Graph.replay(events)
    node = sorted(final.nodes())[0]
    assert_history_equivalent(tgi, events, node, 10, 395)


def test_node_state_of_dead_node(tgi, events):
    # find a node deleted before the end
    from repro.graph.events import EventKind

    deleted = [ev.node for ev in events if ev.kind == EventKind.NODE_DELETE]
    if not deleted:
        pytest.skip("history contains no deletions")
    node = deleted[0]
    t_del = next(ev.time for ev in events if
                 ev.kind == EventKind.NODE_DELETE and ev.node == node)
    assert tgi.get_node_state(node, t_del) is None


def test_unknown_node_history_is_empty(tgi):
    nh = tgi.get_node_history(999_999, 80, 350)
    assert nh.initial is None and nh.events == ()


# -- node history cost profile ----------------------------------------------

def test_node_history_fetches_far_less_than_snapshot(tgi, events):
    final = Graph.replay(events)
    node = sorted(final.nodes())[0]
    snap_bytes = tgi.retrieve_snapshot(350)[1].bytes_read
    hist_bytes = tgi.retrieve_node_history(node, 80, 350)[1].bytes_read
    assert hist_bytes < snap_bytes / 3


# -- k-hop -----------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_khop_equals_ground_truth(tgi, events, k):
    final = Graph.replay(events)
    for node in sorted(final.nodes())[:8]:
        assert tgi.get_khop(node, 400, k=k) == final.khop_subgraph(node, k)


@pytest.mark.parametrize("k", [1, 2])
def test_khop_equals_ground_truth_with_replication(tgi_mincut, events, k):
    final = Graph.replay(events)
    for node in sorted(final.nodes())[:8]:
        assert tgi_mincut.get_khop(node, 400, k=k) == final.khop_subgraph(
            node, k
        )


def test_khop_midspan_time(tgi, events):
    g = Graph.replay(events, until=263)
    node = sorted(g.nodes())[0]
    assert tgi.get_khop(node, 263, k=1) == g.khop_subgraph(node, 1)


def test_khop_algorithm3_matches_algorithm4(tgi, events):
    final = Graph.replay(events)
    node = sorted(final.nodes())[3]
    assert tgi.get_khop(node, 400, k=2) == tgi.get_khop_snapshot_first(
        node, 400, k=2
    )


def test_khop_dead_node_raises(tgi, events):
    from repro.graph.events import EventKind

    deleted = [ev for ev in events if ev.kind == EventKind.NODE_DELETE]
    if not deleted:
        pytest.skip("history contains no deletions")
    ev = deleted[0]
    with pytest.raises(IndexError_):
        tgi.get_khop(ev.node, ev.time, k=1)


# -- neighborhood evolution (Algorithm 5) --------------------------------------

def test_khop_history_center_and_neighbors(tgi, events):
    final = Graph.replay(events)
    node = max(final.nodes(), key=final.degree)
    nh = tgi.get_khop_history(node, 80, 350)
    assert nh.center.node == node
    neighbor_ids = {h.node for h in nh.neighbors}
    # every neighbor at t=350 within [80, 350] must be covered
    state = tgi.get_node_state(node, 350)
    if state is not None:
        assert state.E <= neighbor_ids


# -- update ------------------------------------------------------------------

def test_update_appends_history(events):
    idx = make_tgi(events[:300])
    idx.update(events[300:])
    for t in (100, 299, 350, 400):
        assert idx.get_snapshot(t) == Graph.replay(events, until=t)


def test_update_preserves_node_histories(events):
    idx = make_tgi(events[:300])
    idx.update(events[300:])
    final = Graph.replay(events)
    for node in sorted(final.nodes())[:6]:
        assert_history_equivalent(idx, events, node, 80, 390)


def test_update_rejects_overlapping_times(events):
    idx = make_tgi(events)
    with pytest.raises(IndexError_):
        idx.update(events[:10])


def _four_nodes():
    eb = EventBuilder()
    events = [eb.node_add(t, n) for t, n in ((1, 1), (1, 2), (2, 3), (2, 4))]
    return eb, events


def test_failed_update_changes_nothing():
    """A batch whose second timespan is out of seq order is refused
    before its first timespan is written, so a correct retry answers as
    if the bad batch had never been offered."""
    eb, events = _four_nodes()
    idx = make_tgi(events, events_per_timespan=4, eventlist_size=2)
    bad = [
        eb.node_add(3, 5), eb.node_add(3, 6),
        eb.edge_add(4, 5, 6), eb.edge_add(4, 1, 5),
        Event(5, 11, EventKind.EDGE_ADD, 2, other=5),
        Event(5, 10, EventKind.EDGE_ADD, 3, other=6),
    ]
    with pytest.raises(EventError, match="out of order"):
        idx.update(bad)
    assert idx.num_timespans == 1
    assert idx.get_snapshot(2) == Graph.replay(events)
    with pytest.raises(TimeRangeError):
        idx.get_snapshot(3)

    retry = [Event(6, 12, EventKind.NODE_ATTR_SET, 1, key="x", value=1)]
    idx.update(retry)
    want = Graph.replay([*events, *retry])
    assert sorted(want.nodes()) == [1, 2, 3, 4]
    assert idx.get_snapshot(6) == want
    assert idx.get_node_history(1, 2, 6).events == tuple(retry)


@pytest.mark.parametrize("phase", ["build", "update"])
def test_times_going_backwards_raise_event_error(phase):
    """Times that go backwards are the same typed error as seq disorder,
    whether they come to build() or to update(), and nothing is
    written."""
    eb, events = _four_nodes()
    later = [eb.node_add(4, 5), eb.node_add(5, 6), eb.node_add(3, 7)]
    if phase == "build":
        idx = TGI(TGIConfig(events_per_timespan=2, eventlist_size=1))
        with pytest.raises(EventError, match="out of order"):
            idx.build([*events, *later])
        assert idx.num_timespans == 0
        assert not any(len(m) for m in idx.cluster.machines)
    else:
        idx = make_tgi(events, events_per_timespan=2, eventlist_size=1)
        spans = idx.num_timespans
        with pytest.raises(EventError, match="out of order"):
            idx.update(later)
        assert idx.num_timespans == spans
        assert idx.get_snapshot(2) == Graph.replay(events)


def test_update_empty_is_noop(tgi):
    before = tgi.num_timespans
    tgi.update([])
    assert tgi.num_timespans == before


# -- configuration degenerations ---------------------------------------------

def test_single_timespan_single_partition_degenerates_to_deltagraph(events):
    """With one span, huge micro-partitions and no replication, TGI is
    structurally a DeltaGraph (checked via equal retrieval results and a
    single-partition layout)."""
    idx = make_tgi(
        events,
        events_per_timespan=len(events) + 1,
        micro_partition_size=10_000,
    )
    assert idx.num_timespans == 1
    span = idx._spans[0]
    assert span.num_pids == 1
    assert idx.get_snapshot(400) == Graph.replay(events, until=400)


def test_cluster_shape_affects_no_results(events):
    big = make_tgi(events, cluster=ClusterConfig(num_machines=6, replication=2))
    small = make_tgi(events, cluster=ClusterConfig(num_machines=1))
    assert big.get_snapshot(400) == small.get_snapshot(400)


def test_compression_preserves_results(events):
    comp = make_tgi(events, cluster=ClusterConfig(compress=True))
    plain = make_tgi(events)
    assert comp.get_snapshot(400) == plain.get_snapshot(400)
    assert comp.cluster.stored_bytes < plain.cluster.stored_bytes
