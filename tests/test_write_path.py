"""The incremental write path: version-chain flushes, the carried
checkpoint leaf, pinned stored bytes, and batches refused whole.

``TGI.update`` costs what a batch changes: its first checkpoint snapshot
is the last leaf the previous batch built, version chains get their new
pointers appended, and statistics count the event times the eventlist
routing produced.  None of that may change a stored byte; the golden
values below were computed before any of it existed.
"""

import hashlib
import pickle
import random
from itertools import chain
from typing import List

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.deltas.columnar import pack_delta
from repro.errors import EventError
from repro.graph.events import Event, EventBuilder, EventKind
from repro.index.common import snapshot_delta_of_graph
from repro.index.tgi import TGI, TGIConfig
from repro.index.tgi.config import PartitioningStrategy
from repro.index.tgi.layout import TAG_EVENTLIST, delta_key
from repro.index.tgi.version_chain import ENTRY_WIDTH, VersionChainStore
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.storage import load_index, save_index


# -- version chains over several flushes ----------------------------------------

KEYS = [
    delta_key(tsid, sid, TAG_EVENTLIST, j, pid)
    for tsid, sid, j, pid in [(0, 0, 0, 1), (0, 1, 0, 2), (1, 3, 4, 1), (2, 2, 9, 7)]
]


def entry(t_min, t_max, key):
    tsid, sid, (_tag, j), pid = key
    return (t_min, t_max, tsid, sid, j, pid)


@st.composite
def flushes(draw, later: bool):
    """Batches of ``(node, t_min, t_max, key)`` records, one per flush,
    each in any order.  With ``later`` every batch starts at or after
    everything before it (an update's shape: chains append), else times
    are drawn anywhere (chains merge)."""
    out = []
    for b in range(draw(st.integers(1, 5))):
        base = 100 * b if later else 0
        batch = []
        for _ in range(draw(st.integers(0, 8))):
            lo, hi = sorted(draw(st.lists(
                st.integers(base, base + 60), min_size=2, max_size=2
            )))
            batch.append((
                draw(st.integers(0, 3)), lo, hi, draw(st.sampled_from(KEYS))
            ))
        out.append(batch)
    return out


def _check_flushes(batches):
    store = VersionChainStore(Cluster(ClusterConfig()), 4)
    recorded = {}
    for batch in batches:
        for node, lo, hi, key in batch:
            store.record(node, lo, hi, key)
            recorded.setdefault(node, []).append(entry(lo, hi, key))
        changed = store.flush()
        assert len(changed) == len({node for node, *_ in batch})
        for node, entries in recorded.items():
            want = tuple(chain.from_iterable(
                sorted(entries, key=lambda e: (e[0], e[1]))
            ))
            assert store.chain(node) == want
            assert len(want) == ENTRY_WIDTH * len(entries)


@given(flushes(later=True))
@settings(max_examples=150, deadline=None)
def test_flushes_of_later_entries_append(batches):
    _check_flushes(batches)


@given(flushes(later=False))
@settings(max_examples=150, deadline=None)
def test_flushes_of_earlier_entries_merge(batches):
    _check_flushes(batches)


def test_an_earlier_flush_merges_into_the_chain():
    store = VersionChainStore(Cluster(ClusterConfig()), 4)
    store.record(1, 5, 9, KEYS[0])
    store.record(1, 3, 4, KEYS[1])
    store.flush()
    store.record(1, 9, 9, KEYS[2])  # at the last entry's start: appends
    store.record(1, 6, 7, KEYS[3])  # before it: the chain re-sorts
    store.flush()
    assert store.chain(1) == (
        entry(3, 4, KEYS[1]) + entry(5, 9, KEYS[0])
        + entry(6, 7, KEYS[3]) + entry(9, 9, KEYS[2])
    )


# -- one weighted history, built then updated three times -----------------------

def weighted_history(seed: int = 33, steps: int = 480) -> List[Event]:
    """Leniently applicable events over 24 ids: weighted edges, weights
    re-set on open and closed edges, nodes deleted with live edges."""
    rng = random.Random(seed)
    eb = EventBuilder()
    events: List[Event] = []
    t = 1
    for _ in range(steps):
        t += rng.choice((0, 1, 1, 2))
        a, b = rng.randrange(24), rng.randrange(24)
        kind = rng.choice((0, 1, 2, 2, 2, 2, 3, 4, 5))
        if kind == 0:
            events.append(eb.node_add(t, a, {"v": rng.randrange(4)}))
        elif kind == 1:
            events.append(eb.node_delete(t, a))
        elif kind == 2:
            w = rng.choice((None, {"weight": rng.randrange(1, 6)}))
            events.append(eb.edge_add(t, a, b, w))
        elif kind == 3:
            events.append(eb.edge_delete(t, a, b))
        elif kind == 4:
            events.append(eb.edge_attr_set(t, a, b, "weight", rng.randrange(1, 9)))
        else:
            events.append(eb.node_attr_set(t, a, "v", rng.randrange(4)))
    return events


def batches(events: List[Event]) -> List[List[Event]]:
    """The first half, then three update batches, cut between time
    points (an update starts after the indexed history)."""
    cuts = [len(events) // 2, 5 * len(events) // 8, 3 * len(events) // 4]
    bounds = [0]
    for cut in cuts:
        while events[cut].time == events[cut - 1].time:
            cut += 1
        bounds.append(cut)
    bounds.append(len(events))
    return [events[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def make_tgi(partitioning, replicate) -> TGI:
    return TGI(TGIConfig(
        events_per_timespan=50, eventlist_size=8, micro_partition_size=4,
        partitioning=partitioning, replicate_boundary=replicate,
        cluster=ClusterConfig(num_machines=2, replication=1),
    ))


def payload_digest(tgi: TGI) -> str:
    h = hashlib.sha256()
    payloads = sorted(
        v.payload for m in tgi.cluster.machines for _k, v in m.items()
    )
    for payload in payloads:
        h.update(len(payload).to_bytes(8, "big"))
        h.update(payload)
    return h.hexdigest()


def assert_leaf_is_running_snapshot(tgi: TGI) -> None:
    leaf = tgi._running_leaf
    assert leaf is not None
    want = snapshot_delta_of_graph(tgi._running)
    assert leaf == want
    assert list(leaf.static_nodes()) == list(want.static_nodes())
    assert list(leaf.static_edges()) == list(want.static_edges())
    assert pack_delta(leaf) == pack_delta(want)


MIN, RAN = PartitioningStrategy.MINCUT, PartitioningStrategy.RANDOM


#: span statistics do not depend on boundary replication
RAN_STATS = "f2b92b18ae64da86365ba7a2fc103d59cf3c7faa7306e8306a7d37ceb5f377c4"
MIN_STATS = "878bcbc38afc36d3cdc0bdf68cb5acd753a4cc970fc4967ff1207410d3e22dfd"


@pytest.mark.parametrize("partitioning, replicate, stats_sha, rows_sha", [
    (RAN, False, RAN_STATS,
     "3af1aee71fe94e673bcc46166e65dde25407e8d94dddf21449a38cf00f6e739b"),
    (RAN, True, RAN_STATS,
     "6c36309e505ea49a8636474dc9fd1790de8191113db19235584f15016048cbe8"),
    (MIN, False, MIN_STATS,
     "1e1117c72f04660f59732644a5859f786a6bd16fbbdc8a5e784d3f7f8f3185c6"),
    (MIN, True, MIN_STATS,
     "20276bf28e901f403ce9fc6d7a9ab58071f7eb242c39a0786e0b6821d398a606"),
], ids=["random", "random-replicated", "mincut", "mincut-replicated"])
def test_updates_store_pinned_bytes(partitioning, replicate, stats_sha, rows_sha):
    """Sha256 over the pickled span statistics and over the sorted
    stored payloads after a build and three updates, each checked
    against the carried leaf on the way."""
    build, *updates = batches(weighted_history())
    tgi = make_tgi(partitioning, replicate)
    tgi.build(build)
    assert_leaf_is_running_snapshot(tgi)
    for batch in updates:
        tgi.update(batch)
        assert_leaf_is_running_snapshot(tgi)
    assert tgi.num_timespans > 4
    got = (
        hashlib.sha256(pickle.dumps(tgi.stats.spans)).hexdigest(),
        payload_digest(tgi),
    )
    assert got == (stats_sha, rows_sha)


def test_a_loaded_index_rebuilds_the_leaf_once(tmp_path):
    build, first, *rest = batches(weighted_history())
    kept = make_tgi(RAN, True)
    kept.build(build)
    kept.update(first)
    path = tmp_path / "idx.hgs"
    save_index(kept, path)
    loaded = load_index(path)
    assert loaded._running_leaf is None
    for batch in rest:
        kept.update(batch)
        loaded.update(batch)
        assert_leaf_is_running_snapshot(loaded)
    # equal rows in value, not in bytes: a row whose graph went through
    # pickle can pack its attribute side table differently
    assert _row_keys(loaded) == _row_keys(kept)
    assert all(
        loaded.cluster.get(key) == kept.cluster.get(key)
        for key in _row_keys(kept)
    )
    assert pickle.dumps(loaded.stats.spans) == pickle.dumps(kept.stats.spans)


def _row_keys(tgi: TGI) -> set:
    return {k for m in tgi.cluster.machines for k, _v in m.items()}


def test_a_rejected_update_keeps_the_leaf():
    build, first, *_ = batches(weighted_history())
    tgi = make_tgi(RAN, False)
    tgi.build(build)
    leaf = tgi._running_leaf
    bad = list(first)
    bad[-1], bad[-2] = bad[-2], bad[-1]  # out of (time, seq) order
    with pytest.raises(EventError):
        tgi.update(bad)
    assert tgi._running_leaf is leaf
    assert_leaf_is_running_snapshot(tgi)
    tgi.update(first)
    assert_leaf_is_running_snapshot(tgi)


# -- a batch a row could not store is refused whole -----------------------------

def _small_tgi() -> TGI:
    eb = EventBuilder()
    tgi = TGI(TGIConfig(
        events_per_timespan=4, eventlist_size=2, micro_partition_size=2,
        cluster=ClusterConfig(num_machines=2, replication=1),
    ))
    tgi.build([eb.node_add(t, t) for t in range(1, 5)])
    return tgi


def _state(tgi: TGI):
    return (
        tgi.num_timespans, tgi._t_max, sorted(tgi._running.nodes()),
        dict(tgi._vc._pending), payload_digest(tgi),
        pickle.dumps(tgi.stats.spans),
    )


@pytest.mark.parametrize("bad", [
    Event(2 ** 63, 100, EventKind.NODE_ADD, 50),
    Event(9, 2 ** 63, EventKind.NODE_ADD, 50),
    Event(9, 100, EventKind.EDGE_ADD, 50, other=-(2 ** 63)),
    Event(9, 100, EventKind.EDGE_ADD, 2 ** 70, other=-(2 ** 63)),
], ids=["time", "seq", "sentinel-endpoint", "sentinel-endpoint-id-table"])
def test_a_batch_a_row_cannot_hold_is_refused_whole(bad):
    tgi = _small_tgi()
    before = _state(tgi)
    eb = EventBuilder(start_seq=10)
    batch = [eb.node_add(t, t) for t in range(5, 9)] + [bad]
    with pytest.raises(EventError):
        tgi.update(batch)
    assert _state(tgi) == before
    # a correct retry answers as if the refused batch never came
    tgi.update([Event(9, 200, EventKind.NODE_ADD, 9)])
    assert sorted(tgi.get_snapshot(9).nodes()) == [1, 2, 3, 4, 9]


def test_a_first_event_at_int64_min_is_refused():
    tgi = TGI(TGIConfig(events_per_timespan=4, eventlist_size=2))
    with pytest.raises(EventError, match="scope"):
        tgi.build([Event(-(2 ** 63), 0, EventKind.NODE_ADD, 1)])
    assert tgi.num_timespans == 0 and tgi.cluster.stored_bytes == 0
