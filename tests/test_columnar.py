"""Tests for the columnar eventlist codec: packed-layout round-trips,
lazy zero-copy decode, pickle fallback, cross-codec query parity, and
the format gate."""

import pickle

import pytest

from repro.deltas.columnar import (
    ColumnarEventList,
    decoded_events_total,
    pack_eventlist,
)
from repro.deltas.eventlist import EventList
from repro.graph.events import Event, EventBuilder, EventKind
from repro.graph.static import Graph
from repro.index.tgi import TGI, TGIConfig
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.codec import decode, encode
from repro.storage import PersistenceError, load_index
from repro.workloads.citation import CitationConfig, generate_citation_events
from tests.helpers import random_history


@pytest.fixture(scope="module")
def dataset1_events():
    """Scaled-down dataset 1 (growing citation network)."""
    return generate_citation_events(
        CitationConfig(num_nodes=300, citations_per_node=4, seed=42)
    )


def all_kind_events():
    """One event of each of the eight kinds, attributes included."""
    eb = EventBuilder()
    return [
        eb.node_add(1, 10, {"color": "red", "w": 3}),
        eb.edge_add(2, 10, 11, {"since": 2}),
        eb.edge_attr_set(3, 10, 11, "since", 3, old=2),
        eb.node_attr_set(4, 11, "color", "blue"),
        eb.edge_attr_del(5, 10, 11, "since", old=3),
        eb.node_attr_del(6, 11, "color", old="blue"),
        eb.edge_delete(7, 10, 11),
        eb.node_delete(8, 10),
    ]


def build_tgi(events, codec="columnar", checkpoints=0,
              m=4, ps=32, l=150, span=1200):
    tgi = TGI(TGIConfig(
        events_per_timespan=span,
        eventlist_size=l,
        micro_partition_size=ps,
        checkpoint_entries=checkpoints,
        cluster=ClusterConfig(num_machines=m, codec=codec),
    ))
    tgi.build(events)
    return tgi


# -- packed layout round-trips ------------------------------------------------

def test_pack_roundtrip_all_kinds_bit_equivalent():
    events = all_kind_events()
    body = pack_eventlist(1, 8, events)
    assert body is not None
    cel = ColumnarEventList(body)
    assert len(cel) == len(events)
    assert cel.ts == 1 and cel.te == 8
    for got, want in zip(cel.events, events):
        # full dataclass equality plus identity-level checks the frozen
        # __eq__ wouldn't distinguish (enum member, int-not-bool)
        assert got == want
        assert got.kind is want.kind
        assert type(got.node) is int
        assert got.other is None or type(got.other) is int


def test_columnar_equals_eventlist_both_directions():
    events = random_history(steps=200, seed=7)
    el = EventList(0, events[-1].time, tuple(events))
    cel = ColumnarEventList(pack_eventlist(el.ts, el.te, el.events))
    assert cel == el
    assert el == cel  # reflected through EventList's NotImplemented


def test_change_points_and_iteration_match():
    events = random_history(steps=150, seed=3)
    el = EventList(0, events[-1].time, tuple(events))
    cel = ColumnarEventList(pack_eventlist(el.ts, el.te, el.events))
    assert cel.change_points() == el.change_points()
    assert list(cel) == list(el.events)


def test_apply_to_matches_replay():
    events = random_history(steps=200, seed=11)
    cel = ColumnarEventList(pack_eventlist(0, events[-1].time, tuple(events)))
    assert cel.apply_to(Graph()) == Graph.replay(events)


# -- laziness ----------------------------------------------------------------

def test_filter_by_time_is_lazy_and_matches():
    events = random_history(steps=250, seed=5)
    te = events[-1].time
    el = EventList(0, te, tuple(events))
    before = decoded_events_total()
    cel = ColumnarEventList(pack_eventlist(0, te, el.events))
    for ts_, te_ in [(0, te), (te // 3, 2 * te // 3), (te, te), (-5, 0),
                     (te // 2, te)]:
        sub = cel.filter_by_time(ts_, te_)
        assert decoded_events_total() == before  # nothing materialized
        want = el.filter_by_time(ts_, te_)
        assert len(sub) == len(want.events)
        assert (sub.ts, sub.te) == (want.ts, want.te)
    assert decoded_events_total() == before
    # materializing a narrowed window decodes only that window
    mid = cel.filter_by_time(te // 3, 2 * te // 3)
    assert mid.events == el.filter_by_time(te // 3, 2 * te // 3).events
    assert decoded_events_total() == before + len(mid)


def test_filter_by_id_matches_and_counts():
    events = random_history(steps=200, seed=9)
    te = events[-1].time
    el = EventList(0, te, tuple(events))
    cel = ColumnarEventList(pack_eventlist(0, te, el.events))
    before = decoded_events_total()
    got = cel.filter_by_id((2, 5))
    want = el.filter_by_id((2, 5))
    assert isinstance(got, EventList)
    assert got == want
    assert decoded_events_total() == before + len(got.events)


# -- codec tags and fallback --------------------------------------------------

def test_codec_tags_roundtrip():
    events = random_history(steps=120, seed=1)
    el = EventList(0, events[-1].time, tuple(events))
    enc = encode(el, codec="columnar")
    assert enc.payload[:1] == b"C"
    assert decode(enc.payload) == el
    encz = encode(el, compress=True, codec="columnar")
    assert encz.payload[:1] == b"c"
    assert decode(encz.payload) == el
    # re-encoding a decoded row keeps the packed bytes verbatim
    cel = decode(enc.payload)
    assert encode(cel, codec="columnar").payload == enc.payload


def test_codec_empty_payload_rejected():
    with pytest.raises(ValueError, match="empty payload"):
        decode(b"")


def test_codec_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown codec"):
        encode(EventList(0, 1, ()), codec="parquet")


def test_unpackable_eventlist_falls_back_to_pickle():
    eb = EventBuilder()
    el = EventList(0, 2, (
        eb.node_add(1, "alice"),
        eb.edge_add(2, "alice", "bob"),
    ))
    assert pack_eventlist(el.ts, el.te, el.events) is None
    enc = encode(el, codec="columnar")
    assert enc.payload[:1] == b"R"
    got = decode(enc.payload)
    assert isinstance(got, EventList) and got == el


def test_bool_values_fall_back_to_pickle():
    # bools are ints to isinstance but must not silently become 0/1 rows
    eb = EventBuilder()
    el = EventList(0, 1, (eb.node_add(1, True),))
    assert pack_eventlist(el.ts, el.te, el.events) is None


def test_pickle_cluster_stores_raw_rows(dataset1_events):
    tgi = build_tgi(dataset1_events[:400], codec="pickle", m=1)
    tags = {
        v.payload[:1]
        for machine in tgi.cluster.machines
        for _k, v in machine.items()
    }
    assert tags == {b"R"}


def test_columnar_cluster_stores_columnar_eventlists(dataset1_events):
    tgi = build_tgi(dataset1_events[:400], m=1)
    tags = {
        v.payload[:1]
        for machine in tgi.cluster.machines
        for _k, v in machine.items()
    }
    # eventlists and micro-deltas packed; version chains stay pickled
    assert tags == {b"C", b"D", b"R"}


# -- pickling the lazy view ---------------------------------------------------

def test_windowed_view_pickle_roundtrip():
    events = random_history(steps=180, seed=13)
    te = events[-1].time
    cel = ColumnarEventList(pack_eventlist(0, te, tuple(events)))
    window = cel.filter_by_time(te // 4, 3 * te // 4)
    copy = pickle.loads(pickle.dumps(window))
    assert copy == window
    assert (copy.ts, copy.te) == (window.ts, window.te)


def test_packed_bytes_repacks_window():
    events = random_history(steps=180, seed=17)
    te = events[-1].time
    cel = ColumnarEventList(pack_eventlist(0, te, tuple(events)))
    window = cel.filter_by_time(te // 4, 3 * te // 4)
    repacked = ColumnarEventList(window.packed_bytes())
    assert repacked == window


# -- cross-codec query parity -------------------------------------------------

@pytest.fixture(scope="module")
def tgi_pickle(dataset1_events):
    return build_tgi(dataset1_events, codec="pickle")


@pytest.fixture(scope="module")
def tgi_columnar(dataset1_events):
    return build_tgi(dataset1_events, codec="columnar")


def test_snapshot_parity_across_codecs(dataset1_events, tgi_pickle,
                                       tgi_columnar):
    te = dataset1_events[-1].time
    for t in (te // 4, te // 2, te):
        want = Graph.replay(dataset1_events, until=t)
        assert tgi_pickle.get_snapshot(t) == want
        assert tgi_columnar.get_snapshot(t) == want


def test_khop_parity_across_codecs(tgi_pickle, tgi_columnar, dataset1_events):
    t = dataset1_events[-1].time
    for center in (5, 42, 117):
        a = tgi_pickle.get_khop(center, t, k=2)
        b = tgi_columnar.get_khop(center, t, k=2)
        assert sorted(a.nodes()) == sorted(b.nodes())
        assert a == b


def test_node_history_parity_across_codecs(tgi_pickle, tgi_columnar,
                                           dataset1_events):
    te = dataset1_events[-1].time
    for node in (3, 50, 250):
        a = tgi_pickle.get_node_history(node, 1, te)
        b = tgi_columnar.get_node_history(node, 1, te)
        assert a.initial == b.initial
        assert list(a.events) == list(b.events)
        assert list(a.versions()) == list(b.versions())


def test_node_history_reports_decoded_events(tgi_columnar, dataset1_events):
    te = dataset1_events[-1].time
    _, stats = tgi_columnar.retrieve_node_history(5, 1, te)
    # version-chain change extraction materializes the matching rows
    assert stats.decoded_events > 0


def test_snapshot_needs_no_event_materialization(dataset1_events):
    tgi = build_tgi(dataset1_events)
    t = dataset1_events[-1].time
    _, stats = tgi.retrieve_snapshot(t)
    # the bulk kernels replay straight off the columns
    assert stats.decoded_events == 0


# -- storage format gate ------------------------------------------------------

@pytest.mark.parametrize("fmt", [5, 8, 9, 10])
def test_older_format_files_rejected(tmp_path, fmt):
    path = tmp_path / "old.hgs"
    path.write_bytes(pickle.dumps({"magic": "hgs-index", "format": fmt,
                                   "class": "TGI", "index": None}))
    with pytest.raises(PersistenceError, match=f"format {fmt}"):
        load_index(path)
