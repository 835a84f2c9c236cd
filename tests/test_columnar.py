"""Tests for the columnar eventlist layout, the one stored form of an
eventlist: packed-layout round-trips (all-int rows and id-table rows),
lazy zero-copy decode, truncation, query parity against the event log
for int and string ids, byte-identity of all-int rows, and the format
gate."""

import hashlib
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.deltas.columnar import (
    ColumnarEventList,
    check_packable,
    decoded_events_total,
    pack_eventlist,
)
from repro.errors import EventError
from repro.graph.events import Event, EventBuilder, EventKind
from repro.graph.static import Graph
from repro.index.tgi import TGI, TGIConfig
from repro.index.tgi.layout import TAG_VERSION_CHAIN
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.codec import decode, encode
from repro.storage import PersistenceError, load_index, save_index
from repro.workloads.citation import CitationConfig, generate_citation_events
from tests.helpers import (
    MIXED_IDS,
    assert_history_equivalent,
    random_history,
    relabelled,
)


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


def build_tgi(events, checkpoints=0, m=4, ps=32, l=150, span=1200):
    tgi = TGI(TGIConfig(
        events_per_timespan=span,
        eventlist_size=l,
        micro_partition_size=ps,
        checkpoint_entries=checkpoints,
        cluster=ClusterConfig(num_machines=m),
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


def packed(ts, te, events):
    """The row a writer stores for the run ``(ts, te, events)``."""
    return ColumnarEventList(pack_eventlist(ts, te, events))


def test_columnar_equals_eventlist_both_directions():
    events = random_history(steps=200, seed=7)
    te = events[-1].time
    cel = packed(0, te, events)
    assert cel.events == tuple(events) and (cel.ts, cel.te) == (0, te)
    # a second row over the same run (here: a repacked whole window)
    other = ColumnarEventList(cel.filter_by_time(0, te).packed_bytes())
    assert cel == other
    assert other == cel
    assert cel != packed(1, te, events[1:])
    assert cel != tuple(events)  # a row equals rows only


def test_iteration_matches_the_packed_events():
    events = random_history(steps=150, seed=3)
    cel = packed(0, events[-1].time, events)
    assert list(cel) == events
    assert len(cel) == len(events)


# -- laziness ----------------------------------------------------------------

def test_filter_by_time_is_lazy_and_matches():
    events = random_history(steps=250, seed=5)
    te = events[-1].time
    before = decoded_events_total()
    cel = packed(0, te, events)
    for ts_, te_ in [(0, te), (te // 3, 2 * te // 3), (te, te), (-5, 0),
                     (te // 2, te)]:
        sub = cel.filter_by_time(ts_, te_)
        assert decoded_events_total() == before  # nothing materialized
        want = [ev for ev in events if ts_ < ev.time <= te_]
        assert len(sub) == len(want)
        # a non-empty window clips the scope to the row's, an empty one
        # keeps the asked scope
        scope = (max(ts_, 0), min(te_, te)) if want else (ts_, te_)
        assert (sub.ts, sub.te) == scope
    assert decoded_events_total() == before
    # materializing a narrowed window decodes only that window
    mid = cel.filter_by_time(te // 3, 2 * te // 3)
    assert mid.events == tuple(
        ev for ev in events if te // 3 < ev.time <= 2 * te // 3
    )
    assert decoded_events_total() == before + len(mid)


def test_filter_by_id_matches_and_counts():
    events = random_history(steps=200, seed=9)
    te = events[-1].time
    cel = packed(0, te, events)
    before = decoded_events_total()
    got = cel.filter_by_id((2, 5))
    want = tuple(
        ev for ev in events if ev.node in (2, 5) or ev.other in (2, 5)
    )
    assert isinstance(got, ColumnarEventList)
    assert (got.ts, got.te) == (0, te)
    assert got.events == want
    # the matching rows materialize once: the filtered row hands out
    # the very objects it was packed from
    assert decoded_events_total() == before + len(want)


# -- codec tags and fallback --------------------------------------------------

def test_codec_tags_roundtrip():
    events = random_history(steps=120, seed=1)
    el = packed(0, events[-1].time, events)
    enc = encode(el)
    assert enc.payload[:1] == b"C"
    assert decode(enc.payload).events == tuple(events)
    encz = encode(el, compress=True)
    assert encz.payload[:1] == b"c"
    assert decode(encz.payload).events == tuple(events)
    # re-encoding a decoded row keeps the packed bytes verbatim
    cel = decode(enc.payload)
    assert encode(cel).payload == enc.payload


def test_codec_empty_payload_rejected():
    with pytest.raises(ValueError, match="empty payload"):
        decode(b"")


def test_codec_unknown_name_rejected():
    # one stored form per row kind: there is no codec to name
    with pytest.raises(TypeError):
        encode(packed(0, 1, ()), codec="pickle")


def test_unpackable_eventlist_falls_back_to_pickle():
    """String ids — which used to fall back to pickle — pack as a
    version-2 row with an id table and decode to the same events."""
    eb = EventBuilder()
    events = (eb.node_add(1, "alice"), eb.edge_add(2, "alice", "bob"))
    body = pack_eventlist(0, 2, events)
    assert body[0] == 2
    enc = encode(ColumnarEventList(body))
    assert enc.payload[:1] == b"C"
    got = decode(enc.payload)
    assert isinstance(got, ColumnarEventList) and got.events == events


def test_bool_values_fall_back_to_pickle():
    """A ``bool`` id is not an int row (it would come back 0/1): it goes
    to the id table and decodes as a ``bool``."""
    eb = EventBuilder()
    events = (eb.node_add(1, True), eb.edge_add(2, True, 1))
    body = pack_eventlist(0, 2, events)
    assert body[0] == 2
    got = ColumnarEventList(body)
    assert got.events == events
    assert [type(ev.node) for ev in got.events] == [bool, bool]
    assert type(got.events[1].other) is int


@pytest.mark.parametrize("field", ["time", "seq"])
@pytest.mark.parametrize("bad", [2 ** 63, 1.5, True])
def test_non_int64_times_and_seqs_raise(field, bad):
    # the events are the writer's check, the scope the packer's
    ev = Event(1, 1, EventKind.NODE_ADD, 1)
    object.__setattr__(ev, field, bad)
    with pytest.raises(EventError):
        check_packable((ev,))
    with pytest.raises(EventError):
        pack_eventlist(0, bad, ())


def test_no_endpoint_sentinel_is_not_an_endpoint_id():
    eb = EventBuilder()
    for u, other in ((1, -(2 ** 63)), ("a", -(2 ** 63)), ("a", -2.0 ** 63)):
        with pytest.raises(EventError, match="sentinel"):
            check_packable((eb.edge_add(1, u, other),))
    # as a node id it is just an int
    row = ColumnarEventList(pack_eventlist(0, 1, (eb.node_add(1, -(2 ** 63)),)))
    assert row.events[0].node == -(2 ** 63)


def test_string_id_cluster_packs_every_eventlist_and_delta(dataset1_events):
    tgi = build_tgi(relabelled(dataset1_events[:400]), m=1)
    tags = {
        (k[2][0] == TAG_VERSION_CHAIN, v.payload[:1])
        for machine in tgi.cluster.machines
        for k, v in machine.items()
    }
    # only version chains pickle
    assert tags == {(False, b"C"), (False, b"D"), (True, b"R")}


def test_columnar_cluster_stores_columnar_eventlists(dataset1_events):
    tgi = build_tgi(dataset1_events[:400], m=1)
    tags = {
        v.payload[:1]
        for machine in tgi.cluster.machines
        for _k, v in machine.items()
    }
    # eventlists and micro-deltas packed; version chains stay pickled
    assert tags == {b"C", b"D", b"R"}


# -- truncated rows -------------------------------------------------------------

def three_event_list(ids=(1, 2)):
    eb = EventBuilder()
    u, v = ids
    return packed(0, 3, (
        eb.node_add(1, u), eb.node_add(2, v), eb.edge_add(3, u, v),
    ))


@pytest.mark.parametrize("cut", [10, 116, 85])
def test_truncated_eventlist_row_raises_value_error(cut):
    # a 3-event row without a side-table: tag + 25-byte header + 33 * 3
    payload = encode(three_event_list()).payload
    assert len(payload) == 125
    with pytest.raises(ValueError, match="truncated columnar eventlist"):
        decode(payload[:cut])


def test_truncated_id_table_row_raises_value_error():
    payload = encode(three_event_list(("a", "b"))).payload
    for cut in (1, 10, 25, 85, 116, 125):
        with pytest.raises(ValueError, match="truncated columnar eventlist"):
            decode(payload[:cut])


def test_unknown_layout_version_rejected():
    payload = encode(three_event_list()).payload
    with pytest.raises(ValueError, match="version byte 9"):
        decode(payload[:1] + bytes([9]) + payload[2:])


# -- id-table rows ---------------------------------------------------------------

@st.composite
def mixed_lists(draw):
    """A sorted run of node, edge and attribute events over mixed ids,
    as ``(te, events)`` for a row scoped ``(0, te]``."""
    eb = EventBuilder()
    events = []
    for t in range(1, draw(st.integers(0, 12)) + 1):
        u, v = draw(MIXED_IDS), draw(MIXED_IDS)
        kind = draw(st.integers(0, 4))
        if kind == 0:
            events.append(eb.node_add(t, u, draw(st.one_of(
                st.none(), st.just({"w": t})))))
        elif kind == 1:
            events.append(eb.edge_add(t, u, v))
        elif kind == 2:
            events.append(eb.edge_delete(t, u, v))
        elif kind == 3:
            events.append(eb.node_attr_set(t, u, "color", v))
        else:
            events.append(eb.node_delete(t, u))
    return len(events) + 1, tuple(events)


def assert_same_events(got, want):
    """Equal events whose ids keep their types (``True`` is no ``1``)."""
    got, want = list(got), list(want)
    assert got == want
    for a, b in zip(got, want):
        assert type(a.node) is type(b.node)
        assert type(a.other) is type(b.other)


@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("checksum", [False, True])
@given(drawn=mixed_lists(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_mixed_id_rows_round_trip(drawn, data, compress, checksum):
    last, events = drawn
    enc = encode(packed(0, last, events), compress=compress, checksum=checksum)
    row = decode(enc.payload)
    assert isinstance(row, ColumnarEventList)
    assert (row.ts, row.te) == (0, last)
    assert_same_events(row.events, events)
    # windows and a repacked window
    ts = data.draw(st.integers(0, last))
    te = data.draw(st.integers(ts, last))
    window = decode(enc.payload).filter_by_time(ts, te)
    want = [ev for ev in events if ts < ev.time <= te]
    assert_same_events(window.events, want)
    assert_same_events(ColumnarEventList(window.packed_bytes()).events, want)
    # the id scans, against the events touching each id (set membership,
    # as the paper's FilterById; a self-loop is listed once)
    ids = [ev.node for ev in events][:3]
    keep = set(ids)
    row = decode(enc.payload)
    assert_same_events(
        row.filter_by_id(ids).events,
        [ev for ev in events if ev.node in keep or ev.other in keep],
    )
    grouped = row.group_by_id(ids)
    want_groups = grouped_by_id(events, ids)
    assert grouped.keys() == want_groups.keys()
    for node, evs in want_groups.items():
        assert_same_events(grouped[node], evs)


def test_mixed_id_rows_replay_like_the_log():
    eb = EventBuilder()
    # (edge endpoints compare: a graph orders an undirected edge's ids)
    events = [
        eb.node_add(1, "a", {"w": 1}), eb.node_add(2, True),
        eb.node_add(3, 2 ** 64), eb.node_add(4, 1.5), eb.node_add(4, "b"),
        eb.edge_add(5, "a", "b", {"since": 5}), eb.edge_add(6, 2 ** 64, 1.5),
        eb.edge_add(6, True, 1.5),
        eb.node_attr_set(7, True, "color", "red"),
        eb.edge_delete(8, 2 ** 64, 1.5), eb.node_delete(9, 2 ** 64),
    ]
    row = decode(encode(packed(0, 9, events)).payload)
    for t in range(10):
        got = Graph()
        got.apply_columnar([row], until=t)
        assert got == Graph.replay(events, until=t)


# -- windows ---------------------------------------------------------------------

def grouped_by_id(events, ids):
    """``group_by_id``'s answer from the events alone."""
    keep = set(ids)
    out = {}
    for ev in events:
        u, v = ev.node, ev.other
        if u in keep:
            out.setdefault(u, []).append(ev)
        if v is not None and v != u and v in keep:
            out.setdefault(v, []).append(ev)
    return out


@given(
    events=st.builds(
        lambda steps, seed, strings: (
            relabelled if strings else list
        )(random_history(steps=steps, seed=seed, edge_attr_churn=True)),
        st.integers(0, 80), st.integers(0, 10**6), st.booleans(),
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_windows_equal_rows_parsed_from_their_own_events(events, data):
    """A window (and a window of a window) equals a row parsed afresh
    from the events it covers — scope, events, id scans — on int and
    string ids alike, though it parsed nothing itself."""
    last = events[-1].time + 1 if events else 1
    times = st.integers(-1, last + 1)
    row = decode(encode(packed(0, last, events)).payload)
    scope, view = (0, last), row
    for _ in range(2):
        ts = data.draw(times)
        te = data.draw(st.integers(ts, last + 1))
        view = view.filter_by_time(ts, te)
        want = [
            ev for ev in events
            if scope[0] < ev.time <= scope[1] and ts < ev.time <= te
        ]
        # an empty window keeps the asked scope, a non-empty one clamps
        scope = (max(ts, scope[0]), min(te, scope[1])) if want else (ts, te)
        fresh = packed(*scope, want)
        assert (view.ts, view.te) == scope and view == fresh
        assert_same_events(view.events, want)
        ids = data.draw(st.lists(
            st.sampled_from([ev.node for ev in events] or [0]), max_size=4
        ))
        for got in (view.group_by_id(ids), fresh.group_by_id(ids)):
            want_groups = grouped_by_id(want, ids)
            assert got.keys() == want_groups.keys()
            for node, evs in want_groups.items():
                assert_same_events(got[node], evs)


def test_a_string_id_window_unpickles_nothing(monkeypatch):
    """The id table and side-table a string-id row unpickled on open are
    the window's too: narrowing, materializing and grouping a window
    unpickle nothing again."""
    events = relabelled(random_history(steps=120, seed=5))
    te = events[-1].time
    row = decode(encode(packed(0, te, events)).payload)
    loads = []
    real = pickle.loads
    monkeypatch.setattr(
        "repro.deltas.columnar.pickle.loads",
        lambda *args: loads.append(1) or real(*args),
    )
    window = row.filter_by_time(te // 4, 3 * te // 4).filter_by_time(0, te)
    want = [ev for ev in events if te // 4 < ev.time <= 3 * te // 4]
    assert window.events == tuple(want) and len(want) > 10
    ids = [want[0].node, want[-1].node]
    assert window.group_by_id(ids) == grouped_by_id(want, ids)
    assert loads == []


def test_packed_bytes_repacks_window():
    events = random_history(steps=180, seed=17)
    te = events[-1].time
    cel = ColumnarEventList(pack_eventlist(0, te, tuple(events)))
    window = cel.filter_by_time(te // 4, 3 * te // 4)
    repacked = ColumnarEventList(window.packed_bytes())
    assert repacked == window


def test_packed_bytes_hands_back_a_whole_bytes_row_uncopied():
    events = random_history(steps=60, seed=5)
    payload = pack_eventlist(0, events[-1].time, tuple(events))
    assert type(payload) is bytes
    assert ColumnarEventList(payload).packed_bytes() is payload
    # a view of part of a larger buffer, or of a mutable one, is copied
    for data in (memoryview(payload + b"tail")[:len(payload)],
                 bytearray(payload)):
        row = ColumnarEventList(data).packed_bytes()
        assert type(row) is bytes and row == payload
        assert row is not payload


# -- query parity: int ids and id-table rows against the event log -----------
# (the ``*_across_codecs`` tests hold both row layouts to the log)

@pytest.fixture(scope="module")
def parity(dataset1_events):
    """``(events, index, name)`` for the history with int ids and renamed
    to strings (id-table rows); ``name`` spells an int id in its ids."""
    strings = relabelled(dataset1_events)
    return [
        (dataset1_events, build_tgi(dataset1_events), lambda n: n),
        (strings, build_tgi(strings), lambda n: f"n{n}"),
    ]


@pytest.fixture(scope="module")
def tgi_columnar(dataset1_events):
    return build_tgi(dataset1_events)


def test_snapshot_parity_across_codecs(parity):
    for events, tgi, _name in parity:
        te = events[-1].time
        for t in (te // 4, te // 2, te):
            assert tgi.get_snapshot(t) == Graph.replay(events, until=t)


def test_khop_parity_across_codecs(parity):
    for events, tgi, name in parity:
        t = events[-1].time
        final = Graph.replay(events)
        for center in map(name, (5, 42, 117)):
            assert tgi.get_khop(center, t, k=2) == final.khop_subgraph(
                center, 2
            )


def test_node_history_parity_across_codecs(parity):
    for events, tgi, name in parity:
        te = events[-1].time
        for node in map(name, (3, 50, 250)):
            assert_history_equivalent(tgi, events, node, 1, te)


def test_string_id_index_saves_and_loads(tmp_path, parity):
    events, tgi, _name = parity[1]
    te = events[-1].time
    want = tgi.get_node_history("n50", 1, te)
    path = tmp_path / "strings.hgs"
    save_index(tgi, path)
    loaded = load_index(path)
    assert loaded.get_snapshot(te) == Graph.replay(events)
    assert loaded.get_node_history("n50", 1, te) == want


def test_int_id_rows_are_byte_identical_to_format_14():
    """All-int rows kept their layout when id tables came in: the
    payloads of one fixed build hash to what storage format 14 wrote."""
    history = random_history(
        steps=900, seed=33, edge_attr_churn=True, bare_edges=True
    )
    tgi = TGI(TGIConfig(
        events_per_timespan=300, eventlist_size=40, micro_partition_size=8,
        cluster=ClusterConfig(num_machines=4, replication=1),
    ))
    tgi.build(history)
    payloads = sorted(
        v.payload for machine in tgi.cluster.machines
        for _k, v in machine.items()
    )
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(len(payload).to_bytes(8, "big"))
        digest.update(payload)
    assert len(payloads) == 1590
    assert digest.hexdigest() == (
        "3d2c17276e97a757186a5d30ebf65d7aa3e34daddcb7d1c6a06469acc973e627"
    )


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
