"""Tests for packed micro-deltas (codec tags D/d), the one stored form of
a delta: round trips over the layout's edge cases, id-table rows for ids
the int columns cannot hold, the one-pass delta sum, and member-identity
of every query kind with the event log, on int and string ids."""

import pickle
import sys
import threading
from functools import reduce

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import GraphSession
from repro.api import QueryRequest
from repro.deltas.base import Delta, StaticEdge, StaticNode
from repro.deltas.columnar import PackedNodes, pack_delta, unpack_delta
from repro.errors import CorruptPayload, PartitionUnavailable
from repro.faults import CrashWindow, FaultSchedule, inject_faults
from repro.graph.static import Graph
from repro.index.tgi import TGI, TGIConfig
from repro.index.tgi.layout import sid_of_pid
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.codec import decode, encode
from repro.kvstore.degrade import partition_label
from repro.kvstore.resilience import ResiliencePolicy
from repro.storage import load_index, save_index
from tests.helpers import (
    MIXED_IDS,
    per_edge_graph,
    random_history,
    relabelled,
)
from tests.oracle import ground_truth_history

#: Ids on both sides of the int32 limits, so some rows need the wide
#: column and some do not.
NARROW_IDS = st.integers(-40, 40)
WIDE_IDS = st.one_of(
    NARROW_IDS,
    st.integers(2**31 - 3, 2**31 + 3),
    st.integers(-(2**31) - 3, -(2**31) + 3),
)
ATTRS = st.dictionaries(
    st.sampled_from(["color", "w", "label"]),
    st.one_of(st.integers(-5, 5), st.text(max_size=3), st.none()),
    max_size=2,
)


@st.composite
def deltas(draw, ids=WIDE_IDS):
    """Node-centric deltas: static nodes with and without attributes,
    edge lists that may name absent nodes, and explicit static edges
    with and without attributes."""
    comps = [
        StaticNode.make(n, draw(st.lists(ids, max_size=4)), draw(ATTRS))
        for n in draw(st.lists(ids, max_size=8, unique=True))
    ]
    for _ in range(draw(st.integers(0, 3))):
        comps.append(StaticEdge.make(
            draw(ids), draw(ids), draw(ATTRS), draw(st.booleans())
        ))
    return Delta(comps)


def packed_body(payload: bytes) -> bytes:
    """The tagged value inside an optional checksum envelope."""
    return payload[5:] if payload[:1] == b"K" else payload


# -- round trips -------------------------------------------------------------

@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("checksum", [False, True])
@given(delta=deltas())
@settings(max_examples=60, deadline=None)
def test_roundtrip_equals_original(delta, compress, checksum):
    enc = encode(delta, compress=compress, checksum=checksum)
    assert packed_body(enc.payload)[:1] == (b"d" if compress else b"D")
    assert enc.stored_size == len(enc.payload)
    got = decode(enc.payload)
    assert len(got) == len(delta)
    assert got.size == delta.size
    assert got.to_graph() == delta.to_graph()
    assert got == delta
    # a decoded (still packed) row stores again as an equal row
    again = encode(got, compress=compress, checksum=checksum)
    assert decode(again.payload) == delta


def test_empty_delta_roundtrip():
    enc = encode(Delta())
    assert enc.payload[:1] == b"D"
    got = decode(enc.payload)
    assert got == Delta() and len(got) == 0
    assert got.to_graph() == Graph()


@given(delta=deltas(ids=NARROW_IDS))
@settings(max_examples=30, deadline=None)
def test_narrow_rows_use_int32(delta):
    body = pack_delta(delta)
    assert body[1] == 4


def test_ids_straddling_int32_force_the_wide_column():
    for big in (2**31, -(2**31) - 1):
        as_id = Delta([StaticNode.make(big, [1])])
        as_nbr = Delta([StaticNode.make(1, [big])])
        for delta in (as_id, as_nbr):
            body = pack_delta(delta)
            assert body[1] == 8
            assert unpack_delta(body) == delta
    # the limits themselves still fit the narrow column
    edge = Delta([StaticNode.make(2**31 - 1, [-(2**31)])])
    assert pack_delta(edge)[1] == 4
    assert unpack_delta(pack_delta(edge)) == edge


def test_wide_rows_are_wider_narrow_rows_no_larger_than_pickle():
    narrow = Delta([StaticNode.make(n, range(n + 1, n + 9)) for n in range(64)])
    wide = Delta([
        StaticNode.make(n + 2**40, range(n + 1, n + 9)) for n in range(64)
    ])
    assert len(pack_delta(narrow)) < len(pack_delta(wide))
    packed = encode(narrow)
    pickled = pickle.dumps(narrow, protocol=pickle.HIGHEST_PROTOCOL)
    assert packed.stored_size < len(pickled)


@pytest.mark.parametrize("delta", [
    Delta([StaticNode.make("alice", ["bob"])]),          # non-int id
    Delta([StaticNode.make(1, ["bob"])]),                # non-int neighbour
    Delta([StaticNode.make(2**63, [1])]),                # beyond int64
    Delta([StaticNode.make(1, [-(2**63) - 1])]),         # beyond int64
    Delta([StaticNode.make(True, [2])]),                 # bool is not an id
    Delta([StaticNode.make(1.0, [2])]),                  # float
], ids=["str-id", "str-nbr", "big-id", "big-nbr", "bool", "float"])
@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("checksum", [False, True])
def test_unpackable_deltas_fall_back_to_pickle(delta, compress, checksum):
    """Deltas the int columns cannot hold — they fell back to pickle
    before rows carried id tables — pack as version-2 rows and decode
    with their ids' types."""
    assert pack_delta(delta)[0] == 2
    enc = encode(delta, compress=compress, checksum=checksum)
    assert packed_body(enc.payload)[:1] == (b"d" if compress else b"D")
    got = decode(enc.payload)
    assert got == delta
    assert typed(got) == typed(delta)


def typed(delta):
    """A delta's nodes and edges with every id paired with its type:
    equal only if the ids kept their types (``True`` is no ``1``)."""
    def t(x):
        return (type(x), x)

    return (
        {t(n): ({t(x) for x in c.E}, c.A)
         for n, c in delta.static_nodes().items()},
        {(t(e.u), t(e.v)): (e.directed, e.A)
         for e in delta.static_edges().values()},
    )


@st.composite
def mixed_deltas(draw):
    """:func:`deltas` over mixed ids; explicit edges are directed (an
    undirected edge orders its endpoints, and mixed ids do not order)."""
    comps = [
        StaticNode.make(n, draw(st.lists(MIXED_IDS, max_size=4)), draw(ATTRS))
        for n in draw(st.lists(MIXED_IDS, max_size=6, unique_by=repr))
    ]
    for _ in range(draw(st.integers(0, 2))):
        comps.append(StaticEdge.make(
            draw(MIXED_IDS), draw(MIXED_IDS), draw(ATTRS), True
        ))
    return Delta(comps)


@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("checksum", [False, True])
@given(delta=mixed_deltas(), scope=st.sets(MIXED_IDS, max_size=4))
@settings(max_examples=40, deadline=None)
def test_mixed_id_rows_round_trip(delta, scope, compress, checksum):
    enc = encode(delta, compress=compress, checksum=checksum)
    got = decode(enc.payload)
    assert got == delta and typed(got) == typed(delta)
    assert len(got) == len(delta) and got.size == delta.size
    assert got.static_nodes(scope) == delta.static_nodes(scope)
    assert got.to_graph(True) == delta.to_graph(True)
    # a decoded row stores again as an equal row
    again = decode(encode(got, compress=compress, checksum=checksum).payload)
    assert typed(again) == typed(delta)


def test_malformed_packed_rows_rejected():
    body = pack_delta(Delta([StaticNode.make(1, [2, 3])]))
    with pytest.raises(ValueError, match="truncated"):
        unpack_delta(body[:-3])
    with pytest.raises(ValueError, match="unsupported micro-delta layout"):
        unpack_delta(bytes([9]) + body[1:])
    with pytest.raises(ValueError, match="unsupported micro-delta layout"):
        unpack_delta(body[:1] + bytes([2]) + body[2:])


def test_corrupted_packed_row_raises_corrupt_payload():
    delta = Delta([StaticNode.make(n, [n + 1], {"w": n}) for n in range(8)])
    for compress in (False, True):
        enc = encode(delta, compress=compress, checksum=True)
        assert packed_body(enc.payload)[:1] in (b"D", b"d")
        middle = len(enc.payload) // 2
        flipped = (
            enc.payload[:middle]
            + bytes([enc.payload[middle] ^ 0x01])
            + enc.payload[middle + 1:]
        )
        with pytest.raises(CorruptPayload):
            decode(flipped)
        assert decode(enc.payload) == delta


# -- materialization ------------------------------------------------------------

def per_edge_delta_graph(delta, directed):
    """``Delta.to_graph`` as it was before the bulk loader: explicit
    static edges first, then the nodes' edge lists, one by one."""
    nodes = [c for c in delta if isinstance(c, StaticNode)]
    return per_edge_graph(
        {c.I: c.A for c in nodes},
        {c.I: c.E for c in nodes},
        directed=directed,
        explicit_edges=[
            (c.u, c.v, c.attrs) for c in delta if isinstance(c, StaticEdge)
        ],
    )


@given(delta=deltas(ids=NARROW_IDS), directed=st.booleans())
@settings(max_examples=150, deadline=None)
def test_to_graph_matches_per_edge_materialization(delta, directed):
    want = per_edge_delta_graph(delta, directed)
    packed = decode(encode(delta).payload)
    for got in (delta.to_graph(directed), packed.to_graph(directed)):
        assert got == want
        assert all(got.neighbors(n) == want.neighbors(n) for n in want.nodes())


# -- decoded rows: columns until someone asks for StaticNodes ----------------

def test_decoded_row_thaws_once():
    delta = Delta([
        StaticNode.make(1, [2, 3], {"color": "red"}),
        StaticNode.make(2, [1]),
        StaticEdge.make(1, 2, {"w": 4}),
    ])
    row = decode(encode(delta).payload)
    # none of these needs a StaticNode
    assert len(row) == 3 and row.size == 6
    assert sorted(row.node_ids()) == [1, 2]
    assert row.to_graph() == delta.to_graph()
    assert Delta.sum([row]).to_graph() == delta.to_graph()
    thawed = row.static_nodes()
    assert thawed == {c.I: c for c in delta if isinstance(c, StaticNode)}
    assert row.static_nodes() is thawed  # memoised: a cache hit re-thaws nothing
    assert row.to_graph() == delta.to_graph()  # and still materializes


@given(delta=deltas(), scopes=st.lists(st.sets(WIDE_IDS, max_size=6), max_size=4))
@settings(max_examples=80, deadline=None)
def test_scoped_reads_thaw_each_node_once(delta, scopes):
    """A scoped read returns exactly the in-scope nodes, and the node
    objects it built are the ones every later read returns."""
    want = {c.I: c for c in delta if isinstance(c, StaticNode)}
    row = decode(encode(delta).payload)
    seen = {}
    for scope in scopes:
        got = row.static_nodes(scope)
        assert got == {n: c for n, c in want.items() if n in scope}
        for n, node in got.items():
            assert seen.setdefault(n, node) is node
        assert len(row) == len(delta)  # part-thawed rows keep their size
    # a part-thawed row answers every full read, keeping the nodes it
    # already thawed
    assert row.size == delta.size
    assert row.to_graph() == delta.to_graph()
    assert Delta.sum([row]).to_graph() == delta.to_graph()
    full = row.static_nodes()
    assert full == want and row == delta
    assert all(full[n] is node for n, node in seen.items())


def test_full_reads_decode_the_row_in_one_bulk_pass(monkeypatch):
    """Every full read decodes a packed row once, in one bulk pass over
    its columns — never node by node — and drops the packed view."""
    delta = Delta(
        [StaticNode.make(n, [n + 1, n + 2], {"w": n}) for n in range(16)]
        + [StaticEdge.make(1, 2, {"w": 3})]
    )
    payload = encode(delta).payload
    bulk = []
    columns = PackedNodes.columns
    monkeypatch.setattr(
        PackedNodes, "columns", lambda self: bulk.append(1) or columns(self)
    )

    def by_slot(self, ids, into):
        raise AssertionError("a full read thawed node by node")

    monkeypatch.setattr(PackedNodes, "thaw", by_slot)
    covering = set(range(-3, 40))
    for read in (
        lambda row: row.columns(),
        lambda row: row.to_graph(),
        lambda row: Delta.sum([row]).to_graph(),
        lambda row: row.size,
        lambda row: row.static_nodes(),
        lambda row: row.static_nodes(covering),
    ):
        row = decode(payload)
        bulk.clear()
        read(row)
        read(row)
        assert len(bulk) == 1
        assert row._packed is None
        assert row == delta


def test_threads_sharing_one_packed_row_read_it_whole():
    """Scoped, full and bulk reads racing on one shared (cached) row —
    more threads than cores, a tiny switch interval — all see the whole
    row: no reader takes a part-thawed node map for the complete one."""
    delta = Delta(
        [StaticNode.make(n, [n + 1, (7 * n) % 40], {"w": n}) for n in range(40)]
        + [StaticEdge.make(1, 2, {"w": 1})]
    )
    payload = encode(delta).payload
    want = {c.I: c for c in delta if isinstance(c, StaticNode)}
    graph = delta.to_graph()
    errors = []

    def reader(row, barrier, i):
        try:
            barrier.wait(timeout=10)
            for j in range(24):
                kind = (i + j) % 4
                if kind == 0:
                    scope = {i, i + 9, j, 99}
                    got = row.static_nodes(scope)
                    assert got == {n: want[n] for n in scope if n in want}
                elif kind == 1:
                    assert len(row) == len(delta) and row.size == delta.size
                elif kind == 2:
                    assert row.to_graph() == graph
                else:
                    assert row.static_nodes() == want
        except Exception as exc:  # reported below, with the others
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(15):
            row = decode(payload)
            barrier = threading.Barrier(6)
            threads = [
                threading.Thread(target=reader, args=(row, barrier, i))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[:3]


def test_saved_index_drops_part_thawed_cached_rows(tmp_path, history):
    """An index whose delta cache holds rows a history plan part-thawed
    saves without them, loads with an empty cache and answers as
    before."""
    tgi = TGI(TGIConfig(
        events_per_timespan=300,
        eventlist_size=40,
        micro_partition_size=8,
        delta_cache_entries=4096,
        cluster=ClusterConfig(num_machines=4, replication=1),
    ))
    tgi.build(history)
    te = history[-1].time
    nodes = alive_centers(history, te // 4, count=3)
    want = tgi.get_node_histories(nodes, te // 4, te)
    cached = [row.value for row in tgi.delta_cache._rows.values()]
    assert any(
        isinstance(v, Delta) and v._packed is not None and v._nodes
        for v in cached
    )
    path = tmp_path / "index.hgs"
    save_index(tgi, path)
    loaded = load_index(path)
    assert len(loaded.delta_cache) == 0
    assert loaded.get_node_histories(nodes, te // 4, te) == want
    assert loaded.get_snapshot(te) == Graph.replay(history, until=te)


# -- the one-pass sum ---------------------------------------------------------

@given(st.lists(deltas(ids=NARROW_IDS), max_size=5), st.data())
@settings(max_examples=60, deadline=None)
def test_sum_equals_left_fold_of_plus(parts, data):
    want = reduce(lambda a, b: a + b, parts, Delta())
    # any mix of thawed operands and still-packed decoded rows
    operands = [
        decode(encode(d).payload)
        if data.draw(st.booleans()) else d
        for d in parts
    ]
    got = Delta.sum(operands)
    assert got == want
    assert len(got) == len(want)
    assert got.to_graph() == want.to_graph()
    # the operands are left as they were
    assert all(a == b for a, b in zip(operands, parts))


# -- member identity with the event log, for int and string ids ---------------
# (the ``*_across_codecs`` tests hold both row layouts — int columns and
# id tables — to the log)

def build_tgi(events, checksums=False, compress=False):
    tgi = TGI(TGIConfig(
        events_per_timespan=300,
        eventlist_size=40,
        micro_partition_size=8,
        cluster=ClusterConfig(
            num_machines=4, replication=1, checksums=checksums,
            compress=compress,
        ),
    ))
    tgi.build(events)
    return tgi


@pytest.fixture(scope="module")
def history():
    return random_history(steps=900, seed=33)


@pytest.fixture(scope="module")
def pair(history):
    """``(events, index, name)`` for the history with int ids and renamed
    to strings (id-table rows); ``name`` spells an int id in its ids."""
    strings = relabelled(history)
    return [
        (history, build_tgi(history), lambda n: n),
        (strings, build_tgi(strings), lambda n: f"n{n}"),
    ]


def stored_tags(tgi):
    return {
        v.payload[:1]
        for machine in tgi.cluster.machines for _k, v in machine.items()
    }


def test_columnar_build_packs_its_micro_deltas(pair):
    for _events, tgi, _name in pair:
        assert stored_tags(tgi) == {b"C", b"D", b"R"}
        # packed rows are smaller than the objects they hold, pickled
        packed = pickled = 0
        for machine in tgi.cluster.machines:
            for _k, enc in machine.items():
                row = decode(enc.payload)
                if isinstance(row, Delta):
                    value = Delta(list(row))
                elif enc.payload[:1] == b"C":
                    value = (row.ts, row.te, row.events)
                else:
                    continue
                packed += enc.stored_size
                pickled += len(
                    pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                )
        assert packed < pickled


def probe_times(history):
    te = history[-1].time
    return [te // 5, te // 2, (4 * te) // 5, te]


def alive_centers(history, t, count=4):
    nodes = sorted(
        Graph.replay(history, until=t).nodes(),
        key=lambda n: (n * 7919) % 101,
    )
    return nodes[:count]


def test_snapshots_identical_across_codecs(history, pair):
    for events, tgi, _name in pair:
        session = GraphSession.from_index(tgi)
        for t in probe_times(history):
            want = Graph.replay(events, until=t)
            assert session.at(t).snapshot().value == want


@pytest.mark.parametrize("algorithm", ["khop", "snapshot-first"])
def test_khops_identical_across_codecs(history, pair, algorithm):
    for events, tgi, name in pair:
        session = GraphSession.from_index(tgi)
        for t in probe_times(history)[1:]:
            whole = Graph.replay(events, until=t)
            for center in map(name, alive_centers(history, t)):
                want = whole.khop_subgraph(center, 2)
                got = session.at(t).khop(center, k=2, algorithm=algorithm)
                assert got.value == want


def test_node_histories_identical_across_codecs(history, pair):
    te = history[-1].time
    for events, tgi, name in pair:
        session = GraphSession.from_index(tgi)
        for node in map(name, alive_centers(history, te, count=6)):
            got = session.between(te // 4, te).node_history(node).value
            initial, changes = ground_truth_history(events, node, te // 4, te)
            assert got.initial == initial
            assert list(got.events) == changes


def test_batched_khops_identical_across_codecs(history, pair):
    t = probe_times(history)[2]
    for events, tgi, name in pair:
        whole = Graph.replay(events, until=t)
        centers = [name(c) for c in alive_centers(history, t, count=5)]
        requests = [
            QueryRequest(kind="khop", t=t, nodes=(c,), k=2, single=True)
            for c in centers + centers[:2]  # overlapping members
        ]
        results = GraphSession.from_index(tgi).execute_batch(requests)
        for request, result in zip(requests, results):
            assert result.value == whole.khop_subgraph(request.nodes[0], 2)


def test_degraded_snapshot_identical_across_codecs(history):
    """With one machine gone for good, ``allow_partial`` returns the
    same partial graph whatever bytes the rows are stored as: raw, or
    zlib-compressed inside a CRC32 envelope."""
    t = history[-1].time
    partial = []
    for encoding in ({}, {"compress": True, "checksums": True}):
        tgi = build_tgi(history, **encoding)
        session = GraphSession.from_index(tgi)
        whole = session.at(t).snapshot().value
        # placement does not depend on the row bytes: the same victim
        # serves part of this snapshot in both builds (a direct index
        # call returns the request records the session does not report)
        _, direct = tgi.retrieve_snapshot(t)
        victim = min(rec.server for rec in direct.requests)
        inject_faults(tgi.cluster, FaultSchedule(
            crashes=(CrashWindow(victim, 0.0),),
        ))
        tgi.cluster.enable_resilience(
            ResiliencePolicy(max_attempts=2, hedge=False)
        )
        result = session.execute(
            QueryRequest(kind="snapshot", t=t, allow_partial=True)
        )
        assert result.degraded is not None and result.degraded["keys"] > 0
        assert 0 < result.value.num_nodes < whole.num_nodes
        partial.append(result)
    assert partial[0].value == partial[1].value
    assert partial[0].degraded == partial[1].degraded


def test_degraded_history_keeps_other_timespans_rows(history):
    """A partition is a ``(tsid, pid)``: losing ``ts0:p2`` drops node 77's
    events stored there, not those in ``ts1:p2`` on a live machine."""
    tgi = build_tgi(history)
    spans = tgi._spans
    assert spans[0].pid_of(77) == spans[1].pid_of(77) == 2
    victim = tgi.cluster.replicas_for(
        (0, sid_of_pid(2, tgi.config.placement_groups))
    )[0]
    ts, te = history[0].time, history[-1].time
    session = GraphSession.from_index(tgi)
    whole = session.between(ts, te).node_history(77).value
    inject_faults(tgi.cluster, FaultSchedule(
        crashes=(CrashWindow(victim, 0.0),),
    ))
    result = session.execute(QueryRequest(
        kind="node_histories", nodes=(77,), ts=ts, te=te, single=True,
        allow_partial=True,
    ))
    assert result.degraded["partitions"] == ["ts0:p2"]
    kept = [ev for ev in whole.events if ev.time >= spans[1].t_start]
    assert kept and len(kept) < len(whole.events)
    assert list(result.value.events) == kept


def test_corrupted_stored_delta_row_surfaces_typed(history):
    tgi = build_tgi(history, checksums=True)
    t = history[-1].time
    want, stats = tgi.retrieve_snapshot(t)
    # a packed delta row this snapshot reads, on the machine serving it
    machine, key, enc = next(
        (m, rec.key, m.get(rec.key))
        for rec in stats.requests
        for m in [tgi.cluster.machines[rec.server]]
        if m.get(rec.key).payload[5:6] == b"D"
    )
    flipped = enc.payload[:-1] + bytes([enc.payload[-1] ^ 0xFF])
    machine.put(key, type(enc)(
        flipped, enc.raw_size, enc.stored_size, enc.compressed
    ))
    # the codec catches the flip; the fetch settles the row's key like
    # any other it could not serve, naming its partition
    with pytest.raises(CorruptPayload):
        decode(flipped)
    with pytest.raises(PartitionUnavailable) as err:
        tgi.get_snapshot(t)
    assert partition_label(key) in err.value.partitions
    machine.put(key, enc)
    assert tgi.get_snapshot(t) == want
