"""Copy at the writer, not at the reader: checkpoint payloads are shared
between readers and immutable once admitted.

What is held here is the invariant — no admitted payload ever changes,
every value a caller gets is its own — and the copy *counts* that make
the rule worth having; the mechanism (who calls ``copy``) is free."""

import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.index.tgi.states as states_module
from repro import GraphSession, TGI, TGIConfig, open_graph
from repro.api import QueryRequest
from repro.errors import IndexError_
from repro.exec import shared_caches
from repro.graph.static import Graph
from repro.index.tgi.states import _state_key, near_seed_candidate
from repro.kvstore.cluster import ClusterConfig
from repro.storage import load_index, save_index
from repro.workloads.citation import CitationConfig, generate_citation_events
from tests.helpers import (
    audit_checkpoints,
    counted,
    graph_parts,
    random_history,
    small_tgi,
)
from tests.oracle import oracle_parts

ROGUE = 10**6


# -- (a) cache audit -----------------------------------------------------------

def vandalize(value):
    """Mutate everything mutable in a query's value, the way a caller
    that owns it may."""
    if isinstance(value, list):
        for item in value:
            vandalize(item)
    if not isinstance(value, Graph):
        return  # node states and histories are immutable
    for n in list(value.nodes())[:3]:
        value.node_attrs(n)["rogue"] = True
        value.neighbors(n).add(ROGUE)
    edges, attributed = list(value.edges()), value.attributed_edges()
    bare = [eid for eid in edges if eid not in attributed]
    for eid in edges[:3] + bare[:3]:  # a bare edge's map is a first write
        value.edge_attrs(*eid)["rogue"] = True
        value.edge_attrs(*eid).pop("w", None)
        assert value.attributed_edges()[eid]["rogue"] is True
    value.add_node(ROGUE, {"rogue": True})


def comparable(value):
    if isinstance(value, list):
        return [comparable(item) for item in value]
    return graph_parts(value) if isinstance(value, Graph) else value


def cold_answer(twin, request, algorithm):
    """``request`` answered by direct calls on a checkpoint-less index
    (k-hops by the algorithm that ran)."""
    t = request.t
    if request.kind == "snapshot":
        return twin.get_snapshot(t)
    if request.kind == "node_state":
        return twin.get_node_state(request.nodes[0], t)
    if request.kind == "node_histories":
        return twin.get_node_histories(
            list(request.nodes), request.ts, request.te
        )
    get_khop = (
        twin.get_khop_snapshot_first if algorithm == "snapshot-first"
        else twin.get_khop
    )
    if request.single:
        return get_khop(request.nodes[0], t, k=request.k)
    out = []
    for node in request.nodes:
        try:
            out.append(get_khop(node, t, k=request.k))
        except IndexError_:
            out.append(None)
    return out


@st.composite
def read_mixes(draw):
    """A history with edge-attribute churn, every other edge added bare,
    and a mix of reads over a few hot times (repeats are exact-warm) and
    the times just after them (near-warm, advanced from the state
    before)."""
    steps = draw(st.integers(min_value=160, max_value=320))
    seed = draw(st.integers(min_value=0, max_value=50))
    events = random_history(
        steps=steps, seed=seed, edge_attr_churn=True, bare_edges=True
    )
    t_min, t_max = events[0].time, events[-1].time
    hot = draw(st.lists(
        st.integers(min_value=t_min + 20, max_value=t_max - 8),
        min_size=2, max_size=3, unique=True,
    ))
    times = st.sampled_from(hot).flatmap(
        lambda t: st.integers(min_value=t, max_value=t + 6)
    )
    nodes = st.integers(min_value=0, max_value=max(ev.node for ev in events))
    k = st.integers(min_value=1, max_value=2)
    request = st.one_of(
        st.builds(QueryRequest, kind=st.just("snapshot"), t=times),
        st.builds(
            QueryRequest, kind=st.just("khop"), t=times,
            nodes=st.tuples(nodes), k=k, single=st.just(True),
            algorithm=st.sampled_from(["snapshot-first", "khop", "auto"]),
        ),
        st.builds(
            QueryRequest, kind=st.just("khop"), t=times,
            nodes=st.tuples(nodes, nodes), k=k,
            algorithm=st.sampled_from(["snapshot-first", "khop"]),
        ),
        st.builds(
            QueryRequest, kind=st.just("node_state"), t=times,
            nodes=st.tuples(nodes), single=st.just(True),
        ),
        st.builds(
            QueryRequest, kind=st.just("node_histories"),
            ts=times, te=st.just(t_max), nodes=st.tuples(nodes, nodes),
        ),
    )
    ops = draw(st.lists(
        st.one_of(request, st.lists(request, min_size=2, max_size=4)),
        min_size=6, max_size=14,
    ))
    return events, ops


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(read_mixes())
def test_no_admitted_payload_ever_changes(mix):
    events, ops = mix
    tgi = small_tgi(events, checkpoint_entries=48)
    twin = small_tgi(events)
    session = GraphSession.from_index(tgi)
    audited = 0
    for op in ops:
        batch = op if isinstance(op, list) else [op]
        if isinstance(op, list):
            results = session.execute_batch(batch, capture_errors=True)
        else:
            try:
                results = [session.execute(op)]
            except IndexError_:  # dead center
                with pytest.raises(IndexError_):
                    cold_answer(twin, op, op.algorithm)
                results = []
        for request, result in zip(batch, results):
            if result.error is not None:
                with pytest.raises(type(result.error)):
                    cold_answer(twin, request, request.algorithm)
                continue
            assert comparable(result.value) == comparable(
                cold_answer(twin, request, result.stats.algorithm)
            ), request
            vandalize(result.value)
        audited += audit_checkpoints(tgi, twin)
    assert audited > 0


# -- (b) copy counts -----------------------------------------------------------

@pytest.fixture(scope="module")
def citation_events():
    return generate_citation_events(
        CitationConfig(num_nodes=300, citations_per_node=4, seed=42)
    )


def build_tgi(events, **overrides):
    config = dict(
        events_per_timespan=1200, eventlist_size=150,
        micro_partition_size=32,
        cluster=ClusterConfig(num_machines=4),
    )
    config.update(overrides)
    tgi = TGI(TGIConfig(**config))
    tgi.build(events)
    return tgi


def khop(node, t, algorithm, k=2):
    return QueryRequest(
        kind="khop", t=t, nodes=(node,), k=k, single=True,
        algorithm=algorithm,
    )


T_WARM = 900


def near_time(tgi, t):
    """A time shortly after ``t`` that a warm snapshot at ``t`` seeds."""
    span = tgi._span_at(t)
    for t2 in range(t + 1, t + 40):
        if (
            tgi._span_at(t2).tsid == span.tsid
            and near_seed_candidate(tgi, span, None, t2, False) is not None
        ):
            return t2
    raise AssertionError(f"no near-seedable time after t={t}")


@pytest.fixture
def warm(monkeypatch, citation_events):
    """A session with a materialized snapshot at ``T_WARM``, its cold
    twin, and the two copy counters (armed after the warm-up)."""
    tgi = build_tgi(citation_events, checkpoint_entries=64)
    session = GraphSession.from_index(tgi)
    session.at(T_WARM).snapshot()
    copies = counted(monkeypatch, Graph, "copy")
    clones = counted(monkeypatch, states_module, "_clone_state")
    return session, build_tgi(citation_events), copies, clones


def cached_snapshot(tgi, t):
    key = _state_key(tgi._span_at(t).tsid, None, t, False)
    return tgi.checkpoints._entries[key].payload


def test_snapshot_first_khop_on_a_warm_snapshot_copies_nothing(warm):
    session, twin, copies, clones = warm
    result = session.execute(khop(5, T_WARM, "snapshot-first"))
    assert result.stats.checkpoint_hits == 1 and result.stats.requests == 0
    assert (copies[0], clones[0]) == (0, 0)
    assert result.value == twin.get_khop(5, T_WARM, k=2)
    many = session.execute(QueryRequest(
        kind="khop", t=T_WARM, nodes=(5, 7, 11), k=2,
        algorithm="snapshot-first",
    ))
    assert (copies[0], clones[0]) == (0, 0)
    assert many.value == [twin.get_khop(c, T_WARM, k=2) for c in (5, 7, 11)]
    batch = session.execute_batch([
        khop(c, T_WARM, "snapshot-first") for c in (5, 7, 11)
    ])
    assert (copies[0], clones[0]) == (0, 0)
    assert [r.value for r in batch] == many.value


def test_snapshot_first_khop_near_a_warm_snapshot_copies_the_seed_only(warm):
    session, twin, copies, clones = warm
    tgi = session.tgi
    t2 = near_time(tgi, T_WARM)
    result = session.execute(khop(5, t2, "snapshot-first"))
    assert result.stats.checkpoint_near_hits == 1
    assert (copies[0], clones[0]) == (1, 0)
    assert result.value == twin.get_khop(5, t2, k=2)
    # the advanced graph was moved into the cache, not dropped: t2 is warm
    again = session.execute(khop(5, t2, "snapshot-first"))
    assert again.stats.checkpoint_hits == 1 and again.stats.requests == 0
    assert (copies[0], clones[0]) == (1, 0)
    assert graph_parts(cached_snapshot(tgi, t2)) == graph_parts(
        twin.get_snapshot(t2)
    )


def test_snapshot_first_khop_on_a_cold_time_moves_its_graph(warm):
    session, twin, copies, clones = warm
    t_cold = 400  # before every warm snapshot: nothing to seed from
    result = session.execute(khop(5, t_cold, "snapshot-first"))
    assert result.stats.checkpoint_misses == 1
    assert (copies[0], clones[0]) == (0, 0)
    assert result.value == twin.get_khop(5, t_cold, k=2)
    assert graph_parts(cached_snapshot(session.tgi, t_cold)) == graph_parts(
        twin.get_snapshot(t_cold)
    )


def test_snapshot_result_is_the_callers_own_copy(warm):
    session, twin, copies, clones = warm
    result = session.at(T_WARM).snapshot()
    assert result.stats.checkpoint_hits == 1
    assert (copies[0], clones[0]) == (1, 0)
    cached = cached_snapshot(session.tgi, T_WARM)
    assert result.value is not cached
    result.value.add_node(ROGUE)
    assert not cached.has_node(ROGUE)
    # a replayed snapshot stays with the caller too; the cache gets a copy
    t_cold = 400
    fresh = session.at(t_cold).snapshot()
    assert (copies[0], clones[0]) == (2, 0)
    assert fresh.value is not cached_snapshot(session.tgi, t_cold)
    assert fresh.value == twin.get_snapshot(t_cold)


def test_a_first_write_to_a_bare_edge_reaches_no_payload(warm):
    """Citation edges carry no attributes, so every map a caller gets is
    made on request — on the caller's graph, never on the cached one."""
    session, twin, _copies, _clones = warm
    reads = [
        QueryRequest(kind="snapshot", t=T_WARM),
        khop(5, T_WARM, "snapshot-first"),
        khop(5, T_WARM, "khop"),
        khop(5, T_WARM, "khop"),  # over the partition states just admitted
    ]
    for request in reads:
        value = session.execute(request).value
        edges = list(value.edges())
        assert edges and not value.attributed_edges()
        for eid in edges:
            value.edge_attrs(*eid)["rogue"] = True
        assert set(value.attributed_edges()) == set(edges)
        assert not cached_snapshot(session.tgi, T_WARM).attributed_edges()
        assert audit_checkpoints(session.tgi, twin) > 0
        assert not session.execute(request).value.attributed_edges()


def test_reads_over_warm_partitions_clone_nothing(warm):
    session, twin, copies, clones = warm
    request = khop(5, T_WARM, "khop")
    session.execute(request)  # replays and admits the partition states
    result = session.execute(request)
    assert result.stats.checkpoint_hits > 0 and result.stats.requests == 0
    assert (copies[0], clones[0]) == (0, 0)
    assert result.value == twin.get_khop(5, T_WARM, k=2)
    state = session.at(T_WARM).node_state(5)
    assert state.stats.checkpoint_hits == 1
    assert (copies[0], clones[0]) == (0, 0)
    assert state.value == twin.get_node_state(5, T_WARM)
    many = session.execute(QueryRequest(
        kind="khop", t=T_WARM, nodes=(5, 7), k=2, algorithm="khop",
    ))
    assert (copies[0], clones[0]) == (0, 0)
    assert many.value == [twin.get_khop(c, T_WARM, k=2) for c in (5, 7)]


def test_near_seeded_partition_clones_its_seed_only(warm):
    session, twin, copies, clones = warm
    session.execute(khop(5, T_WARM, "khop", k=1))
    assert clones[0] == 0
    result = session.execute(khop(5, T_WARM + 3, "khop", k=1))
    # one clone per near-seeded partition — and none for anything else
    assert clones[0] == result.stats.checkpoint_near_hits > 0
    assert copies[0] == 0
    assert result.value == twin.get_khop(5, T_WARM + 3, k=1)


def test_a_near_seeded_snapshot_shares_untouched_nodes_with_its_seed(
    warm, citation_events
):
    """A near-seeded snapshot is a copy of its seed advanced over the
    gap: the nodes no gap event names keep the seed's very containers
    in the cache (an eager copy fails this), and no caller's writes —
    to either time's results — reach either cached graph."""
    session, _twin, copies, _clones = warm
    tgi = session.tgi
    t2 = near_time(tgi, T_WARM)
    first = session.execute(khop(5, t2, "snapshot-first"))
    assert first.stats.checkpoint_near_hits == 1 and copies[0] == 1
    seed, advanced = cached_snapshot(tgi, T_WARM), cached_snapshot(tgi, t2)
    touched = {  # citations only grow: no deletion reaches a neighbour
        n for ev in citation_events if T_WARM < ev.time <= t2
        for n in ev.entities
    }
    untouched = seed._nodes.keys() - touched
    assert touched and untouched
    for n in untouched:
        assert advanced._adj[n] is seed._adj[n]
        assert advanced._nodes[n] is seed._nodes[n]
    reads = [
        QueryRequest(kind="snapshot", t=T_WARM),
        QueryRequest(kind="snapshot", t=t2),
        khop(5, T_WARM, "snapshot-first"),
        khop(5, t2, "snapshot-first"),
    ]
    vandalize(first.value)
    for request in reads:
        vandalize(session.execute(request).value)
    for t in (T_WARM, t2):
        assert graph_parts(session.at(t).snapshot().value) == graph_parts(
            Graph.replay(citation_events, until=t)
        )
        assert graph_parts(
            session.execute(khop(5, t, "snapshot-first")).value
        ) == oracle_parts(citation_events, 5, 2, t)


# -- (d) threads -----------------------------------------------------------------

def test_threads_share_one_warm_snapshot(tmp_path, citation_events):
    path = tmp_path / "shared.hgs"
    save_index(build_tgi(citation_events, checkpoint_entries=64), path)
    twin = build_tgi(citation_events)
    centers = [3, 5, 7, 11, 13, 17]
    with open_graph(path) as session:
        assert shared_caches.peek_slot(session.index_id).checkpoints is (
            session.tgi.checkpoints
        )
        session.at(T_WARM).snapshot()
        near = [near_time(session.tgi, T_WARM) + d for d in (0, 1)]
        want_hoods = [graph_parts(twin.get_khop(c, T_WARM, k=2))
                      for c in centers]
        want_snaps = [graph_parts(twin.get_snapshot(t)) for t in near]
        problems = []
        barrier = threading.Barrier(8)

        def reader(slot):
            barrier.wait()
            for _ in range(25):
                got = session.execute(
                    khop(centers[slot], T_WARM, "snapshot-first")
                ).value
                if graph_parts(got) != want_hoods[slot]:
                    problems.append(("khop", slot))
                vandalize(got)

        def writer(slot):
            barrier.wait()
            for _ in range(12):
                got = session.at(near[slot]).snapshot().value
                if graph_parts(got) != want_snaps[slot]:
                    problems.append(("snapshot", slot))
                vandalize(got)

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(6)
        ] + [threading.Thread(target=writer, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        assert audit_checkpoints(session.tgi, twin) >= 3


# -- (e) persistence ---------------------------------------------------------------

def fifty_warm_queries(session, t_max):
    for i in range(50):
        t = t_max - 7 * (i % 10)
        node = 1 + 2 * (i % 20)
        if i % 3 == 0:
            session.at(t).snapshot()
        elif i % 3 == 1:
            session.at(t).khop(node, k=2)
        else:
            session.at(t).node_state(node)


def test_checkpoints_are_never_persisted(tmp_path, citation_events):
    """Warm reads leave a saved file as it was, and a loaded index
    starts from an empty checkpoint cache sized by its config, counters
    at zero, and serves every read as its twin does."""
    tgi = build_tgi(citation_events, checkpoint_entries=64)
    save_index(tgi, tmp_path / "before.hgs")
    session = GraphSession.from_index(tgi)
    t_max = citation_events[-1].time
    fifty_warm_queries(session, t_max)
    assert len(tgi.checkpoints) > 10
    assert tgi.checkpoints.stats().hits > 0
    save_index(tgi, tmp_path / "after.hgs")
    assert (tmp_path / "after.hgs").read_bytes() == (
        tmp_path / "before.hgs"
    ).read_bytes()
    loaded = load_index(tmp_path / "after.hgs")
    assert len(loaded.checkpoints) == 0
    assert loaded.checkpoints.nearest(("snapshot", 0), t_max) is None
    kept = loaded.checkpoints.stats()
    assert (kept.hits, kept.misses, kept.evictions, kept.max_entries) == (
        0, 0, 0, 64
    )
    twin = build_tgi(citation_events)
    reloaded = GraphSession.from_index(loaded)
    for t in (t_max, t_max - 7, t_max - 7):
        assert reloaded.at(t).snapshot().value == twin.get_snapshot(t)
        assert reloaded.at(t).khop(5, k=2).value == twin.get_khop(5, t, k=2)
    assert loaded.checkpoints.stats().hits > 0
