"""Tests for the unified `GraphSession` query facade: fluent builders,
cost-based algorithm selection, the cross-index cache registry, and the
pipelined SoN fetch path."""

import json

import pytest

from repro import GraphSession, TGI, TGIConfig, open_graph, save_index
from repro.api import QueryRequest
from repro.cli import main
from repro.errors import IndexError_, QueryError
from repro.exec import shared_caches
from repro.graph.static import Graph
from repro.kvstore.cluster import ClusterConfig
from repro.spark.rdd import SparkContext
from repro.taf.handler import TGIHandler
from repro.workloads.citation import CitationConfig, generate_citation_events
from repro.workloads.social import SocialConfig, generate_social_events
from tests.helpers import relabelled


@pytest.fixture(scope="module")
def dataset1_events():
    """Scaled-down dataset 1 (growing citation network)."""
    return generate_citation_events(
        CitationConfig(num_nodes=300, citations_per_node=4, seed=42)
    )


def build_tgi(events, m=4, ps=32, l=150, span=1200, replicate=False,
              cache_entries=0):
    tgi = TGI(TGIConfig(
        events_per_timespan=span,
        eventlist_size=l,
        micro_partition_size=ps,
        replicate_boundary=replicate,
        delta_cache_entries=cache_entries,
        cluster=ClusterConfig(num_machines=m),
    ))
    tgi.build(events)
    return tgi


@pytest.fixture(scope="module")
def tgi1(dataset1_events):
    return build_tgi(dataset1_events)


@pytest.fixture(scope="module")
def session(tgi1):
    return GraphSession.from_index(tgi1)


# -- facade end-to-end -------------------------------------------------------

def test_snapshot_matches_replay(session, dataset1_events):
    t = dataset1_events[-1].time // 2
    result = session.at(t).snapshot()
    assert result.value == Graph.replay(dataset1_events, until=t)
    assert result.stats.requests > 0
    assert result.stats.rounds == 1
    assert result.stats.algorithm == "snapshot"
    # snapshot plans are exact: predicted == actual on an uncached session
    assert result.stats.predicted_ms == pytest.approx(result.stats.actual_ms)


def test_node_histories_match_direct_index(session, tgi1, dataset1_events):
    te = dataset1_events[-1].time
    ts = te // 3
    nodes = [1, 5, 9, 5]
    result = session.between(ts, te).node_histories(nodes)
    assert result.value == tgi1.get_node_histories(nodes, ts, te)
    assert result.stats.requests > 0 and result.stats.predicted_ms > 0
    single = session.between(ts, te).node_history(5)
    assert single.value == result.value[1]


def test_node_state_and_khop_history(session, dataset1_events):
    te = dataset1_events[-1].time
    state = session.at(te).node_state(5)
    assert state.value is not None and 5 not in state.value.E
    hood = session.between(te // 2, te).khop_history(5)
    assert hood.value.center.node == 5


def test_son_and_sots_prebound(session, dataset1_events):
    te = dataset1_events[-1].time
    son = session.nodes("id < 40").timeslice(1, te).fetch()
    assert son.materialized
    assert son.fetch_stats is not None and son.fetch_stats.requests > 0
    assert set(son.node_ids()) <= set(range(40))
    sots = session.subgraphs(k=1, predicate="id < 6").Timeslice(1, te).fetch()
    assert {sg.center for sg in sots} <= set(range(6))
    assert sots.fetch_stats is not None


def test_between_view_builds_timesliced_operands(session, dataset1_events):
    te = dataset1_events[-1].time
    son = session.between(te // 2, te).nodes("id < 20").fetch()
    assert son.get_start_time() >= te // 2
    with pytest.raises(QueryError):
        session.between(te, te // 2)


def test_between_view_subgraphs_and_nodes_fetch(session, dataset1_events):
    # the SoN / SoTS terminals of an interval view are the session's
    # own operands, timesliced to the view's interval
    te = dataset1_events[-1].time
    sots = session.between(te // 2, te).subgraphs(1, "id < 6").fetch()
    direct = session.subgraphs(1, "id < 6").Timeslice(te // 2, te).fetch()
    assert all(sg.get_start_time() >= te // 2 for sg in sots)
    assert {sg.center: sg.member_ids() for sg in sots} == {
        sg.center: sg.member_ids() for sg in direct
    }
    assert {sg.center for sg in sots}
    son = session.between(te // 2, te).nodes().fetch()
    assert son.get_start_time() >= te // 2 and son.node_ids()


def test_request_validation():
    with pytest.raises(QueryError):
        QueryRequest(kind="nonsense")
    with pytest.raises(QueryError):
        QueryRequest(kind="khop", t=1, algorithm="quantum")
    with pytest.raises(QueryError):
        QueryRequest(kind="khop", t=1, k=0)


def test_session_rejects_non_tgi():
    from repro.index.log import LogIndex

    with pytest.raises(QueryError):
        GraphSession(LogIndex(eventlist_size=10))


# -- cost-based algorithm selection ------------------------------------------

def test_khop_parity_algorithm3_vs_4(session, dataset1_events):
    """Satellite: Algorithms 3 and 4 return identical k-hop members on
    dataset 1 (the session merely changes the fetch schedule)."""
    te = dataset1_events[-1].time
    for center in (1, 5, 17, 42):
        targeted = session.at(te).khop(center, k=2, algorithm="khop")
        filtered = session.at(te).khop(center, k=2,
                                       algorithm="snapshot-first")
        assert targeted.stats.algorithm == "khop"
        assert filtered.stats.algorithm == "snapshot-first"
        assert sorted(targeted.value.nodes()) == sorted(filtered.value.nodes())
        assert (sorted(targeted.value.edges())
                == sorted(filtered.value.edges()))


def test_auto_prefers_targeted_bound_when_cheaper(dataset1_events):
    """Boundary replication makes Algorithm 4's planned bound tight (a
    couple of partitions), so pricing must pick it over the full
    snapshot."""
    tgi = build_tgi(dataset1_events, replicate=True)
    s = GraphSession.from_index(tgi)
    result = s.at(dataset1_events[-1].time).khop(5, k=1)
    cands = result.stats.candidates
    assert cands["khop"] < cands["snapshot-first"]
    assert result.stats.algorithm == "khop"
    assert result.stats.predicted_ms == cands["khop"]


def test_auto_prefers_snapshot_first_when_cheaper():
    """On a dense graph with tiny partitions and k=3, the Algorithm-4
    bound closes over every partition *plus* its auxiliary rows, so the
    full snapshot prices cheaper and auto must flip."""
    events = generate_social_events(
        SocialConfig(num_nodes=80, num_steps=1500, seed=9)
    )
    tgi = build_tgi(events, ps=8, l=200, span=1600, replicate=True)
    s = GraphSession.from_index(tgi)
    result = s.at(events[-1].time).khop(3, k=3)
    cands = result.stats.candidates
    assert cands["snapshot-first"] < cands["khop"]
    assert result.stats.algorithm == "snapshot-first"
    assert result.stats.predicted_ms == cands["snapshot-first"]
    # selection changes the fetch schedule only, never the answer
    forced = s.at(events[-1].time).khop(3, k=3, algorithm="khop")
    assert sorted(result.value.nodes()) == sorted(forced.value.nodes())


def test_multi_center_khop_candidates(session, dataset1_events):
    te = dataset1_events[-1].time
    result = session.at(te).khop([1, 5, 17], k=2)
    assert set(result.stats.candidates) == {"khop", "snapshot-first"}
    assert len(result.value) == 3
    singles = [session.at(te).khop(c, k=2, algorithm="khop").value
               for c in (1, 5, 17)]
    for got, want in zip(result.value, singles):
        assert sorted(got.nodes()) == sorted(want.nodes())


def test_khop_dead_center_still_raises(session, dataset1_events):
    with pytest.raises(IndexError_):
        session.at(dataset1_events[-1].time).khop(10**6)


def test_khop_accepts_any_center_iterable(session, dataset1_events):
    te = dataset1_events[-1].time
    from_list = session.at(te).khop([1, 5], k=1, algorithm="khop")
    from_gen = session.at(te).khop((c for c in (1, 5)), k=1,
                                   algorithm="khop")
    assert not from_gen.request.single
    for a, b in zip(from_list.value, from_gen.value):
        assert sorted(a.nodes()) == sorted(b.nodes())
    # a string id is one center, not a sequence of one-character ones
    named = build_tgi(relabelled(dataset1_events))
    one = GraphSession.from_index(named).at(te).khop("n5", k=1)
    assert one.request.single and one.request.nodes == ("n5",)
    assert sorted(one.value.nodes()) == sorted(
        named.get_khop("n5", te, k=1).nodes()
    ) == sorted(f"n{n}" for n in from_list.value[1].nodes())


def test_explain_batched_histories_covers_all_nodes(session, dataset1_events):
    te = dataset1_events[-1].time
    nodes = tuple(range(30))
    single = QueryRequest(kind="node_histories", ts=1, te=te,
                          nodes=(0,), single=True)
    batched = QueryRequest(kind="node_histories", ts=1, te=te, nodes=nodes)
    out = session.explain(batched)
    assert "FetchPlan[node_histories(30 nodes" in out
    # the batched estimate prices the union, not just the first node
    def estimated_requests(text):
        line = next(l for l in text.splitlines() if l.startswith("estimate:"))
        return int(line.split()[1])
    assert (estimated_requests(out)
            > estimated_requests(session.explain(single)))


# -- cross-index cache registry ----------------------------------------------

def test_two_sessions_share_warm_rows(tmp_path, dataset1_events):
    """Acceptance: the second session over the same stored index answers
    an identical query from the shared cache — 0 store rounds."""
    shared_caches.clear()
    tgi = build_tgi(dataset1_events, cache_entries=4096)
    path = tmp_path / "d1.hgs"
    save_index(tgi, path)
    t = dataset1_events[-1].time // 2

    first = open_graph(path)
    r1 = first.at(t).snapshot()
    assert r1.stats.rounds == 1 and r1.stats.cache_hits == 0

    second = open_graph(path)
    assert second.cache is first.cache
    r2 = second.at(t).snapshot()
    assert r2.stats.rounds == 0
    assert r2.stats.requests == 0
    assert r2.stats.cache_hits == r1.stats.requests
    assert r2.value == r1.value
    shared_caches.clear()


def test_cache_off_by_default_reproduces_uncached_counts(
    tmp_path, tgi1, dataset1_events
):
    shared_caches.clear()
    path = tmp_path / "plain.hgs"
    save_index(tgi1, path)
    t = dataset1_events[-1].time // 2
    s1 = open_graph(path)
    s2 = open_graph(path)
    assert s1.cache is None and s2.cache is None
    assert len(shared_caches) == 0
    r1, r2 = s1.at(t).snapshot(), s2.at(t).snapshot()
    assert r1.stats.requests == r2.stats.requests > 0


def test_cache_entries_zero_unbinds_previous_cache(dataset1_events):
    """`cache_entries=0` must really mean uncached, even after an earlier
    session bound a cache to the same index object."""
    tgi = build_tgi(dataset1_events)
    t = dataset1_events[-1].time // 2
    warm = GraphSession.from_index(tgi, cache_entries=256)
    warm.at(t).snapshot()
    cold = GraphSession.from_index(tgi, cache_entries=0)
    r = cold.at(t).snapshot()
    assert cold.cache is None
    assert r.stats.cache_hits == 0 and r.stats.requests > 0


def test_rebuilt_index_file_gets_fresh_cache_slot(
    tmp_path, dataset1_events
):
    """Rewriting an index file must not serve the old file's warm rows."""
    import os

    from repro.session import index_id_for

    shared_caches.clear()
    path = tmp_path / "evolving.hgs"
    save_index(build_tgi(dataset1_events, cache_entries=512), path)
    id1 = index_id_for(path)
    open_graph(path).at(dataset1_events[-1].time // 2).snapshot()
    save_index(build_tgi(dataset1_events[: len(dataset1_events) // 2],
                         cache_entries=512), path)
    os.utime(path, ns=(0, 0))  # force a distinct mtime fingerprint
    assert index_id_for(path) != id1
    s2 = open_graph(path)
    r2 = s2.at(dataset1_events[len(dataset1_events) // 4].time).snapshot()
    assert r2.stats.cache_hits == 0 and r2.stats.rounds == 1
    shared_caches.clear()


def test_anonymous_sessions_never_touch_registry(dataset1_events):
    shared_caches.clear()
    tgi = build_tgi(dataset1_events, cache_entries=256)
    s1 = GraphSession.from_index(tgi)
    s2 = GraphSession.from_index(tgi)
    assert len(shared_caches) == 0
    # same index object still shares its private cache between sessions
    assert s1.cache is s2.cache


def test_open_graph_rejects_baseline_indexes(tmp_path, dataset1_events):
    from repro.index.log import LogIndex

    idx = LogIndex(eventlist_size=100)
    idx.build(dataset1_events)
    path = tmp_path / "log.hgs"
    save_index(idx, path)
    with pytest.raises(QueryError):
        open_graph(path)


# -- SoN path on the shared timeline -----------------------------------------

def test_pipelined_son_chunks_overlap(dataset1_events):
    te = dataset1_events[-1].time
    ts = te // 3
    nodes = list(range(60))
    tgi = build_tgi(dataset1_events)
    handler = TGIHandler(tgi, SparkContext(num_workers=2))

    # the baseline: each chunk's plan run on its own, one after another
    seq = [
        tgi._retrieve(tgi._node_histories_plan(chunk, ts, te), 1)
        for chunk in handler._chunks(nodes)
    ]
    seq_requests = sum(fetch.num_requests for _h, fetch in seq)
    seq_rounds = sum(fetch.rounds for _h, fetch in seq)
    # ... where a key two stages of one chunk name is fetched once
    assert (seq_requests, seq_rounds) == (276, 8)
    seq_asked = seq_requests + sum(fetch.coalesced_hits for _h, fetch in seq)

    out, stats = handler.retrieve_node_histories(nodes, ts, te)
    assert [nt.history for nt in out] == [
        history for histories, _fetch in seq for history in histories
    ]
    # the chunks' plans share one timeline: partitions several chunks
    # need are fetched once and same-window stages merge into one round
    assert (stats.requests, stats.rounds) == (134, 2)
    assert stats.requests + stats.coalesced_hits == seq_asked
    assert stats.merged_rounds == stats.rounds
    assert stats.sim_time_ms < sum(fetch.sim_time_ms for _h, fetch in seq)
    # every chunk completes with the merged rounds it rode
    assert stats.partition_sim_ms == [stats.sim_time_ms] * len(seq)


def test_pipelined_son_through_session(dataset1_events):
    te = dataset1_events[-1].time
    tgi = build_tgi(dataset1_events)
    son = GraphSession.from_index(tgi).nodes("id < 50").timeslice(
        1, te).fetch()
    assert len(son) > 0
    assert son.fetch_stats.merged_rounds > 0
    assert son.fetch_stats.coalesced_hits > 0


# -- CLI ---------------------------------------------------------------------

@pytest.fixture()
def built_index(tmp_path):
    trace = tmp_path / "trace.jsonl"
    index = tmp_path / "index.hgs"
    assert main(["generate", "citation", str(trace), "--nodes", "150"]) == 0
    assert main(["build", str(trace), str(index), "--span", "400",
                 "--eventlist", "80", "--partition-size", "24"]) == 0
    return index


def test_cli_khop_algorithm_auto_reports_costs(built_index, capsys):
    capsys.readouterr()
    assert main(["query", str(built_index), "khop", "5", "400",
                 "-k", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["algorithm"] in ("khop", "snapshot-first")
    assert out["predicted_ms"] > 0
    assert out["actual_ms"] > 0
    assert set(out["candidates"]) == {"khop", "snapshot-first"}
    assert 5 in out["members"]


def test_cli_khop_algorithm_forced(built_index, capsys):
    capsys.readouterr()
    assert main(["query", str(built_index), "--algorithm", "snapshot-first",
                 "khop", "5", "400", "-k", "2"]) == 0
    forced = json.loads(capsys.readouterr().out)
    assert forced["algorithm"] == "snapshot-first"
    assert main(["query", str(built_index), "--algorithm", "khop",
                 "khop", "5", "400", "-k", "2"]) == 0
    targeted = json.loads(capsys.readouterr().out)
    assert targeted["algorithm"] == "khop"
    assert forced["members"] == targeted["members"]


def test_cli_explain_khop_lists_candidates(built_index, capsys):
    capsys.readouterr()
    assert main(["query", str(built_index), "--explain", "khop", "5",
                 "400", "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "FetchPlan[khop" in out
    assert "candidates:" in out and "snapshot-first=" in out
