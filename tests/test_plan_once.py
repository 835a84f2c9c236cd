"""Plan once: the derived key tables, memoised routing and per-batch
duplicate collapse return exactly what the per-query derivations did —
same keys in the same order, same routes, same values — while doing the
derivation once."""

import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.index.tgi.layout as layout_module
import repro.kvstore.cluster as cluster_module
import repro.stats.model as stats_model
from repro import GraphSession, TGI, TGIConfig
from repro.api import DeadlineExceeded, QueryRequest
from repro.errors import IndexError_, PartitionUnavailable, StorageError
from repro.faults import (
    CrashWindow,
    FaultSchedule,
    LatencySpike,
    clear_faults,
    inject_faults,
)
from repro.index.tgi import PartitioningStrategy, TGIPlanner, price_plan
from repro.index.tgi.states import gap_eventlist_keys
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.resilience import ResiliencePolicy
from repro.stats.model import (
    FRONTIER_MARGIN,
    PartitionStats,
    TimespanStats,
    expected_khop_pids,
)
from repro.storage import load_index, save_index
from repro.workloads.citation import CitationConfig, generate_citation_events
from tests.helpers import (
    counted as _counted,
    random_history,
    reference_expected_khop_pids,
    reference_gap_keys,
    reference_pid_scope,
    reference_snapshot_plan,
)


# -- (a) table-derived plans equal the reference derivation -----------------

@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=60, max_value=200),  # steps
    st.integers(min_value=0, max_value=40),  # seed
    st.booleans(),  # replicate_boundary
    st.data(),
)
def test_table_plans_equal_reference(steps, seed, replicate, data):
    events = random_history(steps=steps, seed=seed)
    cut = len(events) * 2 // 3
    while events[cut].time == events[cut - 1].time:
        cut += 1  # an update must start after the indexed history
    tgi = TGI(TGIConfig(
        events_per_timespan=50, eventlist_size=9, micro_partition_size=5,
        partitioning=(
            PartitioningStrategy.MINCUT if replicate
            else PartitioningStrategy.RANDOM
        ),
        replicate_boundary=replicate,
    ))
    tgi.build(events[:cut])

    def check():
        t = data.draw(st.integers(tgi._t_min, tgi._t_max))
        span = tgi._span_at(t)
        pids = data.draw(st.one_of(
            st.none(),
            st.sets(st.integers(0, span.num_pids - 1), max_size=4),
        ))
        for include_aux in (False, True):
            assert tgi._snapshot_plan(
                span, t, pids=pids, include_aux=include_aux
            ) == reference_snapshot_plan(tgi, span, t, pids, include_aux)
            scope_pids = pids if pids is not None else {0}
            assert span.scope_of(scope_pids, include_aux) == (
                reference_pid_scope(span, scope_pids, include_aux)
            )
        t0 = data.draw(st.integers(span.checkpoints[0], t))
        assert gap_eventlist_keys(tgi, span, None, t0, t, False) == (
            reference_gap_keys(tgi, span, t0, t)
        )
        pid = data.draw(st.integers(0, span.num_pids - 1))
        for include_aux in (False, True):
            assert gap_eventlist_keys(
                tgi, span, pid, t0, t, include_aux
            ) == reference_gap_keys(tgi, span, t0, t, pid, include_aux)

    check()
    tgi.update(events[cut:])  # new spans get tables of their own
    check()


def test_eventlist_ranges_bisect_matches_scan():
    tgi = TGI(TGIConfig(events_per_timespan=90, eventlist_size=7,
                        micro_partition_size=6))
    tgi.build(random_history(steps=200, seed=5))
    for span in tgi._spans:
        ranges = span.eventlist_ranges
        times = range(span.checkpoints[0] - 1, span.checkpoints[-1] + 2)
        for t in times:
            leaf = span.leaf_at(t)
            assert list(span.eventlists_between(leaf, t)) == [
                j for j in range(leaf, len(ranges)) if ranges[j][0] < t
            ]
            for t0 in (span.checkpoints[0], t - 9, t - 1):
                assert list(span.eventlists_overlapping(t0, t)) == [
                    j for j, (ts, te) in enumerate(ranges)
                    if te > t0 and ts < t
                ]


# -- satellite: heap-based greedy growth is tuple-identical ------------------

@pytest.fixture(scope="module")
def dataset1_events():
    return generate_citation_events(
        CitationConfig(num_nodes=300, citations_per_node=4, seed=42)
    )


def build_tgi(events, r=1, **overrides):
    config = dict(
        events_per_timespan=1200, eventlist_size=150,
        micro_partition_size=32,
        cluster=ClusterConfig(num_machines=4, replication=r),
    )
    config.update(overrides)
    tgi = TGI(TGIConfig(**config))
    tgi.build(events)
    return tgi


@pytest.mark.parametrize("strategy", list(PartitioningStrategy))
def test_expected_khop_pids_matches_resorting_reference(
    dataset1_events, strategy
):
    tgi = build_tgi(
        dataset1_events, micro_partition_size=8, partitioning=strategy
    )
    checked = 0
    for span_stats in tgi.stats.spans.values():
        for pid0 in span_stats.partitions:
            for k in (1, 2, 3):
                for margin in (0.4, FRONTIER_MARGIN, 3.0):
                    assert stats_model._evaluate_khop_pids(
                        span_stats, pid0, k, None, margin
                    ) == reference_expected_khop_pids(
                        span_stats, pid0, k, margin=margin
                    )
                cand = sorted(span_stats.reachable_pids(pid0, k))[::2]
                assert expected_khop_pids(
                    span_stats, pid0, k, cand
                ) == reference_expected_khop_pids(span_stats, pid0, k, cand)
                checked += 1
    assert checked > 30


@st.composite
def cut_weight_tables(draw):
    """Span statistics over a drawn cut-weight table: few distinct sizes
    and weights, so the greedy growth meets ties on weight, on size and
    on both; some partitions are empty and some are missing."""
    n = draw(st.integers(1, 9))
    sizes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    partitions = {
        pid: PartitionStats(pid, size, 0, 0, size * 2, 2, 0, (0,))
        for pid, size in enumerate(sizes)
        if draw(st.integers(0, 5), label="kept")
    }
    cut_weights = {}
    for u in range(n):
        for v in range(u + 1, n):
            w = draw(st.integers(0, 3), label="weight")
            if w:
                cut_weights.setdefault(u, {})[v] = w
                cut_weights.setdefault(v, {})[u] = w
    return TimespanStats(
        tsid=0, t_start=0, t_end=1, nodes=sum(sizes), edges=0,
        num_pids=n, events=0, bucket_bounds=(0.0, 1.0),
        partitions=partitions, cut_weights=cut_weights,
    )


@settings(max_examples=300, deadline=None)
@given(span_stats=cut_weight_tables(), data=st.data())
def test_scored_selection_matches_resorting_reference(span_stats, data):
    pid0 = data.draw(st.integers(0, span_stats.num_pids - 1), label="pid0")
    k = data.draw(st.integers(0, 3), label="k")
    margin = data.draw(st.sampled_from((0.4, FRONTIER_MARGIN, 3.0, 50.0)))
    cand = data.draw(st.none() | st.sets(
        st.integers(0, span_stats.num_pids - 1)
    ), label="candidates")
    assert stats_model._evaluate_khop_pids(
        span_stats, pid0, k, None if cand is None else frozenset(cand),
        margin,
    ) == reference_expected_khop_pids(span_stats, pid0, k, cand, margin)


# -- (b) count guards ---------------------------------------------------------

def batch_of_16(t, centers):
    assert len(centers) == 8
    return [
        QueryRequest(kind="khop", t=t, nodes=(c,), k=2, single=True)
        for c in centers + centers[::-1]
    ]


CENTERS = [1, 3, 5, 7, 11, 13, 17, 19]


def test_warm_batch_plans_each_distinct_request_once(
    monkeypatch, dataset1_events
):
    session = GraphSession.from_index(build_tgi(dataset1_events))
    requests = batch_of_16(900, CENTERS)
    session.execute_batch(requests)  # warm-up: fills every table
    hashes = _counted(monkeypatch, layout_module, "hash_partition")
    plans = _counted(monkeypatch, TGIPlanner, "plan_khop")
    estimates = _counted(monkeypatch, stats_model, "_evaluate_khop_pids")
    results = session.execute_batch(requests)
    assert all(r.ok for r in results)
    assert hashes[0] == 0
    assert 0 < plans[0] <= 8
    assert estimates[0] <= 8


NON_KHOP = [
    QueryRequest(kind="snapshot", t=900),
    QueryRequest(kind="node_state", t=900, nodes=(5,), single=True),
    QueryRequest(kind="node_histories", ts=300, te=900, nodes=(5,),
                 single=True),
    QueryRequest(kind="node_histories", ts=300, te=900, nodes=(1, 3, 5)),
    QueryRequest(kind="khop_history", ts=300, te=900, nodes=(5,),
                 single=True),
]
#: the executable plan builder each request of :data:`NON_KHOP` compiles
#: through, by position
BUILDERS = [
    "_snapshot_exec_plan", "_node_histories_plan", "_node_histories_plan",
    "_node_histories_plan", "_khop_history_plan",
]


@pytest.mark.parametrize("together", [False, True], ids=["alone", "batch"])
def test_non_khop_kinds_compile_once_and_ask_no_planner(
    monkeypatch, dataset1_events, together
):
    """A snapshot, node state, node history or neighborhood history is
    priced on the plan it runs: executing one builds its executable plan
    once (a duplicate in a batch joins it) and asks the planner for
    nothing."""
    session = GraphSession.from_index(build_tgi(dataset1_events))
    planned = {
        name: _counted(monkeypatch, TGIPlanner, name)
        for name in vars(TGIPlanner) if name.startswith("plan_")
    }
    built = {
        name: _counted(monkeypatch, TGI, name) for name in set(BUILDERS)
    }
    for request, builder in zip(NON_KHOP, BUILDERS):
        before = {name: calls[0] for name, calls in built.items()}
        if together:
            results = session.execute_batch([request, request])
        else:
            results = [session.execute(request)]
        assert all(r.ok for r in results), request.describe()
        # the neighborhood history chains one history plan per member
        # behind its center's, each built as the one before settles
        assert built[builder][0] - before[builder] == 1, request.describe()
    assert {name: calls[0] for name, calls in planned.items()} == {
        name: 0 for name in planned
    }


def test_warm_snapshot_routes_without_hashing(monkeypatch, dataset1_events):
    session = GraphSession.from_index(build_tgi(dataset1_events))
    session.at(900).snapshot()
    stable = _counted(monkeypatch, cluster_module, "_stable_hash")
    hashes = _counted(monkeypatch, layout_module, "hash_partition")
    assert session.at(900).snapshot().value.num_nodes > 0
    assert stable[0] == 0 and hashes[0] == 0


@pytest.mark.parametrize("centers, single", [
    ((5,), True),
    ((1, 3, 5, 7, 3), False),
])
def test_explain_plans_each_distinct_center_once(
    monkeypatch, dataset1_events, centers, single
):
    """EXPLAIN prints the plans its pricing pass made: one ``plan_khop``
    per distinct center, one ``plan_snapshot``, and one store costing
    per candidate plus the estimate and the timeline — one k-hop plan
    for one center or many."""
    session = GraphSession.from_index(build_tgi(dataset1_events))
    request = QueryRequest(
        kind="khop", t=900, nodes=centers, k=2, single=single
    )
    khops = _counted(monkeypatch, TGIPlanner, "plan_khop")
    snapshots = _counted(monkeypatch, TGIPlanner, "plan_snapshot")
    prices = _counted(monkeypatch, Cluster, "price")
    records = _counted(monkeypatch, Cluster, "plan_records")
    text = session.explain(request)
    distinct = len(set(centers))
    assert khops[0] == distinct
    assert snapshots[0] == 1
    # four costings: snapshot-first, the one k-hop plan and the printed
    # plan's estimate are priced; the timeline lays out records
    assert (prices[0], records[0]) == (3, 1)
    assert "candidates:" in text and "ExecutionTimeline[" in text


def test_explain_survives_a_dead_placement(dataset1_events):
    """What ``execute`` answers degraded and unpriced, EXPLAIN prints
    with an unpriceable estimate instead of dying at plan time."""
    tgi = build_tgi(dataset1_events, r=1)
    session = GraphSession.from_index(tgi)
    request = QueryRequest(
        kind="khop", t=900, nodes=(5,), k=2, single=True, allow_partial=True
    )
    _, direct = tgi.retrieve_khop(5, 900, k=2)
    dead = min(rec.server for rec in direct.requests)
    tgi.cluster.fail_machine(dead)
    tgi.cluster.enable_resilience(
        ResiliencePolicy(max_attempts=2, hedge=False)
    )
    result = session.execute(request)
    text = session.explain(request)
    assert result.degraded is not None
    assert result.stats.predicted_ms is None
    assert text.startswith("FetchPlan[khop(node=5, t=900, k=2)]")
    assert "estimate: unpriceable (all replicas down for placement" in text
    assert "ExecutionTimeline[" not in text


def test_explain_of_a_lone_dead_center_raises(dataset1_events):
    session = GraphSession.from_index(build_tgi(dataset1_events))
    with pytest.raises(IndexError_):
        session.explain(QueryRequest(
            kind="khop", t=900, nodes=(10 ** 6,), k=1, single=True
        ))


# -- (c) duplicate collapse ---------------------------------------------------

def members(g):
    return sorted(g.nodes()), sorted(g.edges())


def test_duplicates_match_serial_and_are_private_copies(dataset1_events):
    requests = batch_of_16(900, CENTERS)
    serial_session = GraphSession.from_index(build_tgi(dataset1_events))
    serial = [serial_session.execute(r) for r in requests]
    batch = GraphSession.from_index(
        build_tgi(dataset1_events)
    ).execute_batch(requests)
    for s, b in zip(serial, batch):
        assert members(b.value) == members(s.value)
    assert len({id(r.value) for r in batch}) == len(batch)
    # a duplicate reports the plan outcome of the request it equals
    first, last = batch[0].stats, batch[-1].stats
    assert batch[0].request == batch[-1].request
    assert (last.algorithm, last.predicted_ms, last.candidates) == (
        first.algorithm, first.predicted_ms, first.candidates
    )
    assert last.sim_time_ms == first.sim_time_ms
    assert last.requests == first.requests
    assert last.bytes_read == first.bytes_read
    # ... and none of the work counters
    assert last.rounds == 0 and last.coalesced_hits == 0


def test_duplicate_shares_sum_to_deduplicated_totals(dataset1_events):
    requests = batch_of_16(900, CENTERS)
    with_dups = GraphSession.from_index(
        build_tgi(dataset1_events)
    ).execute_batch(requests)
    distinct = GraphSession.from_index(
        build_tgi(dataset1_events)
    ).execute_batch(requests[:8])
    for field in ("requests", "bytes_read"):
        assert sum(getattr(r.stats, field) for r in with_dups) == (
            pytest.approx(sum(getattr(r.stats, field) for r in distinct))
        )
    assert max(r.stats.sim_time_ms for r in with_dups) == (
        max(r.stats.sim_time_ms for r in distinct)
    )
    # a batch without equal requests is unaffected by the grouping
    for got, want in zip(with_dups[:8], distinct):
        assert got.stats.rounds == want.stats.rounds
        assert got.stats.algorithm == want.stats.algorithm


def test_two_equal_requests_execute_once(dataset1_events):
    request = QueryRequest(kind="khop", t=900, nodes=(3,), k=2, single=True)
    single = GraphSession.from_index(build_tgi(dataset1_events)).execute(request)
    pair = GraphSession.from_index(
        build_tgi(dataset1_events)
    ).execute_batch([request, request])
    assert pair[0].value is not pair[1].value
    for r in pair:
        assert members(r.value) == members(single.value)
    assert sum(r.stats.requests for r in pair) == single.stats.requests
    assert sum(r.stats.bytes_read for r in pair) == single.stats.bytes_read


def test_dead_center_twice_fills_two_error_slots(dataset1_events):
    session = GraphSession.from_index(build_tgi(dataset1_events))
    dead = QueryRequest(kind="khop", t=900, nodes=(10**6,), k=2, single=True)
    alive = QueryRequest(kind="khop", t=900, nodes=(3,), k=2, single=True)
    results = session.execute_batch(
        [dead, alive, dead], capture_errors=True
    )
    assert [r.ok for r in results] == [False, True, False]
    assert all(isinstance(r.error, IndexError_) for r in results[::2])
    with pytest.raises(IndexError_):
        session.execute_batch([dead, alive, dead])


def test_equal_requests_expire_independently(dataset1_events):
    session = GraphSession.from_index(build_tgi(dataset1_events))
    now = [0.0]
    session.clock = lambda: now[0]
    request = QueryRequest(kind="khop", t=900, nodes=(3,), k=2, single=True)
    other = QueryRequest(kind="khop", t=900, nodes=(5,), k=2, single=True)
    # expired before planning: the later duplicate plans in its stead
    results = session.execute_batch(
        [request, request, other], capture_errors=True,
        deadline_ats=[-1.0, None, None],
    )
    assert isinstance(results[0].error, DeadlineExceeded)
    assert results[1].ok and results[2].ok
    # expired between execution and assembly: the first of the pair is
    # late, the second still gets the (shared) answer
    execute_many = session.tgi.executor.execute_many

    def slow(*args, **kwargs):
        pipe = execute_many(*args, **kwargs)
        now[0] = 10.0
        return pipe

    session.tgi.executor.execute_many = slow
    results = session.execute_batch(
        [request, request, other], capture_errors=True,
        deadline_ats=[5.0, 100.0, 100.0],
    )
    assert isinstance(results[0].error, DeadlineExceeded)
    assert results[1].ok and results[2].ok
    assert members(results[1].value) == members(
        GraphSession.from_index(build_tgi(dataset1_events))
        .execute(request).value
    )


def test_allow_partial_duplicates_both_report_degraded(dataset1_events):
    tgi = build_tgi(dataset1_events, r=1)
    session = GraphSession.from_index(tgi)
    t = dataset1_events[-1].time
    partial = QueryRequest(kind="snapshot", t=t, allow_partial=True)
    other = QueryRequest(
        kind="khop", t=t, nodes=(3,), k=1, single=True, allow_partial=True
    )
    full = session.execute(QueryRequest(kind="snapshot", t=t))
    inject_faults(tgi.cluster, FaultSchedule(crashes=(CrashWindow(1, 0.0),)))
    tgi.cluster.enable_resilience(
        ResiliencePolicy(max_attempts=2, hedge=False)
    )
    try:
        results = session.execute_batch(
            [partial, other, partial], capture_errors=True
        )
    finally:
        tgi.cluster.disable_resilience()
        clear_faults(tgi.cluster)
    a, b = results[0], results[2]
    assert a.ok and b.ok
    assert a.degraded is not None and a.degraded["partitions"]
    assert b.degraded == a.degraded and b.degraded is not a.degraded
    assert b.stats.degraded_partitions == a.stats.degraded_partitions
    assert a.value is not b.value
    assert members(a.value) == members(b.value)
    assert 0 < a.value.num_nodes < full.value.num_nodes


# -- (d) routing ---------------------------------------------------------------

def reference_route(cluster, keys, now=0.0):
    """Least-loaded live holder per key, every replica set hashed anew
    and the down set evaluated per key (how routing was first written)."""
    m, r = cluster.config.num_machines, cluster.config.replication
    load = {i: 0 for i in range(m)}
    out = {}
    for key in keys:
        down = set(cluster._down)
        if cluster.faults is not None:
            down |= cluster.faults.down_machines(now)
        first = cluster_module._stable_hash(key[:2]) % m
        replicas = [(first + i) % m for i in range(r)]
        holding = [
            x for x in replicas
            if x not in down and key in cluster.machines[x]
        ]
        best = min(holding, key=lambda x: load[x])
        out[key] = best
        load[best] += 1
    return out


def loaded_cluster(n=48, m=4, r=2):
    cluster = Cluster(ClusterConfig(num_machines=m, replication=r))
    keys = [(i % 3, i % 8, ("S", i // 2), i % 5) for i in range(n)]
    for key in keys:
        cluster.put(key, {"row": key})
    return cluster, keys


def test_routing_follows_failures_and_crash_windows():
    cluster, keys = loaded_cluster()

    def route(now=0.0):
        groups, blocked = cluster._route(keys, now)
        assert blocked == []  # r=2 with one machine down: all routable
        return {
            key: server for server, group in enumerate(groups)
            for _, key in group
        }

    assert route() == reference_route(cluster, keys)
    cluster.fail_machine(2)
    rerouted = route()
    assert rerouted == reference_route(cluster, keys)
    assert 2 not in rerouted.values()
    cluster.recover_machine(2)
    assert route() == reference_route(cluster, keys)
    assert 2 in route().values()
    # a crash window that opens and closes between queries
    inject_faults(cluster, FaultSchedule(
        crashes=(CrashWindow(1, 40.0, 80.0),)
    ))
    for now in (0.0, 50.0, 200.0):
        routed = route(now)
        assert routed == reference_route(cluster, keys, now)
        assert (1 in routed.values()) == (now != 50.0)
    # the clock moves the same window under plan_records / multiget
    cluster.set_clock(50.0)
    assert 1 not in {rec.server for rec in cluster.multiget(keys)[1].requests}
    cluster.set_clock(200.0)
    assert 1 in {rec.server for rec in cluster.multiget(keys)[1].requests}


def test_pricing_reads_the_cluster_clock():
    """A crash window open at ``clock_ms`` makes the keys it strands
    unpriceable, exactly when ``multiget`` cannot fetch them; a latency
    spike active at ``clock_ms`` is priced as ``multiget`` charges it."""
    cluster, keys = loaded_cluster(r=1)
    inject_faults(cluster, FaultSchedule(
        crashes=(CrashWindow(1, 40.0, 80.0),)
    ))
    cluster.set_clock(50.0)
    with pytest.raises(PartitionUnavailable) as unavailable:
        cluster.multiget(keys)
    assert len(unavailable.value.keys) == 10
    for pricing in (cluster.plan_records, cluster.price):
        with pytest.raises(StorageError, match=(
            r"all replicas down for placement .* \(10 keys unroutable\)"
        )):
            pricing(keys)
    cluster.set_clock(80.0)
    assert cluster.price(keys) == cluster.multiget(keys)[1].sim_time_ms

    inject_faults(cluster, FaultSchedule(
        latency=(LatencySpike(2, 5.0, 40.0, 80.0),)
    ))
    quiet = cluster.price(keys)
    cluster.set_clock(50.0)
    spiked = cluster.price(keys)
    assert spiked > quiet
    assert spiked == cluster.multiget(keys)[1].sim_time_ms
    assert [rec.service_ms for rec in cluster.plan_records(keys)] == [
        rec.service_ms for rec in cluster.multiget(keys)[1].requests
    ]


def test_put_and_delete_refresh_the_rank_index():
    cluster, keys = loaded_cluster(r=1)
    cluster.plan_records(keys)  # builds every node's card table
    # overwrites keep a row's rank but change its sizes
    cluster.put(keys[0], {"row": keys[0], "pad": "x" * 4000})
    cluster.put(keys[1], None)
    extra = [(0, 1, ("S", 0), 9), (2, 7, ("A", 3), 1), (1, 4, ("E", 0), 0)]
    for key in extra:
        cluster.put(key, {"row": key})
    cluster.delete(keys[5])
    kept = [key for key in keys if key != keys[5]] + extra
    fresh = Cluster(ClusterConfig(num_machines=4, replication=1))
    for key in kept:
        fresh.put(key, {"row": key})
    fresh.put(keys[0], {"row": keys[0], "pad": "x" * 4000})
    fresh.put(keys[1], None)

    def flags(c):
        return [
            (rec.key, rec.server, rec.contiguous, rec.service_ms)
            for rec in c.plan_records(kept)
        ]

    assert flags(cluster) == flags(fresh)
    assert cluster.price(kept) == fresh.price(kept)
    for node, fresh_node in zip(cluster.machines, fresh.machines):
        assert node.cards() == fresh_node.cards()
        assert [node.rank(key) for key, _ in node.items()] == (
            list(range(len(fresh_node)))
        )


# -- (e) persistence ------------------------------------------------------------

def fifty_requests(t_max):
    out = []
    for i in range(50):
        t = t_max - 7 * i
        node = 1 + 2 * (i % 20)
        out.append([
            QueryRequest(kind="snapshot", t=t),
            QueryRequest(kind="khop", t=t, nodes=(node,), k=2, single=True),
            QueryRequest(kind="node_histories", ts=t - 300, te=t,
                         nodes=(node, node + 1)),
            QueryRequest(kind="node_state", t=t, nodes=(node,), single=True),
            QueryRequest(kind="khop", t=t, nodes=(node, node + 4), k=1),
        ][i % 5])
    return out


def answer(result):
    value = result.value
    if result.request.kind == "node_histories":
        return [(h.initial, h.events) for h in value]
    if isinstance(value, list):
        return [members(g) if g is not None else None for g in value]
    return members(value) if hasattr(value, "nodes") else value


def test_tables_are_never_persisted(tmp_path, dataset1_events):
    tgi = build_tgi(dataset1_events)
    save_index(tgi, tmp_path / "before.hgs")
    session = GraphSession.from_index(tgi)
    requests = fifty_requests(dataset1_events[-1].time)
    answers = [answer(session.execute(r)) for r in requests]
    assert tgi._spans[-1]._keys is not None  # the tables did fill
    assert any(node._cards for node in tgi.cluster.machines)
    save_index(tgi, tmp_path / "after.hgs")
    assert (tmp_path / "after.hgs").stat().st_size == (
        (tmp_path / "before.hgs").stat().st_size
    )
    loaded = load_index(tmp_path / "after.hgs")
    assert loaded._spans[-1]._keys is None
    assert loaded._span_starts == tgi._span_starts
    reloaded = GraphSession.from_index(loaded)
    assert [answer(reloaded.execute(r)) for r in requests] == answers


def test_khop_price_does_not_depend_on_earlier_khops(dataset1_events):
    # min-cut partitions: the statistics' frontier bound over-predicts
    # here, so a price corrected by earlier traversals would move
    tgi = build_tgi(
        dataset1_events, micro_partition_size=16,
        partitioning=PartitioningStrategy.MINCUT,
    )
    planner = TGIPlanner(tgi)

    def priced():
        return [
            (plan.pricing_keys(), price_plan(tgi.cluster, plan))
            for plan in (
                planner.plan_khop(c, 900, k) for c in CENTERS for k in (1, 2)
            )
        ]

    fresh = priced()
    for i in range(50):
        tgi.get_khop(CENTERS[i % len(CENTERS)], 900, k=1 + i % 2)
    assert priced() == fresh


# -- (f) threads sharing one cold layout --------------------------------------

def test_threads_fill_tables_idempotently(dataset1_events):
    requests = fifty_requests(dataset1_events[-1].time)[:20]
    want = [
        answer(r) for r in map(
            GraphSession.from_index(build_tgi(dataset1_events)).execute,
            requests,
        )
    ]
    session = GraphSession.from_index(build_tgi(dataset1_events))  # cold
    got = [None] * 8
    barrier = threading.Barrier(8)

    def work(slot):
        barrier.wait()
        # every thread walks the requests from a different offset
        order = requests[slot:] + requests[:slot]
        answers = [answer(session.execute(r)) for r in order]
        got[slot] = answers[len(requests) - slot:] + (
            answers[:len(requests) - slot]
        )

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the first-touch fills
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(answers == want for answers in got)
