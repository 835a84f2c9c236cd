"""Tests for pipelined plan execution: the ExecutionTimeline cost model,
PlanExecutor.execute_many, the shared-frontier batched k-hop, the TAF
data paths on the shared timeline (against a log-replay oracle), and the
replica-fallback read path."""

from dataclasses import fields

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import IndexError_, KeyNotFound
from repro.exec import DeltaCache, FetchPlan, FetchStage, KeyGroup, PlanExecutor
from repro.index.tgi import TGI, TGIConfig
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.cost import (
    CostModel,
    ExecutionTimeline,
    FetchStats,
    RequestRecord,
    simulate_plan,
)
from repro.spark.rdd import SparkContext
from repro.taf.handler import TGIHandler
from tests.helpers import random_history, run_each_alone
from tests.oracle import ground_truth_history, ground_truth_subgraph


# -- ExecutionTimeline -------------------------------------------------------

def _records(client, server, n, service=1.0):
    return [
        RequestRecord((client, server, i), server=server, client=client,
                      stored_bytes=0, raw_bytes=0, contiguous=False,
                      compressed=False, service_ms=service)
        for i in range(n)
    ]


def test_single_round_matches_simulate_plan():
    model = CostModel()
    recs = _records(0, 0, 4) + _records(1, 1, 3)
    timeline = ExecutionTimeline(model)
    timing = timeline.submit(recs)
    assert timing.completed_ms == pytest.approx(simulate_plan(recs, model))
    assert timing.standalone_ms == pytest.approx(simulate_plan(recs, model))


def test_chained_rounds_reproduce_sequential_sum():
    model = CostModel()
    timeline = ExecutionTimeline(model)
    t1 = timeline.submit(_records(0, 0, 4))
    t2 = timeline.submit(_records(0, 0, 2), at=t1.completed_ms)
    assert t2.completed_ms == pytest.approx(
        t1.standalone_ms + t2.standalone_ms
    )
    assert timeline.overlap_saved_ms == pytest.approx(0.0)


def test_independent_rounds_overlap():
    model = CostModel()
    timeline = ExecutionTimeline(model)
    # different clients, different servers: fully parallel
    a = timeline.submit(_records(0, 0, 4))
    b = timeline.submit(_records(1, 1, 4))
    assert timeline.makespan_ms == pytest.approx(
        max(a.standalone_ms, b.standalone_ms)
    )
    assert timeline.overlap_saved_ms > 0.0


def test_overlap_bounded_by_sequential_and_slowest():
    model = CostModel()
    timeline = ExecutionTimeline(model)
    rounds = [
        timeline.submit(_records(i % 2, i % 3, 2 + i)) for i in range(5)
    ]
    assert timeline.makespan_ms <= timeline.sequential_ms + 1e-9
    assert timeline.makespan_ms >= max(r.standalone_ms for r in rounds) - 1e-9
    assert timeline.overlap_saved_ms >= 0.0


def test_shared_resource_rounds_queue():
    model = CostModel()
    timeline = ExecutionTimeline(model)
    # same client pool: the second round waits for the first
    a = timeline.submit(_records(0, 0, 4))
    b = timeline.submit(_records(0, 1, 4))
    assert b.completed_ms == pytest.approx(
        a.standalone_ms + b.standalone_ms
    )


def test_timeline_describe_mentions_rounds():
    timeline = ExecutionTimeline(CostModel())
    timeline.submit(_records(0, 0, 2))
    text = timeline.describe()
    assert "1 rounds" in text and "makespan" in text


def test_merge_concurrent_takes_timeline_completion():
    a = FetchStats(sim_time_ms=2.0, rounds=1)
    b = FetchStats(sim_time_ms=3.0, rounds=2)
    a.merge_concurrent(b, completed_at_ms=3.5)
    assert a.sim_time_ms == pytest.approx(3.5)
    assert a.rounds == 3


# -- execute_many ------------------------------------------------------------

def _loaded_cluster(rows=24, machines=3):
    cluster = Cluster(ClusterConfig(num_machines=machines))
    keys = [(i % 4, i % 2, ("S", 0), i) for i in range(rows)]
    for key in keys:
        cluster.put(key, {"row": key[3]})
    return cluster, keys


def _two_plans(keys):
    """Two independent two-stage plans over disjoint key halves."""
    half = len(keys) // 2
    plans = []
    for label, chunk in (("a", keys[:half]), ("b", keys[half:])):
        plan = FetchPlan(label)
        plan.add_stage(f"{label}-1", KeyGroup("rows", tuple(chunk[:-2])))

        def followup(values, tail=tuple(chunk[-2:]), lbl=label):
            return FetchStage(f"{lbl}-2", (KeyGroup("derived", tail),))

        plan.add_factory(followup)
        plans.append(plan)
    return plans


def test_execute_many_fetches_same_keys_as_sequential():
    cluster, keys = _loaded_cluster()
    seq_results, seq_stats = run_each_alone(
        PlanExecutor(cluster), _two_plans(keys)
    )
    pipe = PlanExecutor(cluster).execute_many(_two_plans(keys))
    for s, p in zip(seq_results, pipe.results):
        assert set(s.values) == set(p.values)
        assert s.values == p.values
        assert {r.key for r in s.stats.requests} == (
            {r.key for r in p.stats.requests}
        )
        assert s.stats.rounds == p.stats.rounds
    assert {r.key for r in seq_stats.requests} == (
        {r.key for r in pipe.stats.requests}
    )


def test_execute_many_sim_bounds():
    cluster, keys = _loaded_cluster()
    seq_results, seq_stats = run_each_alone(
        PlanExecutor(cluster), _two_plans(keys)
    )
    pipe = PlanExecutor(cluster).execute_many(_two_plans(keys))
    # overlapped completion: never worse than sequential, never better
    # than the slowest dependency chain
    assert pipe.stats.sim_time_ms <= seq_stats.sim_time_ms + 1e-9
    slowest_chain = max(r.stats.sim_time_ms for r in seq_results)
    assert pipe.stats.sim_time_ms >= slowest_chain - 1e-9
    assert pipe.stats.overlap_saved_ms >= 0.0
    assert pipe.timeline is not None
    assert pipe.stats.sim_time_ms == pytest.approx(
        pipe.timeline.makespan_ms
    )


def test_execute_many_per_plan_attribution():
    cluster, keys = _loaded_cluster()
    pipe = PlanExecutor(cluster).execute_many(_two_plans(keys))
    for result in pipe.results:
        assert result.stats.rounds == 2
        # a plan completes no later than the whole schedule
        assert result.stats.sim_time_ms <= pipe.stats.sim_time_ms + 1e-9
    # each window's two stages went out as one merged round
    assert pipe.stats.rounds == 2


def test_execute_many_cache_behavior_identical():
    cluster, keys = _loaded_cluster()
    _, cold_seq = run_each_alone(
        PlanExecutor(cluster, DeltaCache(256)), _two_plans(keys)
    )
    cold_pipe = PlanExecutor(cluster, DeltaCache(256)).execute_many(
        _two_plans(keys)
    )
    assert cold_seq.cache_hits == cold_pipe.stats.cache_hits
    assert cold_seq.cache_misses == cold_pipe.stats.cache_misses

    # warm caches: both schedules serve everything locally
    cache_a, cache_b = DeltaCache(256), DeltaCache(256)
    ex_a = PlanExecutor(cluster, cache_a)
    ex_b = PlanExecutor(cluster, cache_b)
    run_each_alone(ex_a, _two_plans(keys))
    ex_b.execute_many(_two_plans(keys))
    _, warm_seq = run_each_alone(ex_a, _two_plans(keys))
    warm_pipe = ex_b.execute_many(_two_plans(keys))
    assert warm_seq.num_requests == 0
    assert warm_pipe.stats.num_requests == 0
    assert warm_seq.cache_hits == warm_pipe.stats.cache_hits
    assert warm_pipe.stats.sim_time_ms == 0.0


def test_execute_many_dynamic_plan_growth():
    """A factory may append further entries to its own running plan."""
    cluster, keys = _loaded_cluster()
    plan = FetchPlan("dynamic")
    plan.add_stage("seed", KeyGroup("rows", (keys[0],)))

    def grow(values):
        plan.add_stage("grown", KeyGroup("rows", (keys[1],)))
        return None

    plan.add_factory(grow)
    result = PlanExecutor(cluster).execute(plan)
    assert keys[1] in result.values
    assert result.stats.rounds == 2
    pipe = PlanExecutor(cluster).execute_many([plan])
    assert keys[1] in pipe.results[0].values


def _two_stage_plan(first, second):
    plan = FetchPlan("lone")
    plan.add_stage("lone-1", KeyGroup("rows", tuple(first)))
    plan.add_factory(
        lambda values: FetchStage("lone-2", (KeyGroup("derived", tuple(second)),))
    )
    return plan


def test_lone_pipelined_plan_accounts_like_its_timeline():
    """One plan alone on the shared timeline overlaps with nothing: its
    own attribution must say what the timeline says."""
    cluster, keys = _loaded_cluster()
    seq = PlanExecutor(cluster).execute(_two_stage_plan(keys[:20], keys[20:]))
    pipe = PlanExecutor(cluster).execute_many(
        [_two_stage_plan(keys[:20], keys[20:])]
    )
    lone = pipe.results[0]
    assert pipe.stats.overlap_saved_ms == pytest.approx(0.0)
    assert lone.stats.overlap_saved_ms == pytest.approx(
        pipe.stats.overlap_saved_ms
    )
    assert lone.stats.rounds == pipe.stats.rounds == seq.stats.rounds == 2
    assert lone.stats.num_requests == seq.stats.num_requests == len(keys)
    assert lone.values == seq.values
    assert lone.stats.sim_time_ms == pytest.approx(seq.stats.sim_time_ms)
    assert lone.stats.coalesced_hits == 0


def test_lone_pipelined_plan_fetches_a_repeated_key_once():
    """A plan that names one key in two stages (a node-histories plan
    does) single-flights it, batchmates or not: ``execute`` and
    ``execute_many`` of one ask the store once per key."""
    cluster, keys = _loaded_cluster()
    seq = PlanExecutor(cluster).execute(_two_stage_plan(keys[:4], keys[2:6]))
    pipe = PlanExecutor(cluster).execute_many(
        [_two_stage_plan(keys[:4], keys[2:6])]
    )
    lone = pipe.results[0]
    assert seq.stats.num_requests == 6
    assert lone.stats.num_requests == pipe.stats.num_requests == 6
    assert seq.stats.coalesced_hits == 2
    assert lone.stats.coalesced_hits == pipe.coalesce.coalesced_hits == 2
    assert pipe.coalesce.fair_requests == [6.0]
    assert lone.values == seq.values
    assert lone.stats == seq.stats


def _plan_of(stages, keys):
    """A plan whose first stage is static and whose later stages are
    factories, each naming ``keys[i]`` for the drawn indices."""
    plan = FetchPlan("drawn")
    plan.add_stage("s0", KeyGroup("rows", tuple(keys[i] for i in stages[0])))
    for n, stage in enumerate(stages[1:], 1):
        plan.add_factory(
            lambda values, n=n, picked=tuple(keys[i] for i in stage):
            FetchStage(f"s{n}", (KeyGroup("derived", picked),))
        )
    return plan


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 23), min_size=1, max_size=10, unique=True),
        min_size=1, max_size=4,
    ),
    st.sampled_from([None, 4, 256]),  # delta cache entries
    st.lists(st.integers(0, 23), max_size=8, unique=True),  # pre-warmed
)
def test_execute_is_execute_many_of_one(stages, cache_entries, warm):
    """``execute(p)`` is ``execute_many([p]).results[0]``: the same values
    and every ``FetchStats`` field equal, over random multi-stage plans
    whose stages overlap, with the cache off, bounded or roomy."""
    runs = []
    for run in ("execute", "execute_many"):
        cluster, keys = _loaded_cluster()
        cache = None if cache_entries is None else DeltaCache(cache_entries)
        executor = PlanExecutor(cluster, cache)
        if cache is not None and warm:
            executor.fetch([keys[i] for i in warm])
        plan = _plan_of(stages, keys)
        runs.append(
            executor.execute(plan) if run == "execute"
            else executor.execute_many([plan]).results[0]
        )
    lone, many = runs
    assert lone.values == many.values
    for spec in fields(FetchStats):
        assert getattr(lone.stats, spec.name) == getattr(
            many.stats, spec.name
        ), spec.name
    # every key asked is fetched once, or served by the cache or by the
    # flight an earlier stage made
    asked = sum(len(stage) for stage in stages)
    distinct = {i for stage in stages for i in stage}
    assert len(lone.values) == len(distinct)
    assert (
        lone.stats.num_requests + lone.stats.cache_hits
        + lone.stats.coalesced_hits
    ) == asked
    if cache_entries is None:
        assert lone.stats.num_requests == len(distinct)
        assert lone.stats.overlap_saved_ms == pytest.approx(0.0)


# -- replica fallback --------------------------------------------------------

def _stale_replica_cluster():
    """Write a key while one replica is down, then recover it: the
    recovered machine is live but stale for that key."""
    cluster = Cluster(ClusterConfig(num_machines=3, replication=2))
    probe = (0, 0, ("S", 0), 0)
    holders = cluster.replicas_for(probe[:2])
    cluster.fail_machine(holders[0])
    cluster.put(probe, "fresh")
    cluster.recover_machine(holders[0])
    assert probe not in cluster.machines[holders[0]]
    return cluster, probe, holders


def test_multiget_falls_back_to_fresh_replica():
    cluster, probe, holders = _stale_replica_cluster()
    values, stats = cluster.multiget([probe])
    assert values[probe] == "fresh"
    assert stats.requests[0].server == holders[1]


def test_get_raises_when_no_live_replica_has_key():
    cluster = Cluster(ClusterConfig(num_machines=2))
    cluster.put((0, 0, ("S", 0), 0), "v")
    with pytest.raises(KeyNotFound):
        cluster.multiget([(9, 9, ("S", 9), 9)])


def test_plan_records_match_multiget_without_side_effects():
    cluster, keys = _loaded_cluster()
    planned = cluster.plan_records(keys, clients=2)
    values, stats = cluster.multiget(keys, clients=2)
    assert [(r.key, r.server, r.client, r.service_ms) for r in planned] == (
        [(r.key, r.server, r.client, r.service_ms) for r in stats.requests]
    )


# -- TGI shared-frontier k-hop ----------------------------------------------

@pytest.fixture(scope="module")
def events():
    return random_history(steps=500, seed=33)


def make_tgi(events, **overrides):
    defaults = dict(
        events_per_timespan=180,
        eventlist_size=30,
        micro_partition_size=12,
    )
    defaults.update(overrides)
    idx = TGI(TGIConfig(**defaults))
    idx.build(events)
    return idx


@pytest.fixture(scope="module")
def tgi(events):
    return make_tgi(events)


def _probe_nodes(events, count=40):
    nodes = sorted({ev.node for ev in events})
    return nodes[:count]


def test_khops_match_per_center_khop(tgi, events):
    nodes = _probe_nodes(events, 15)
    batched = tgi.get_khops(nodes, 450, k=2)
    for node, got in zip(nodes, batched):
        try:
            want = tgi.get_khop(node, 450, k=2)
        except IndexError_:
            assert got is None
            continue
        assert got == want


def test_khops_dead_center_is_none(tgi):
    out, stats = tgi.retrieve_khops([999_999], 450, k=1)
    assert out == [None]
    assert stats.rounds == 0


def test_khops_preserve_order_and_duplicates(tgi, events):
    nodes = _probe_nodes(events, 5)
    probe = [nodes[3], nodes[0], nodes[3]]
    out = tgi.get_khops(probe, 450, k=1)
    assert out[0] == out[2]
    assert out[0] == tgi.get_khop(probe[0], 450, k=1)


def test_khops_rounds_independent_of_center_count(tgi, events):
    k = 2
    _, few = tgi.retrieve_khops(_probe_nodes(events, 4), 450, k=k)
    _, many = tgi.retrieve_khops(_probe_nodes(events, 40), 450, k=k)
    assert few.rounds <= k + 1 and many.rounds <= k + 1


def test_khops_fetch_union_of_per_center_key_sets(tgi, events):
    nodes = _probe_nodes(events, 10)
    _, shared = tgi.retrieve_khops(nodes, 450, k=1)
    shared_keys = {r.key for r in shared.requests}
    union = set()
    for node in nodes:
        try:
            _, one = tgi.retrieve_khop(node, 450, k=1)
        except IndexError_:
            continue
        union |= {r.key for r in one.requests}
    assert shared_keys == union


# -- TAF data paths on the shared timeline -----------------------------------

TS, TE = 100, 450


@pytest.fixture()
def handler(tgi):
    return TGIHandler(tgi, SparkContext(num_workers=2))


def _late_center(tgi, events):
    """A node dead at ``TS`` but born in ``(TS, TE]``, inside the span
    that holds ``TS`` (so the k-hop probe has a partition to fetch)."""
    span = tgi._span_at(TS)
    for node in sorted({ev.node for ev in events}):
        first = min(ev.time for ev in events if ev.touches(node))
        if TS < first <= TE and span.pid_of(node) is not None:
            return node
    raise AssertionError("need a center born inside the probed span")


def _parts(sg):
    """Everything a :class:`SubgraphT` holds, as comparable containers."""
    members = {
        n: (nt.history.initial, list(nt.history.events))
        for n, nt in sg.members.items()
    }
    return sg.center, sg.k, members, sg.edge_attrs_initial


def _assert_subgraph_is_oracle(sg, events, center, k):
    members, edge_attrs = ground_truth_subgraph(events, center, k, TS, TE)
    assert _parts(sg) == (center, k, members, edge_attrs)


@pytest.mark.parametrize("k", [1, 2])
def test_subgraphs_match_log_replay_oracle(handler, tgi, events, k):
    nodes = _probe_nodes(events, 10)
    late = _late_center(tgi, events)
    # a duplicate, a center dead at TS but born later, a never-existing id
    centers = nodes + [nodes[3], late, 999_999]
    got = handler.fetch_subgraphs(centers, k, TS, TE)
    alive = [
        c for c in centers
        if ground_truth_subgraph(events, c, k, TS, TE) is not None
    ]
    assert late in alive and nodes[3] in alive and 999_999 not in alive
    assert sorted(sg.center for sg in got) == sorted(alive)
    for sg in got:
        _assert_subgraph_is_oracle(sg, events, sg.center, k)


@pytest.mark.parametrize("k", [1, 2])
def test_fetch_subgraph_is_the_batch_of_one(handler, tgi, events, k):
    for center in _probe_nodes(events, 6) + [_late_center(tgi, events)]:
        one = handler.fetch_subgraph(center, k, TS, TE)
        many = handler.fetch_subgraphs([center], k, TS, TE)
        if ground_truth_subgraph(events, center, k, TS, TE) is None:
            assert one is None and many == []
            continue
        _assert_subgraph_is_oracle(one, events, center, k)
        assert _parts(one) == _parts(many[0])
    assert handler.fetch_subgraph(999_999, k, TS, TE) is None
    assert handler.fetch_subgraphs([999_999], k, TS, TE) == []


def test_node_histories_match_log_replay_oracle(handler, tgi, events):
    nodes = _probe_nodes(events, 25) + [_late_center(tgi, events), 999_999]
    got = handler.fetch_node_histories(nodes, TS, TE)
    assert sorted(nt.node_id for nt in got) == sorted(nodes)
    for nt in got:
        assert (nt.history.initial, list(nt.history.events)) == (
            ground_truth_history(events, nt.node_id, TS, TE)
        )


def test_pipelined_subgraphs_match_sequential(handler, events):
    """The shared-frontier chunk fetch returns what one fetch per center
    returns."""
    centers = _probe_nodes(events, 10)
    batched = {
        sg.center: _parts(sg)
        for sg in handler.fetch_subgraphs(centers, 2, TS, TE)
    }
    per_center = [handler.fetch_subgraph(c, 2, TS, TE) for c in centers]
    assert batched == {
        sg.center: _parts(sg) for sg in per_center if sg is not None
    }


#: What the strictly sequential per-center schedule (history fetch per
#: BFS level, then the k-hop probe, one center after another) cost on
#: this history, ``k=1``, the first 10 probe nodes — measured before that
#: schedule was removed.
SEQUENTIAL_PER_CENTER_REQUESTS = 379
SEQUENTIAL_PER_CENTER_ROUNDS = 40


def test_pipelined_subgraphs_cost_fewer_rounds(handler, events):
    centers = _probe_nodes(events, 10)
    requests = rounds = 0
    sim_ms = 0.0
    for center in centers:  # one shared timeline per center
        _, one = handler.retrieve_subgraphs([center], 1, TS, TE)
        requests += one.requests
        rounds += one.rounds
        sim_ms += one.sim_time_ms
    _, stats = handler.retrieve_subgraphs(centers, 1, TS, TE)
    # the chunks' shared frontier beats a timeline per center, which in
    # turn beats the sequential per-center schedule
    assert stats.rounds < rounds <= SEQUENTIAL_PER_CENTER_ROUNDS
    assert stats.requests < requests <= SEQUENTIAL_PER_CENTER_REQUESTS
    assert stats.sim_time_ms < sim_ms
    assert stats.coalesced_hits > 0


def test_pipelined_warm_cache_hits_identical(events):
    """With a warm delta cache every row is served locally."""
    tgi = make_tgi(events, delta_cache_entries=65536)
    handler = TGIHandler(tgi, SparkContext(num_workers=2))
    centers = _probe_nodes(events, 8)
    _, cold = handler.retrieve_subgraphs(centers, 1, TS, TE)
    _, warm = handler.retrieve_subgraphs(centers, 1, TS, TE)
    assert cold.requests > 0
    assert warm.requests == 0 and warm.rounds == 0
    assert warm.sim_time_ms == 0.0
    # every row the cold fetch read or shared is now a cache hit
    assert warm.cache_hits == (
        cold.requests + cold.cache_hits + cold.coalesced_hits
    )


def test_subgraph_merges_khop_probe_stats_for_late_center(tgi, events):
    """A center alive in (ts, te] but dead at ts keeps the accounting of
    the k-hop probe that discovered it dead."""
    late = _late_center(tgi, events)
    handler = TGIHandler(tgi, SparkContext(num_workers=2))

    # expected accounting: every key the direct calls ask for is, on
    # fetch_subgraph's shared timeline, either fetched (once) or served
    # from a flight already made for another stage
    asked, keys = 0, set()

    def note(stats):
        nonlocal asked
        asked += stats.num_requests + stats.coalesced_hits
        keys.update(r.key for r in stats.requests)

    histories, fetch = tgi.retrieve_node_histories([late], TS, TE)
    note(fetch)
    assert histories[0].initial is None and histories[0].events
    from repro.taf.handler import _neighbors_over_time
    from repro.taf.node_t import NodeT

    nbrs = sorted(_neighbors_over_time(NodeT(histories[0])))
    if nbrs:
        note(tgi.retrieve_node_histories(nbrs, TS, TE)[1])
    dead, probe = tgi.retrieve_khops([late], TS, k=1)
    assert dead == [None]
    assert probe.num_requests > 0  # the probe did fetch
    note(probe)

    (sg,), stats = handler.retrieve_subgraphs([late], 1, TS, TE)
    assert stats.requests == len(keys)
    assert stats.requests + stats.coalesced_hits == asked
