"""Tests for the fetch-plan execution layer (repro.exec) and the batched
node-history retrieval built on it."""

import pytest

from repro.exec import DeltaCache, FetchPlan, FetchStage, KeyGroup, PlanExecutor
from repro.index.tgi import TGI, TGIConfig, TGIPlanner
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.spark.rdd import SparkContext
from repro.taf.handler import TGIHandler
from tests.helpers import random_history


# -- DeltaCache --------------------------------------------------------------

def test_cache_hit_miss_counters():
    cache = DeltaCache(max_entries=4)
    assert cache.lookup(("a",)) is None
    cache.admit(("a",), "va", stored_bytes=100, raw_bytes=120)
    row = cache.lookup(("a",))
    assert row is not None and row.value == "va"
    stats = cache.stats()
    assert stats.hits == 1 and stats.misses == 1
    assert stats.bytes_saved == 100
    assert stats.hit_rate == 0.5


def test_cache_lru_eviction_order():
    cache = DeltaCache(max_entries=2)
    cache.admit(("a",), 1, 10, 10)
    cache.admit(("b",), 2, 10, 10)
    cache.lookup(("a",))          # a is now most recently used
    cache.admit(("c",), 3, 10, 10)  # evicts b
    assert ("a",) in cache and ("c",) in cache
    assert ("b",) not in cache
    assert cache.stats().evictions == 1


def test_cache_capacity_bound():
    cache = DeltaCache(max_entries=3)
    for i in range(10):
        cache.admit((i,), i, 1, 1)
    assert len(cache) == 3
    assert cache.stats().evictions == 7


def test_cache_clear_keeps_counters():
    cache = DeltaCache(max_entries=2)
    cache.admit(("a",), 1, 10, 10)
    cache.lookup(("a",))
    cache.clear()
    assert len(cache) == 0
    assert cache.stats().hits == 1


def test_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        DeltaCache(0)


# -- PlanExecutor ------------------------------------------------------------

def _loaded_cluster(rows=12):
    cluster = Cluster(ClusterConfig(num_machines=2))
    keys = [(0, i % 4, ("S", 0), i) for i in range(rows)]
    for key in keys:
        cluster.put(key, {"row": key[3]})
    return cluster, keys


def test_executor_coalesces_stage_into_one_round():
    cluster, keys = _loaded_cluster()
    plan = FetchPlan("q")
    plan.add_stage(
        "stage1",
        KeyGroup("left", tuple(keys[:6])),
        KeyGroup("right", tuple(keys[6:])),
    )
    result = PlanExecutor(cluster).execute(plan)
    assert result.stats.rounds == 1
    assert result.stats.num_requests == len(keys)
    assert result.values[keys[0]] == {"row": 0}
    assert [g.role for s in result.stages for g in s.groups] == [
        "left", "right"
    ]


def test_executor_runs_factory_stage_from_values():
    cluster, keys = _loaded_cluster()
    plan = FetchPlan("q")
    plan.add_stage("stage1", KeyGroup("seed", (keys[0],)))

    def followup(values):
        row = values[keys[0]]["row"]
        assert row == 0
        return FetchStage("stage2", (KeyGroup("derived", (keys[1],)),))

    plan.add_factory(followup)
    result = PlanExecutor(cluster).execute(plan)
    assert result.stats.rounds == 2
    assert keys[1] in result.values


def test_executor_skips_none_factory():
    cluster, keys = _loaded_cluster()
    plan = FetchPlan("q")
    plan.add_stage("stage1", KeyGroup("seed", (keys[0],)))
    plan.add_factory(lambda values: None)
    result = PlanExecutor(cluster).execute(plan)
    assert result.stats.rounds == 1


def test_executor_empty_stage_issues_no_round():
    cluster, _keys = _loaded_cluster()
    plan = FetchPlan("q")
    plan.add_stage("empty", KeyGroup("nothing", ()))
    result = PlanExecutor(cluster).execute(plan)
    assert result.stats.rounds == 0 and result.stats.num_requests == 0


def test_executor_cache_serves_repeat_fetches():
    cluster, keys = _loaded_cluster()
    cache = DeltaCache(max_entries=64)
    ex = PlanExecutor(cluster, cache)
    first = ex.fetch(keys)
    assert first.stats.cache_hits == 0
    assert first.stats.cache_misses == len(keys)
    second = ex.fetch(keys)
    assert second.stats.cache_hits == len(keys)
    assert second.stats.num_requests == 0 and second.stats.rounds == 0
    assert second.stats.cache_bytes_saved == first.stats.bytes_read
    assert second.values == first.values


def test_executor_without_cache_refetches():
    cluster, keys = _loaded_cluster()
    ex = PlanExecutor(cluster)
    ex.fetch(keys)
    again = ex.fetch(keys)
    assert again.stats.num_requests == len(keys)
    assert again.stats.cache_hits == 0


# -- TGI through the execution layer -----------------------------------------

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


def test_batched_histories_match_per_node_loop(tgi, events):
    nodes = _probe_nodes(events)
    ts, te = 100, 450
    batched = tgi.get_node_histories(nodes, ts, te)
    singles = [tgi.get_node_history(n, ts, te) for n in nodes]
    assert batched == singles


def test_batched_histories_preserve_input_order_and_duplicates(tgi, events):
    nodes = _probe_nodes(events, 6)
    probe = [nodes[2], nodes[0], nodes[2], nodes[5]]
    out = tgi.get_node_histories(probe, 100, 450)
    assert [h.node for h in out] == probe
    assert out[0] == out[2]


def test_batched_histories_include_unknown_nodes(tgi):
    out = tgi.get_node_histories([999_999], 100, 450)
    assert out[0].initial is None and out[0].events == ()


def test_batched_issues_constant_rounds(tgi, events):
    """The acceptance criterion: N nodes in one span cost O(1) multiget
    rounds per stage, not O(N)."""
    few, few_stats = tgi.retrieve_node_histories(
        _probe_nodes(events, 5), 100, 450
    )
    many, many_stats = tgi.retrieve_node_histories(
        _probe_nodes(events, 40), 100, 450
    )
    assert len(many) == 8 * len(few)
    assert few_stats.rounds <= 2 and many_stats.rounds <= 2


def test_batched_fetches_fewer_requests_than_loop(tgi, events):
    nodes = _probe_nodes(events, 40)
    _, batched = tgi.retrieve_node_histories(nodes, 100, 450)
    loop_requests = 0
    loop_ms = 0.0
    for n in nodes:
        _, one = tgi.retrieve_node_history(n, 100, 450)
        loop_requests += one.num_requests
        loop_ms += one.sim_time_ms
    assert batched.num_requests < loop_requests
    assert batched.sim_time_ms < loop_ms


def test_cache_disabled_reproduces_uncached_fetch_counts(events):
    """With delta_cache_entries=0 every query re-reads its full plan: the
    request count equals the planner's key count on every repetition."""
    idx = make_tgi(events)  # default: cache disabled
    assert idx.delta_cache is None
    planner = TGIPlanner(idx)
    node = _probe_nodes(events, 1)[0]
    plan_keys = planner.plan_node_history(node, 100, 450).num_keys
    counts = []
    for _ in range(3):
        _, stats = idx.retrieve_node_history(node, 100, 450)
        assert stats.cache_hits == 0 and stats.cache_misses == 0
        counts.append(stats.num_requests)
    assert counts == [plan_keys] * 3


def test_cache_enabled_skips_repeat_reads(events):
    idx = make_tgi(events, delta_cache_entries=4096)
    node = _probe_nodes(events, 1)[0]
    _, cold = idx.retrieve_node_history(node, 100, 450)
    _, warm = idx.retrieve_node_history(node, 100, 450)
    assert cold.cache_misses == cold.num_requests > 0
    assert warm.num_requests == 0 and warm.rounds == 0
    # the warm run performs the same lookups; all of them hit
    assert warm.cache_hits == cold.cache_misses + cold.cache_hits
    assert warm.sim_time_ms == 0.0
    assert warm.cache_bytes_saved == cold.bytes_read + cold.cache_bytes_saved


def test_cache_does_not_change_results(events):
    from repro.graph.static import Graph

    cached = make_tgi(events, delta_cache_entries=4096)
    plain = make_tgi(events)
    nodes = _probe_nodes(events, 15)
    center = max(Graph.replay(events, until=450).nodes())
    for _ in range(2):  # second pass runs against a warm cache
        assert cached.get_node_histories(nodes, 100, 450) == (
            plain.get_node_histories(nodes, 100, 450)
        )
        assert cached.get_snapshot(450) == plain.get_snapshot(450)
        assert cached.get_khop(center, 450, k=2) == plain.get_khop(
            center, 450, k=2
        )


def test_cache_selectively_invalidated_on_update(events):
    """A batch update drops only the version-chain rows whose content
    changed; append-only timespan rows stay warm (the old behavior was a
    blanket ``clear()``)."""
    idx = make_tgi(events[:400], delta_cache_entries=4096)
    node = _probe_nodes(events, 1)[0]
    idx.get_node_history(node, 100, 390)
    warm_before = len(idx.delta_cache)
    assert warm_before > 0
    idx.update(events[400:])
    # span rows survive; only rewritten chains were invalidated
    assert len(idx.delta_cache) > 0
    from tests.helpers import assert_history_equivalent
    from repro.graph.static import Graph

    assert_history_equivalent(idx, events, node, 100, 480)
    assert idx.get_snapshot(480) == Graph.replay(events, until=480)


def test_snapshot_plan_still_matches_executed_fetch(tgi, events):
    planner = TGIPlanner(tgi)
    t = events[-1].time
    plan = planner.plan_snapshot(t)
    _, stats = tgi.retrieve_snapshot(t)
    assert plan.num_keys == stats.num_requests
    assert stats.rounds == 1


# -- TAF handler on the batched path -----------------------------------------

@pytest.fixture(scope="module")
def handler(tgi):
    return TGIHandler(tgi, SparkContext(num_workers=2))


def test_handler_fetch_rounds_scale_with_partitions_not_nodes(
    handler, tgi, events
):
    """A SoN fetch over N nodes costs O(partitions) rounds, not O(N)."""
    nodes = _probe_nodes(events, 40)
    parts = handler.sc.parallelize(nodes).num_partitions
    out, stats = handler.retrieve_node_histories(nodes, 100, 450)
    assert len(out) == len(nodes)
    assert stats.rounds <= 2 * parts
    assert stats.requests > 0 and stats.bytes_read > 0
    assert len(stats.partition_sim_ms) == parts


def test_handler_batched_histories_match_single_fetches(handler, tgi, events):
    nodes = _probe_nodes(events, 20)
    out = handler.fetch_node_histories(nodes, 100, 450)
    got = {nt.node_id: nt.history for nt in out}
    for n in nodes[:8]:
        assert got[n] == tgi.get_node_history(n, 100, 450)


def test_handler_subgraph_fetch_unchanged_semantics(handler, tgi, events):
    from repro.graph.static import Graph

    final = Graph.replay(events)
    center = max(final.nodes(), key=final.degree)
    t_end = events[-1].time
    sg = handler.fetch_subgraph(center, 1, 1, t_end)
    got = sg.get_version_at(t_end)
    want = final.khop_subgraph(center, 1)
    assert sorted(got.nodes()) == sorted(want.nodes())
    assert set(got.edges()) == set(want.edges())


def test_handler_subgraph_dead_center_returns_none(handler, events):
    assert handler.fetch_subgraph(999_999, 1, 100, 450) is None


def test_handler_subgraph_dead_center_reports_own_stats(handler, events):
    # a dead center accounts its own (empty) probe and nothing of the
    # real fetch that ran on the handler just before it
    _, before = handler.retrieve_node_histories(
        _probe_nodes(events, 10), 100, 450
    )
    assert before.requests > 0
    out, stats = handler.retrieve_subgraphs([999_999], 1, 100, 450)
    assert out == []
    assert stats.requests == 0  # unknown node: no pid, no version chain
