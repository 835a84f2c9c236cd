"""Tests for the costed apply stage, the materialized-state checkpoint
cache, the size-aware/bytes-bounded delta cache, the registry lifecycle,
and the session's selection feedback loop."""

import gc
import pickle

import pytest

from repro.errors import IndexError_
from repro.exec import (
    CacheRegistry,
    DeltaCache,
    FetchPlan,
    FetchStage,
    KeyGroup,
    PlanExecutor,
    StateCheckpointCache,
    shared_caches,
)
from repro.graph.static import Graph
from repro.index.tgi import TGI, TGIConfig, TGIPlanner
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.cost import CostModel
from repro.session import GraphSession
from repro.workloads.citation import CitationConfig, generate_citation_events
from tests.helpers import random_history, run_each_alone

APPLY = CostModel(apply_per_kb_ms=0.2, replay_per_item_ms=0.02)


# -- CostModel apply terms ----------------------------------------------------

def test_apply_time_terms():
    assert CostModel().costs_apply is False
    assert APPLY.costs_apply is True
    assert APPLY.apply_time(1024, 10) == pytest.approx(0.2 + 0.2)
    # decoded rows skip the decode term, not the replay term
    assert APPLY.apply_time(1024, 10, decoded=True) == pytest.approx(0.2)
    assert CostModel().apply_time(1024, 10) == 0.0
    assert APPLY.with_apply() is not APPLY  # preset returns a new model
    assert CostModel().with_apply().costs_apply


def test_estimated_apply_time_uses_item_proxy():
    model = CostModel(apply_per_kb_ms=0.2, replay_per_item_ms=0.02,
                      replay_items_per_kb=5.0)
    # 2 KiB -> decode 0.4 + replay of ~10 proxied items
    assert model.estimated_apply_time(2048) == pytest.approx(0.4 + 0.2)


# -- executor: costed apply, overlapped within one plan ----------------------

def _loaded_cluster(model, rows=24, machines=3):
    cluster = Cluster(ClusterConfig(num_machines=machines, cost_model=model))
    keys = [(i % 4, i % 2, ("S", 0), i) for i in range(rows)]
    for key in keys:
        cluster.put(key, [i for i in range(key[3] + 1)])
    return cluster, keys


def _two_stage_plan(keys, label="p"):
    plan = FetchPlan(label)
    plan.add_stage(f"{label}-1", KeyGroup("rows", tuple(keys[:-2])))
    plan.add_factory(
        lambda values, tail=tuple(keys[-2:]), lbl=label: FetchStage(
            f"{lbl}-2", (KeyGroup("derived", tail),)
        )
    )
    return plan


def test_lone_execute_charges_apply_on_its_own_lane():
    cluster, keys = _loaded_cluster(APPLY)
    plain_cluster, _ = _loaded_cluster(CostModel())
    costed = PlanExecutor(cluster).execute(_two_stage_plan(keys))
    plain = PlanExecutor(plain_cluster).execute(_two_stage_plan(keys))
    assert plain.stats.apply_ms == 0.0
    assert costed.stats.apply_ms > 0.0
    # same fetch work
    assert costed.stats.num_requests == plain.stats.num_requests
    assert costed.stats.rounds == plain.stats.rounds
    # each row was charged decode + replay of its item count
    expected = sum(
        APPLY.apply_time(r.raw_bytes, len(costed.values[r.key]))
        for r in costed.stats.requests
    )
    assert costed.stats.apply_ms == pytest.approx(expected)
    # the apply rides the plan's own lane beside its fetch chain: it
    # delays completion, but by less than the serial fetch + apply sum,
    # and overlap_saved_ms is exactly the difference
    serial = plain.stats.sim_time_ms + costed.stats.apply_ms
    assert plain.stats.sim_time_ms < costed.stats.sim_time_ms < serial
    assert costed.stats.overlap_saved_ms == pytest.approx(
        serial - costed.stats.sim_time_ms
    )


def test_pipelined_apply_overlaps_next_fetch_round():
    """Within ONE plan, a stage's apply overlaps the next fetch round,
    so the makespan undercuts the serial fetch+apply sum — whether the
    plan runs through ``execute`` or as ``execute_many`` of one."""
    cluster, keys = _loaded_cluster(APPLY)
    lone = PlanExecutor(cluster).execute(_two_stage_plan(keys))
    pipe = PlanExecutor(cluster).execute_many([_two_stage_plan(keys)])
    fetch_only = PlanExecutor(
        _loaded_cluster(CostModel())[0]
    ).execute_many([_two_stage_plan(keys)])
    assert lone.stats == pipe.results[0].stats
    assert pipe.stats.apply_ms == pytest.approx(lone.stats.apply_ms)
    serial = fetch_only.stats.sim_time_ms + pipe.stats.apply_ms
    assert pipe.stats.sim_time_ms < serial
    assert pipe.stats.overlap_saved_ms > 0.0
    # but apply cannot finish before its payload arrived: completion is
    # at least the fetch chain plus the *last* stage's apply share
    assert pipe.stats.sim_time_ms > fetch_only.stats.sim_time_ms
    # the timeline records the apply lanes
    assert any(r.lane is not None for r in pipe.timeline.rounds)


def test_zero_apply_model_is_bit_identical_across_pipeline_matrix():
    """Satellite: with apply cost 0 and checkpoints off, accounting is
    bit-identical to the fetch-only model, pipelined or not."""
    explicit_zero = CostModel(apply_per_kb_ms=0.0, replay_per_item_ms=0.0)

    def stats(model, together):
        cluster, keys = _loaded_cluster(model)
        executor = PlanExecutor(cluster)
        plans = [_two_stage_plan(keys, "x"), _two_stage_plan(keys, "y")]
        if together:
            return executor.execute_many(plans).stats
        return run_each_alone(executor, plans)[1]

    for together in (False, True):
        a = stats(CostModel(), together)
        b = stats(explicit_zero, together)
        assert a.sim_time_ms == b.sim_time_ms
        assert a.rounds == b.rounds
        assert a.bytes_read == b.bytes_read
        assert a.apply_ms == b.apply_ms == 0.0
        assert a.overlap_saved_ms == b.overlap_saved_ms


def test_cache_hits_still_pay_replay_but_not_decode():
    cluster, keys = _loaded_cluster(APPLY)
    ex = PlanExecutor(cluster, DeltaCache(256))
    cold = ex.fetch(keys)
    warm = ex.fetch(keys)
    assert warm.stats.num_requests == 0
    assert 0.0 < warm.stats.apply_ms < cold.stats.apply_ms
    # warm sim time is pure apply (no store rounds)
    assert warm.stats.sim_time_ms == pytest.approx(warm.stats.apply_ms)


# -- TGI end-to-end: apply-cost parity ---------------------------------------

@pytest.fixture(scope="module")
def events():
    return random_history(steps=500, seed=33)


def make_tgi(events, model=None, **overrides):
    defaults = dict(
        events_per_timespan=180,
        eventlist_size=30,
        micro_partition_size=12,
    )
    defaults.update(overrides)
    cluster = overrides.get("cluster")
    if cluster is None and model is not None:
        defaults["cluster"] = ClusterConfig(
            num_machines=3, cost_model=model
        )
    idx = TGI(TGIConfig(**defaults))
    idx.build(events)
    return idx


def test_apply_cost_changes_only_time_accounting(events):
    plain = make_tgi(events, model=CostModel())
    costed = make_tgi(events, model=APPLY)
    nodes = sorted({ev.node for ev in events})[:20]
    plain_snap, plain_stats = plain.retrieve_snapshot(450)
    costed_snap, costed_stats = costed.retrieve_snapshot(450)
    assert plain_snap == costed_snap
    assert plain_stats.num_requests == costed_stats.num_requests
    assert costed_stats.apply_ms > 0.0
    plain_hist, plain_stats = plain.retrieve_node_histories(nodes, 100, 450)
    costed_hist, costed_stats = costed.retrieve_node_histories(
        nodes, 100, 450
    )
    assert plain_hist == costed_hist
    assert plain_stats.rounds == costed_stats.rounds
    assert plain_stats.bytes_read == costed_stats.bytes_read
    # apply overlaps the plan's next round: completion grows by at most
    # the apply time, and what overlap won back is reported as such
    serial = plain_stats.sim_time_ms + costed_stats.apply_ms
    assert plain_stats.sim_time_ms < costed_stats.sim_time_ms <= serial
    assert costed_stats.sim_time_ms + costed_stats.overlap_saved_ms == (
        pytest.approx(serial)
    )


# -- TGI end-to-end: checkpoint-seeded replay --------------------------------

def test_checkpoint_snapshot_warm_path(events):
    cold = make_tgi(events)
    warm = make_tgi(events, checkpoint_entries=256)
    first, stats = warm.retrieve_snapshot(450)
    assert stats.checkpoint_misses == 1
    assert first == cold.get_snapshot(450)
    second, stats = warm.retrieve_snapshot(450)
    assert second == first
    assert stats.num_requests == 0
    assert stats.rounds == 0
    assert stats.checkpoint_hits == 1
    assert stats.sim_time_ms == 0.0


def test_checkpoint_snapshot_copy_on_read(events):
    tgi = make_tgi(events, checkpoint_entries=256)
    g = tgi.get_snapshot(450)
    g.add_node(10**6, {"rogue": True})  # mutate the returned graph
    again = tgi.get_snapshot(450)
    assert not again.has_node(10**6)
    assert again == make_tgi(events).get_snapshot(450)
    again.add_node(10**6 + 1)
    assert not tgi.get_snapshot(450).has_node(10**6 + 1)


def test_checkpoint_khop_member_identical_and_cheaper(events):
    cold = make_tgi(events)
    warm = make_tgi(events, checkpoint_entries=512)
    nodes = sorted({ev.node for ev in events})[:15]
    center = nodes[3]
    want = cold.get_khop(center, 450, k=2)
    first, stats = warm.retrieve_khop(center, 450, k=2)
    cold_requests = stats.num_requests
    assert stats.checkpoint_misses > 0
    assert first == want
    second, stats = warm.retrieve_khop(center, 450, k=2)
    assert second == want
    assert stats.num_requests == 0 < cold_requests
    assert stats.checkpoint_hits > 0
    # the shared-frontier batch seeds from the same checkpoints
    batched, stats = warm.retrieve_khops(nodes, 450, k=2)
    assert stats.checkpoint_hits > 0
    for node, got in zip(nodes, batched):
        try:
            assert got == cold.get_khop(node, 450, k=2)
        except IndexError_:
            assert got is None


def test_checkpoint_histories_member_identical_and_cheaper(events):
    cold = make_tgi(events)
    warm = make_tgi(events, checkpoint_entries=512)
    nodes = sorted({ev.node for ev in events})[:25]
    want = cold.get_node_histories(nodes, 100, 450)
    got, cold_stats = warm.retrieve_node_histories(nodes, 100, 450)
    assert got == want
    cold_requests = cold_stats.num_requests
    got, warm_stats = warm.retrieve_node_histories(nodes, 100, 450)
    assert got == want
    # micro paths + initial eventlists are seeded; only chains remain
    assert 0 < warm_stats.num_requests < cold_requests
    assert warm_stats.checkpoint_hits > 0


def test_checkpoints_shared_across_query_kinds(events):
    """A partition state replayed for histories at ts seeds a later k-hop
    at the same time point (the keys agree on (tsid, pid, t, aux))."""
    tgi = make_tgi(events, checkpoint_entries=512)
    nodes = sorted({ev.node for ev in events})[:25]
    tgi.get_node_histories(nodes, 100, 450)
    center = nodes[3]
    assert tgi.retrieve_khop(center, 100, k=1)[1].checkpoint_hits > 0


def test_checkpoints_survive_update(events):
    """Timespans are append-only, so existing checkpoints stay valid
    across a batch update."""
    warm = make_tgi(events[:400], checkpoint_entries=256)
    t = events[399].time
    before = warm.get_snapshot(t)
    warm.update(events[400:])
    after, stats = warm.retrieve_snapshot(t)
    assert after == before
    assert stats.checkpoint_hits == 1
    fresh = make_tgi(events)
    assert warm.get_snapshot(480) == fresh.get_snapshot(480)


def test_checkpoint_planner_prices_warm_paths(events):
    tgi = make_tgi(events, checkpoint_entries=512)
    planner = TGIPlanner(tgi)
    center = sorted({ev.node for ev in events})[3]
    cold_plan = planner.plan_khop(center, 450, k=2)
    tgi.get_khop(center, 450, k=2)
    warm_plan = planner.plan_khop(center, 450, k=2)
    assert warm_plan.num_keys < cold_plan.num_keys
    assert any("checkpoint-seeded" in n for n in warm_plan.notes)
    # snapshot plan collapses to zero once the snapshot is materialized
    tgi.get_snapshot(450)
    snap_plan = planner.plan_snapshot(450)
    assert snap_plan.num_keys == 0
    assert any("warm" in n for n in snap_plan.notes)


def test_session_auto_selects_warm_materialized_snapshot(events):
    tgi = make_tgi(events, checkpoint_entries=512)
    s = GraphSession.from_index(tgi)
    center = sorted({ev.node for ev in events})[3]
    t = 450
    s.at(t).snapshot()  # warms the materialized snapshot
    result = s.at(t).khop(center, k=2)
    assert result.stats.algorithm == "snapshot-first"
    assert result.stats.requests == 0
    assert result.stats.checkpoint_hits == 1
    want = make_tgi(events).get_khop(center, t, k=2)
    assert sorted(result.value.nodes()) == sorted(want.nodes())


# -- delta cache bounds -------------------------------------------------------

def test_delta_cache_requires_some_bound():
    with pytest.raises(ValueError):
        DeltaCache(0)
    with pytest.raises(ValueError):
        DeltaCache(-1)


def test_delta_cache_readmission_updates_bytes():
    cache = DeltaCache(max_entries=4)
    cache.admit(("a",), 1, stored_bytes=100, raw_bytes=100)
    cache.admit(("a",), 2, stored_bytes=300, raw_bytes=300)
    assert cache.bytes_cached == 300
    cache.invalidate(("a",))
    assert cache.bytes_cached == 0


# -- StateCheckpointCache unit ------------------------------------------------

def test_checkpoint_cache_shares_payloads_and_lru():
    """The cache never copies: ``admit`` takes the object it is given and
    every ``lookup`` returns that same object (readers copy before they
    mutate)."""
    cache = StateCheckpointCache(2)
    payload = {"x": 1}
    cache.admit(("a",), payload)
    assert cache.lookup(("a",)) is payload
    assert cache.lookup(("a",)) is payload
    assert cache.stats().hits == 2
    assert cache.lookup(("b",)) is None and cache.stats().misses == 1
    assert cache.peek(("b",)) is False  # peek does not count
    assert cache.stats().misses == 1
    cache.admit(("b",), {})
    cache.lookup(("a",))  # promote a
    cache.admit(("c",), {})  # evicts b
    assert ("b",) not in cache and ("a",) in cache
    assert cache.stats().evictions == 1
    with pytest.raises(ValueError):
        StateCheckpointCache(0)


@pytest.fixture
def gc_thresholds():
    saved = gc.get_threshold()
    yield
    gc.set_threshold(*saved)


@pytest.mark.skipif(
    gc.get_threshold()[2] == 0, reason="this collector has no full cadence"
)
def test_checkpoint_cache_makes_full_collections_rare(gc_thresholds):
    """A live cache (built or unpickled) raises the full-collection
    cadence only: never the young thresholds, never a cadence the
    application already set higher, never a disabled collector."""
    from repro.exec.cache import FULL_COLLECTION_EVERY

    gc.set_threshold(700, 10, 10)
    cache = StateCheckpointCache(2)
    assert gc.get_threshold() == (700, 10, FULL_COLLECTION_EVERY)
    gc.set_threshold(500, 7, 10)
    pickle.loads(pickle.dumps(cache))
    assert gc.get_threshold() == (500, 7, FULL_COLLECTION_EVERY)
    gc.set_threshold(700, 10, 10 * FULL_COLLECTION_EVERY)
    StateCheckpointCache(2)
    assert gc.get_threshold() == (700, 10, 10 * FULL_COLLECTION_EVERY)
    gc.set_threshold(0, 10, 10)  # threshold0 == 0 switches collection off
    StateCheckpointCache(2)
    assert gc.get_threshold() == (0, 10, FULL_COLLECTION_EVERY)
    gc.set_threshold(700, 10, 10)
    DeltaCache(4)
    assert gc.get_threshold() == (700, 10, 10)


# -- registry lifecycle -------------------------------------------------------

def test_registry_refcounted_release_drops_slot():
    reg = CacheRegistry()
    slot = reg.acquire("idx", delta_entries=8)
    again = reg.acquire("idx", delta_entries=8)
    assert again is slot and slot.refs == 2
    reg.release("idx")
    assert "idx" in reg
    reg.release("idx")
    assert "idx" not in reg


def test_registry_slot_grows_checkpoints_in_place():
    reg = CacheRegistry()
    slot = reg.acquire("idx", delta_entries=8)
    assert slot.checkpoints is None
    slot2 = reg.acquire("idx", checkpoint_entries=16)
    assert slot2 is slot and slot.checkpoints is not None
    assert slot.delta is not None  # first consumer's cache retained


def test_session_close_releases_registry(tmp_path, events):
    from repro import open_graph, save_index

    shared_caches.clear()
    path = tmp_path / "ckpt.hgs"
    save_index(make_tgi(events, delta_cache_entries=512,
                        checkpoint_entries=64), path)
    s1 = open_graph(path)
    with open_graph(path) as s2:
        assert s2.cache is s1.cache
        assert s2.checkpoint_cache is s1.checkpoint_cache
        assert len(shared_caches) == 1
    assert len(shared_caches) == 1  # s1 still holds a reference
    s1.close()
    s1.close()  # idempotent
    assert len(shared_caches) == 0
    shared_caches.clear()


# -- selection feedback loop --------------------------------------------------

@pytest.fixture(scope="module")
def citation_events():
    return generate_citation_events(
        CitationConfig(num_nodes=250, citations_per_node=4, seed=42)
    )


def _session(events, **overrides):
    defaults = dict(
        events_per_timespan=1200,
        eventlist_size=150,
        micro_partition_size=32,
        cluster=ClusterConfig(num_machines=4),
    )
    defaults.update(overrides)
    tgi = TGI(TGIConfig(**defaults))
    tgi.build(events)
    return GraphSession.from_index(tgi)


def test_ewma_correction_learns_from_mispredictions(citation_events):
    s = _session(citation_events)
    te = citation_events[-1].time
    r1 = s.between(te // 3, te).node_histories(list(range(30)))
    # batched histories are priced as one round, so the chained
    # version-pointer round makes the prediction an underestimate
    factor = s.metrics.corrections().get("batched-histories")
    assert factor is not None and factor != 1.0
    r2 = s.between(te // 3, te).node_histories(list(range(30)))
    # the second prediction is the raw price scaled by the learned factor
    assert r2.stats.predicted_ms == pytest.approx(
        r1.stats.predicted_ms * factor
    )
    # and it moved toward the (identical, uncached) actual cost
    assert abs(r2.stats.predicted_ms - r2.stats.actual_ms) < abs(
        r1.stats.predicted_ms - r1.stats.actual_ms
    )


def test_ewma_correction_scales_khop_candidates(citation_events):
    s = _session(citation_events)
    te = citation_events[-1].time
    first = s.at(te).khop(5, k=2, algorithm="khop")
    factor = s.metrics.corrections()["khop"]
    assert factor != 1.0
    second = s.at(te).khop(5, k=2, algorithm="khop")
    assert second.stats.candidates["khop"] == pytest.approx(
        first.stats.candidates["khop"] * factor
    )
    # snapshot-first was never executed: its pricing stays uncorrected
    assert second.stats.candidates["snapshot-first"] == pytest.approx(
        first.stats.candidates["snapshot-first"]
    )


def test_exact_predictions_leave_correction_at_one(citation_events):
    s = _session(citation_events)
    t = citation_events[-1].time // 2
    s.at(t).snapshot()
    s.at(t).snapshot()
    # snapshot plans are exact on an uncached session: ratio 1.0
    assert s.metrics.corrections()["snapshot"] == pytest.approx(1.0)
