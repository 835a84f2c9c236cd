"""Tests for the build-time graph statistics subsystem (``repro/stats``):
collection, persistence, calibrated apply costs, stats-backed planner
bounds, nearest-in-time checkpoint seeding, and selective delta-cache
invalidation on update."""

import pickle

import pytest

from repro.exec import StateCheckpointCache
from repro.index.tgi import TGI, TGIConfig, TGIPlanner
from repro.index.tgi.layout import VC_TSID, version_chain_key
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.cost import (
    DEFAULT_APPLY_PER_KB_MS,
    DEFAULT_REPLAY_PER_ITEM_MS,
    CostModel,
)
from repro.session import GraphSession
from repro.stats import (
    ApplyCalibration,
    GraphStatistics,
    PartitionStats,
    TimespanStats,
    expected_khop_pids,
    prefer_near_seed,
)
from repro.storage import PersistenceError, load_index, save_index
from repro.workloads.citation import CitationConfig, generate_citation_events
from tests.helpers import random_history


@pytest.fixture(scope="module")
def citation_events():
    return generate_citation_events(
        CitationConfig(num_nodes=1200, citations_per_node=4, seed=42)
    )


@pytest.fixture(scope="module")
def citation_tgi(citation_events):
    tgi = TGI(TGIConfig(
        events_per_timespan=3000,
        eventlist_size=250,
        micro_partition_size=32,
        cluster=ClusterConfig(num_machines=4),
    ))
    tgi.build(citation_events)
    return tgi


@pytest.fixture(scope="module")
def history_events():
    return random_history(steps=500, seed=33)


def make_tgi(events, **overrides):
    defaults = dict(
        events_per_timespan=180,
        eventlist_size=30,
        micro_partition_size=12,
        cluster=ClusterConfig(num_machines=3),
    )
    defaults.update(overrides)
    tgi = TGI(TGIConfig(**defaults))
    tgi.build(events)
    return tgi


# -- collection ---------------------------------------------------------------

def test_collects_span_stats(citation_tgi, citation_events):
    stats = citation_tgi.stats
    assert len(stats.spans) == citation_tgi.num_timespans
    for tsid, span_info in enumerate(citation_tgi._spans):
        ss = stats.span(tsid)
        assert ss is not None
        assert ss.num_pids == span_info.num_pids
        # partition node counts sum to the span's collapsed node count
        assert sum(p.nodes for p in ss.partitions.values()) == ss.nodes
        # degree sums count each collapsed edge twice
        assert sum(p.degree_sum for p in ss.partitions.values()) == 2 * ss.edges
        # the event-rate histogram's row sums equal the per-pid counts
        for p in ss.partitions.values():
            assert sum(p.events_per_bucket) == p.events
        # cut weights are symmetric
        for pid, row in ss.cut_weights.items():
            for other, w in row.items():
                assert ss.cut_weights[other][pid] == w
        assert ss.avg_degree > 0


def test_events_between_histogram(citation_tgi):
    ss = citation_tgi.stats.span(0)
    some_pid = max(ss.partitions, key=lambda p: ss.partitions[p].events)
    whole = ss.events_between(some_pid, ss.t_start - 1, ss.t_end)
    assert whole == pytest.approx(ss.partitions[some_pid].events)
    mid = (ss.t_start + ss.t_end) // 2
    first = ss.events_between(some_pid, ss.t_start - 1, mid)
    second = ss.events_between(some_pid, mid, ss.t_end)
    assert first + second == pytest.approx(whole)
    assert ss.events_between(some_pid, mid, mid) == 0.0


def test_calibration_measured(citation_tgi):
    cal = citation_tgi.stats.calibration
    assert cal is not None
    assert cal.apply_per_kb_ms > 0
    assert cal.replay_per_item_ms > 0
    assert cal.sample_rows > 0 and cal.sample_items > 0


# -- persistence (format 5) ---------------------------------------------------

def test_roundtrip_persistence_bit_stable(citation_tgi, tmp_path):
    path = tmp_path / "stats.hgs"
    save_index(citation_tgi, path)
    loaded = load_index(path)
    assert isinstance(loaded.stats, GraphStatistics)
    assert loaded.stats.calibration == citation_tgi.stats.calibration
    assert loaded.stats.spans == citation_tgi.stats.spans
    # bit-stable: the loaded artifact re-serializes to identical bytes
    assert pickle.dumps(loaded.stats) == pickle.dumps(citation_tgi.stats)
    # and a reloaded index plans with the statistics
    t = loaded._t_max
    node = next(iter(loaded._spans[-1].node_pid))
    plan = TGIPlanner(loaded).plan_khop(node, t, k=1)
    assert plan.expected_keys is not None


def test_pre_stats_format_rejected(tmp_path):
    path = tmp_path / "old.hgs"
    path.write_bytes(pickle.dumps(
        {"magic": "hgs-index", "format": 4, "class": "TGI", "index": None}
    ))
    with pytest.raises(PersistenceError):
        load_index(path)


# -- calibrated apply constants ----------------------------------------------

def test_with_apply_accepts_calibration():
    cal = ApplyCalibration(0.5, 0.05)
    model = CostModel().with_apply(calibration=cal)
    assert model.apply_per_kb_ms == 0.5
    assert model.replay_per_item_ms == 0.05
    # no calibration: the fixed defaults, as before
    default = CostModel().with_apply()
    assert default.apply_per_kb_ms == DEFAULT_APPLY_PER_KB_MS
    assert default.replay_per_item_ms == DEFAULT_REPLAY_PER_ITEM_MS
    # explicit arguments outrank the calibration
    mixed = CostModel().with_apply(apply_per_kb_ms=9.0, calibration=cal)
    assert mixed.apply_per_kb_ms == 9.0
    assert mixed.replay_per_item_ms == 0.05


def test_use_calibrated_apply_switches_model(history_events):
    tgi = make_tgi(history_events)
    cal = tgi.stats.calibration
    assert not tgi.config.cluster.cost_model.costs_apply
    model = tgi.use_calibrated_apply()
    assert tgi.config.cluster.cost_model is model
    assert tgi.cluster.config.cost_model is model
    assert model.costs_apply
    assert model.apply_per_kb_ms == cal.apply_per_kb_ms
    assert model.replay_per_item_ms == cal.replay_per_item_ms
    assert tgi.retrieve_snapshot(450)[1].apply_ms > 0.0


# -- stats-backed planner bounds ----------------------------------------------

def test_khop_stats_bound_sound_and_tighter(citation_tgi, citation_events):
    """The sound bound (plan steps) covers every partition the lazy fetch
    actually touches; the expected set prices strictly fewer keys than
    the whole-span fallback."""
    tgi = citation_tgi
    planner = TGIPlanner(tgi)
    t = citation_events[-1].time
    span = tgi._span_at(t)
    path_groups, ekeys = tgi._snapshot_plan(
        span, t, pids=set(range(span.num_pids))
    )
    whole_span_keys = sum(len(g) for g in path_groups) + len(ekeys)
    centers = sorted(span.node_pid)[:8]
    tightened = 0
    for center in centers:
        plan = planner.plan_khop(center, t, k=1)
        assert plan.expected_keys is not None
        # expected ⊆ sound bound ⊆ whole-span
        assert set(plan.expected_keys) <= set(plan.keys())
        assert plan.num_keys <= whole_span_keys
        if len(plan.expected_keys) < whole_span_keys:
            tightened += 1
        # sound bound covers the partitions actually touched
        _, stats = tgi.retrieve_khop(center, t, k=1)
        touched = {r.key[3] for r in stats.requests}
        bound_pids = {key[3] for key in plan.keys()}
        assert touched <= bound_pids
    assert tightened > 0  # the stats bound is not the whole-span fallback


def test_expected_khop_pids_start_partition_first(citation_tgi):
    ss = citation_tgi.stats.span(0)
    pid0 = next(iter(ss.partitions))
    est = expected_khop_pids(ss, pid0, 2)
    assert est.pids[0] == pid0
    assert len(est.pids) <= est.candidates
    assert est.reached_nodes >= 1.0


def test_auto_selection_uses_expected_pricing(citation_tgi, citation_events):
    """Without boundary replication, auto used to see identical key sets
    for both algorithms and pick khop only on the tie-break; the stats
    bound makes the targeted candidate genuinely cheaper."""
    s = GraphSession.from_index(citation_tgi)
    t = citation_events[-1].time
    center = sorted(citation_tgi._span_at(t).node_pid)[3]
    result = s.at(t).khop(center, k=1)
    cands = result.stats.candidates
    assert cands["khop"] < cands["snapshot-first"]  # strict, not a tie
    assert result.stats.algorithm == "khop"


def test_explain_lists_candidate_notes(citation_tgi, citation_events):
    from repro.api import QueryRequest

    s = GraphSession.from_index(citation_tgi)
    t = citation_events[-1].time
    center = sorted(citation_tgi._span_at(t).node_pid)[3]
    text = s.explain(QueryRequest(kind="khop", t=t, nodes=(center,), k=1,
                                  single=True))
    assert "candidates:" in text
    assert "chosen" in text and "rejected (+" in text
    assert "stats bound" in text


# -- nearest-in-time checkpoint seeding ---------------------------------------

def test_checkpoint_cache_nearest_and_series():
    cache = StateCheckpointCache(8)
    for t in (10, 20, 30):
        cache.admit(("s", t), {"t": t}, series=("s",), t=t)
    assert cache.nearest(("s",), 25) == (20, ("s", 20))
    assert cache.nearest(("s",), 30) == (30, ("s", 30))
    assert cache.nearest(("s",), 5) is None
    assert cache.nearest(("other",), 25) is None
    cache.invalidate(("s", 20))
    assert cache.nearest(("s",), 25) == (10, ("s", 10))
    cache.clear()
    assert cache.nearest(("s",), 25) is None


def test_checkpoint_cache_eviction_prunes_series():
    cache = StateCheckpointCache(2)
    cache.admit(("s", 1), {}, series=("s",), t=1)
    cache.admit(("s", 2), {}, series=("s",), t=2)
    cache.admit(("s", 3), {}, series=("s",), t=3)  # evicts t=1
    assert cache.nearest(("s",), 1) is None
    assert cache.nearest(("s",), 9) == (3, ("s", 3))


def two_partition_span():
    """Bucket-aligned inputs, so every cost term is an exact number:
    buckets of width 10 over (0, 40]; partition 0 is small and steady,
    partition 1 large and busy late."""
    def part(pid, nodes, internal, cut, buckets):
        return PartitionStats(
            pid=pid, nodes=nodes, internal_edges=internal, cut_edges=cut,
            degree_sum=0, degree_max=0, events=sum(buckets),
            events_per_bucket=buckets,
        )

    return TimespanStats(
        tsid=0, t_start=1, t_end=40, nodes=50, edges=39, num_pids=2,
        events=56, bucket_bounds=(0.0, 10.0, 20.0, 30.0, 40.0),
        partitions={
            0: part(0, 10, 5, 2, (4, 4, 4, 4)),
            1: part(1, 40, 30, 2, (0, 0, 20, 20)),
        },
        cut_weights={0: {1: 2}, 1: {0: 2}},
    )


def test_prefer_near_seed_is_one_rule_over_the_pids_given():
    """Seed at t0=20, query at t=40, cold path replaying from the leaf at
    10, 1 ms per key and 0.5 ms per replayed item.  Per partition:
    p0 gap 8 events, cold 17 state items + 12 events; p1 gap 40, cold
    72 + 40.  Ten cold keys on the other side of the scale."""
    span = two_partition_span()
    model = CostModel(seek_ms=0.75, rtt_ms=0.25, replay_per_item_ms=0.5)

    def verdict(pids, gap_keys):
        return prefer_near_seed(
            span, pids, 20, 40, 10, gap_keys, model, leaf_time=10
        )

    # one partition: the verdicts the per-partition rule gave before it
    # took a pid tuple (measured at the parent commit on these inputs):
    # p0 is n + 4 < 24.5, p1 is n + 20 < 66
    assert verdict((0,), 20) is True
    assert verdict((0,), 21) is False
    assert verdict((1,), 46) is False
    assert verdict((1,), 45) is True
    # both (a snapshot's extent): the terms sum — n + 24 < 10 + 70.5 —
    # so the verdict flips between 56 and 57 gap keys, past where
    # either partition alone flips
    assert [verdict((0, 1), n) for n in (46, 56, 57, 70)] == [
        True, True, False, False
    ]
    # a pid the statistics do not know adds nothing to either side
    assert verdict((0, 1, 7), 56) is True and verdict((0, 1, 7), 57) is False


def test_prefer_near_seed_without_statistics_compares_key_counts():
    model = CostModel()
    for pids in ((0,), (0, 1), range(5)):
        assert prefer_near_seed(None, pids, 20, 40, 10, 9, model) is True
        assert prefer_near_seed(None, pids, 20, 40, 10, 10, model) is False


def test_near_seed_khop_parity_and_fewer_requests(history_events):
    cold = make_tgi(history_events)
    warm = make_tgi(history_events, checkpoint_entries=512)
    span = warm._spans[-1]
    t1 = (span.t_start + span.t_end * 3) // 4
    t2 = min(t1 + 6, warm._t_max)
    assert warm._span_at(t1).tsid == warm._span_at(t2).tsid
    assert t1 < t2
    center = sorted(span.node_pid)[3]
    warm.get_khop(center, t1, k=2)  # checkpoints partition states at t1
    want = cold.get_khop(center, t2, k=2)
    cold_requests = cold.retrieve_khop(center, t2, k=2)[1].num_requests
    got, stats = warm.retrieve_khop(center, t2, k=2)
    assert stats.checkpoint_near_hits > 0
    assert stats.num_requests < cold_requests
    assert got == want  # member- and edge-identical to a cold replay


def test_near_seed_histories_parity(history_events):
    cold = make_tgi(history_events)
    warm = make_tgi(history_events, checkpoint_entries=512)
    span = warm._spans[-1]
    t1 = (span.t_start + span.t_end * 3) // 4
    t2 = min(t1 + 6, warm._t_max)
    nodes = sorted(span.node_pid)[:20]
    warm.get_node_histories(nodes, t1, warm._t_max)
    want = cold.get_node_histories(nodes, t2, cold._t_max)
    got, stats = warm.retrieve_node_histories(nodes, t2, warm._t_max)
    assert got == want
    assert stats.checkpoint_near_hits > 0


def test_near_seed_admits_advanced_state(history_events):
    """A near-seeded replay admits the advanced state, so repeating the
    query at t2 is an exact hit with zero fetches."""
    warm = make_tgi(history_events, checkpoint_entries=512)
    span = warm._spans[-1]
    t1 = (span.t_start + span.t_end * 3) // 4
    t2 = min(t1 + 6, warm._t_max)
    center = sorted(span.node_pid)[3]
    warm.get_khop(center, t1, k=2)
    first, near = warm.retrieve_khop(center, t2, k=2)
    assert near.checkpoint_near_hits > 0
    second, exact = warm.retrieve_khop(center, t2, k=2)
    assert exact.num_requests == 0
    assert exact.checkpoint_hits > 0
    assert second == first


def test_planner_prices_near_seeding(history_events):
    warm = make_tgi(history_events, checkpoint_entries=512)
    span = warm._spans[-1]
    t1 = (span.t_start + span.t_end * 3) // 4
    t2 = min(t1 + 6, warm._t_max)
    center = sorted(span.node_pid)[3]
    planner = TGIPlanner(warm)
    cold_plan = planner.plan_khop(center, t2, k=2)
    warm.get_khop(center, t1, k=2)
    near_plan = planner.plan_khop(center, t2, k=2)
    assert near_plan.num_keys < cold_plan.num_keys
    assert any("near-seeded" in n for n in near_plan.notes)


# -- selective delta-cache invalidation on update -----------------------------

def test_update_invalidates_only_changed_chains(history_events):
    events = history_events
    idx = make_tgi(events[:400], delta_cache_entries=4096)
    nodes = sorted({ev.node for ev in events[:400]})[:25]
    _, warm_stats = idx.retrieve_node_histories(nodes, 100, 390)
    warm_keys = {r.key for r in warm_stats.requests}
    span_keys = {k for k in warm_keys if k[0] != VC_TSID}
    chain_keys = {k for k in warm_keys if k[0] == VC_TSID}
    assert span_keys and chain_keys
    updated_nodes = {ev.node for ev in events[400:]} | {
        ev.other for ev in events[400:] if ev.other is not None
    }
    changed = {
        version_chain_key(n, idx.config.placement_groups)
        for n in updated_nodes
    }
    idx.update(events[400:])
    # append-only span rows survive the update...
    for key in span_keys:
        assert key in idx.delta_cache
    # ...while every cached chain row that gained pointers was dropped,
    # and chains the update never touched stay warm
    for key in chain_keys:
        assert (key in idx.delta_cache) == (key not in changed)
    assert idx.delta_cache.stats().invalidations > 0
