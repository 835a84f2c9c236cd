"""Tests for the TGI query planner (EXPLAIN)."""

import pytest

from repro.errors import IndexError_
from repro.index.tgi import TGI, PartitioningStrategy, TGIConfig, TGIPlanner
from tests.helpers import random_history, small_tgi


@pytest.fixture(scope="module")
def setup():
    events = random_history(steps=300, seed=12)
    tgi = TGI(TGIConfig(events_per_timespan=120, eventlist_size=25,
                        micro_partition_size=8))
    tgi.build(events)
    return events, tgi, TGIPlanner(tgi)


def test_snapshot_plan_matches_actual_fetch(setup):
    events, tgi, planner = setup
    t = events[-1].time
    plan = planner.plan_snapshot(t)
    _, stats = tgi.retrieve_snapshot(t)
    assert plan.num_keys == stats.num_requests
    assert set(plan.all_keys()) == {r.key for r in stats.requests}


def test_node_history_plan_matches_actual_fetch(setup):
    events, tgi, planner = setup
    node = sorted({e.node for e in events})[0]
    plan = planner.plan_node_history(node, 100, 280)
    _, stats = tgi.retrieve_node_history(node, 100, 280)
    assert plan.num_keys == stats.num_requests


def test_khop_plan_is_superset_of_actual(setup):
    events, tgi, planner = setup
    from repro.graph.static import Graph

    t = events[-1].time
    g = Graph.replay(events)
    node = max(g.nodes(), key=g.degree)
    plan = planner.plan_khop(node, t, k=1)
    _, stats = tgi.retrieve_khop(node, t, k=1)
    actual = {r.key for r in stats.requests}
    assert actual <= set(plan.all_keys())


def test_khop_plan_unknown_node_raises(setup):
    _events, _tgi, planner = setup
    with pytest.raises(IndexError_):
        planner.plan_khop(999_999, 200, k=1)


def test_explain_renders(setup):
    events, _tgi, planner = setup
    text = planner.plan_snapshot(events[-1].time).explain()
    assert "QueryPlan[snapshot" in text
    assert "derived-snapshot path" in text


def test_plan_placements_bound_parallelism(setup):
    events, tgi, planner = setup
    plan = planner.plan_snapshot(events[-1].time)
    assert 1 <= len(plan.placements()) <= tgi.config.placement_groups * 2


@pytest.mark.parametrize("replicate", [False, True])
@pytest.mark.parametrize("checkpoint_entries", [0, 256])
def test_planned_keys_are_the_keys_the_static_stage_fetches(
    checkpoint_entries, replicate
):
    """The planner sorts partitions with the triage the executing plan
    runs, so what it lists is what the compiled plan's static stage
    declares — cold, once the same query warmed the checkpoints, and
    just after it (near-seeded); and every triaged partition is exactly
    one of hit, near hit or miss."""
    events = random_history(steps=400, seed=21, edge_attr_churn=True)
    tgi = small_tgi(
        events, replicate_boundary=replicate,
        checkpoint_entries=checkpoint_entries,
    )
    planner = TGIPlanner(tgi)
    t1 = events[-1].time - 30
    span = tgi._span_at(t1)
    nodes = sorted(span.node_pid)[::5]
    own_pids = {span.pid_of(n) for n in nodes}
    for t in (t1, t1, t1 + 4):
        assert tgi._span_at(t).tsid == span.tsid
        planned = planner.plan_node_histories(nodes, t, t + 20)
        plan, _finalize, extra = compiled = tgi._node_histories_plan(
            nodes, t, t + 20
        )
        assert sorted(plan.stages[0].keys()) == sorted(
            key for step in planned.steps if not step.chained
            for key in step.keys
        )
        triaged = (
            extra.checkpoint_hits + extra.checkpoint_near_hits
            + extra.checkpoint_misses
        )
        assert triaged == (len(own_pids) if checkpoint_entries else 0)
        tgi._retrieve(compiled, 1)

        # a k-hop's static stage holds its centers' own partitions; the
        # plan lists those among its bound's
        planned = planner.plan_khops(nodes, t, k=1)
        plan, _finalize, extra = compiled = tgi._khops_plan(nodes, t, 1)
        static = [
            stage for stage in plan.stages[:1] if not callable(stage)
        ]
        assert sorted(key for s in static for key in s.keys()) == sorted(
            key for key in planned.all_keys() if key[3] in own_pids
        )
        if replicate:  # hop 1 lives in the centers' auxiliaries
            assert {key[3] for key in planned.all_keys()} <= own_pids
        tgi._retrieve(compiled, 1)
