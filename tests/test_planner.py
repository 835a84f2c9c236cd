"""Tests for the TGI query planner (EXPLAIN)."""

import pytest

from repro.errors import IndexError_
from repro.index.tgi import TGI, PartitioningStrategy, TGIConfig, TGIPlanner
from tests.helpers import random_history


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
