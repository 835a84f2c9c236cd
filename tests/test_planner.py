"""Tests for the TGI query planner (EXPLAIN)."""

import pytest

from repro.errors import IndexError_
from repro.exec import FetchStage
from repro.index.tgi import TGI, TGIConfig, TGIPlanner
from tests.helpers import random_history, relabelled, small_tgi


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
    assert set(plan.keys()) == {r.key for r in stats.requests}


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
    assert actual <= set(plan.keys())


def test_khop_plan_unknown_node_raises(setup):
    _events, _tgi, planner = setup
    with pytest.raises(IndexError_):
        planner.plan_khop(999_999, 200, k=1)


def test_explain_renders(setup):
    events, _tgi, planner = setup
    text = planner.plan_snapshot(events[-1].time).describe()
    assert text.startswith("FetchPlan[snapshot")
    assert "  - snapshot\n      micro-path: " in text


def test_plan_placements_bound_parallelism(setup):
    events, tgi, planner = setup
    plan = planner.plan_snapshot(events[-1].time)
    placements = {key[:2] for key in plan.keys()}
    assert 1 <= len(placements) <= tgi.config.placement_groups * 2


def test_history_pricing_counts_each_fetched_row_once():
    """A version pointer naming an eventlist row the state replay also
    reads lists that row in two stages; the executor fetches it once,
    and pricing counts it once."""
    events = random_history(steps=600, seed=12)
    tgi = TGI(TGIConfig(200, 25, 8))
    tgi.build(events)
    planner = TGIPlanner(tgi)
    nodes = sorted({e.node for e in events})[:80]
    repeated = 0
    for ts in (100, 250, 400):
        for node in nodes:
            plan = planner.plan_node_history(node, ts, ts + 60)
            _, stats = tgi.retrieve_node_history(node, ts, ts + 60)
            priced = tgi.cluster.plan_records(plan.pricing_keys())
            assert len(priced) == stats.num_requests
            repeated += plan.num_keys > len(plan.pricing_keys())
    assert repeated  # the sweep holds plans that name a row twice


def _shape(stages):
    """Stage labels, group roles and keys, in order."""
    return [
        (stage.label, [(group.role, group.keys) for group in stage.groups])
        for stage in stages
    ]


@pytest.mark.parametrize("replicate", [False, True])
@pytest.mark.parametrize("checkpoint_entries", [0, 256])
def test_planned_keys_are_the_keys_the_static_stage_fetches(
    checkpoint_entries, replicate
):
    """The priced plan is the executed plan.  For a snapshot, node
    states and node histories the planner lists the stages the executed
    plan resolves to — labels, roles and keys, the version-pointer round
    included — cold, once the same query warmed the checkpoints, and
    just after it (near-seeded), over int and string ids.  A k-hop's
    executed keys lie in the planner's bound, and its static stage is the
    bound restricted to the centers' own partitions.  Every triaged
    partition is exactly one of hit, near hit or miss."""
    for ids in ("int", "str"):
        events = random_history(steps=400, seed=21, edge_attr_churn=True)
        if ids == "str":
            events = relabelled(events)
        tgi = small_tgi(
            events, replicate_boundary=replicate,
            checkpoint_entries=checkpoint_entries,
        )
        planner = TGIPlanner(tgi)
        t1 = events[-1].time - 30
        span = tgi._span_at(t1)
        nodes = sorted(span.node_pid)[::5]
        own_pids = {span.pid_of(n) for n in nodes}
        seeded = {"hits": 0, "near": 0}

        def run(planned, compiled):
            """Execute ``compiled``, check it resolved to ``planned``'s
            stages and count its checkpoint outcomes."""
            result = tgi.executor.execute(compiled[0])
            tgi._finish(compiled, result.values, result.stats)
            assert _shape(result.stages) == _shape(planned.stages)
            seeded["hits"] += compiled[2].checkpoint_hits
            seeded["near"] += compiled[2].checkpoint_near_hits
            return compiled[2]

        for t in (t1, t1, t1 + 4):
            assert tgi._span_at(t).tsid == span.tsid
            run(planner.plan_snapshot(t), tgi._snapshot_exec_plan(t))
            run(
                planner.plan_node_history(nodes[0], t, t),
                tgi._node_histories_plan([nodes[0]], t, t),
            )
            extra = run(
                planner.plan_node_histories(nodes, t, t + 20),
                tgi._node_histories_plan(nodes, t, t + 20),
            )
            triaged = (
                extra.checkpoint_hits + extra.checkpoint_near_hits
                + extra.checkpoint_misses
            )
            assert triaged == (len(own_pids) if checkpoint_entries else 0)

            # a k-hop's static stage holds its centers' own partitions;
            # the frontier stages fetch within the bound
            planned = planner.plan_khops(nodes, t, k=1)
            bound = planned.keys()
            compiled = tgi._khops_plan(nodes, t, 1)
            static = [
                stage for stage in compiled[0].stages[:1]
                if isinstance(stage, FetchStage)
            ]
            assert sorted(
                key for stage in static for key in stage.keys()
            ) == sorted(key for key in bound if key[3] in own_pids)
            result = tgi.executor.execute(compiled[0])
            tgi._finish(compiled, result.values, result.stats)
            assert {
                key for stage in result.stages for key in stage.keys()
            } <= set(bound)
            if replicate:  # hop 1 lives in the centers' auxiliaries
                assert {key[3] for key in bound} <= own_pids
        if checkpoint_entries:
            assert seeded["hits"] and seeded["near"]
