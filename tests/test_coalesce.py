"""Tests for cross-query fetch coalescing: single-flight key dedup,
machine-level round merging, batched session execution with fair
attribution, and the satellites that ride along (failover
deregistration, snapshot near-seeding, shared-context pricing)."""

import pytest

from repro import GraphSession, TGI, TGIConfig
from repro.api import QueryRequest
from repro.errors import StorageError
from repro.exec import FetchPlan, KeyGroup, PlanExecutor
from repro.exec.coalesce import CoalesceScope
from repro.exec.executor import _PlanCursor
from repro.faults import FaultSchedule, TransientFaults, inject_faults
from repro.index.tgi import price_plan
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.cost import ExecutionTimeline
from repro.kvstore.resilience import ResiliencePolicy
from repro.workloads.citation import CitationConfig, generate_citation_events
from tests.helpers import run_each_alone


# -- executor-level: the coalescing protocol ---------------------------------

def _loaded_cluster(rows=20, machines=2):
    cluster = Cluster(ClusterConfig(num_machines=machines))
    keys = [(0, i % 4, ("S", 0), i) for i in range(rows)]
    for key in keys:
        cluster.put(key, {"row": key[3]})
    return cluster, keys


def _one_stage_plan(name, keys):
    plan = FetchPlan(name)
    plan.add_stage("s0", KeyGroup("g", tuple(keys)))
    return plan


def test_single_flight_dedup_counter_exact():
    cluster, keys = _loaded_cluster()
    shared, only_a, only_b = keys[:10], keys[10:15], keys[15:]
    plan_a = _one_stage_plan("a", shared + only_a)
    plan_b = _one_stage_plan("b", shared + only_b)
    pipe = PlanExecutor(cluster).execute_many([plan_a, plan_b])
    # every unique key fetched exactly once; plan b's overlap served from
    # plan a's flights and counted as coalesced hits, not store requests
    assert pipe.stats.num_requests == len(keys)
    assert pipe.stats.coalesced_hits == len(shared)
    assert pipe.results[0].stats.coalesced_hits == 0
    assert pipe.results[1].stats.coalesced_hits == len(shared)
    # both plans still see every value they asked for
    for key in shared + only_a:
        assert pipe.results[0].values[key] == {"row": key[3]}
    for key in shared + only_b:
        assert pipe.results[1].values[key] == {"row": key[3]}


def test_fair_attribution_sums_to_dedup_totals():
    cluster, keys = _loaded_cluster()
    shared, only_a, only_b = keys[:10], keys[10:15], keys[15:]
    plan_a = _one_stage_plan("a", shared + only_a)
    plan_b = _one_stage_plan("b", shared + only_b)
    pipe = PlanExecutor(cluster).execute_many([plan_a, plan_b])
    report = pipe.coalesce
    assert report is not None
    assert report.unique_keys == len(keys)
    # shared rows split 1/2 + 1/2; exclusive rows charge their one plan
    assert report.fair_requests[0] == pytest.approx(
        len(shared) / 2 + len(only_a)
    )
    assert report.fair_requests[1] == pytest.approx(
        len(shared) / 2 + len(only_b)
    )
    assert sum(report.fair_requests) == pytest.approx(len(keys))
    assert sum(report.fair_bytes) == pytest.approx(pipe.stats.bytes_read)


def test_same_window_fetches_merge_into_one_round():
    cluster, keys = _loaded_cluster()
    plan_a = _one_stage_plan("a", keys[:8])
    plan_b = _one_stage_plan("b", keys[8:16])
    executor = PlanExecutor(cluster)
    _, sequential = run_each_alone(executor, [plan_a, plan_b])
    merged = executor.execute_many([plan_a, plan_b])
    # disjoint key sets: no dedup, but the two single-stage plans land in
    # one scheduling window and issue one merged multiget round
    assert sequential.rounds == 2
    assert merged.stats.rounds == 1
    assert merged.stats.coalesced_hits == 0
    assert merged.stats.merged_rounds == 1
    assert merged.results[0].stats.merged_rounds == 1
    assert merged.results[1].stats.merged_rounds == 1


def test_failover_deregisters_inflight_flights():
    cluster, keys = _loaded_cluster(machines=2)
    plan_a = _one_stage_plan("a", keys[:8])
    plan_b = _one_stage_plan("b", keys[:8])
    cursors = [_PlanCursor(plan_a, 0), _PlanCursor(plan_b, 1)]
    scope = CoalesceScope(cluster, None, num_plans=2)
    timeline = ExecutionTimeline(cluster.config.cost_model)

    window = scope.begin_window()
    scope.admit_stage(window, cursors[0], plan_a.stages[0])
    scope.admit_stage(window, cursors[1], plan_b.stages[0])
    cluster.fail_machine(0)
    cluster.fail_machine(1)
    with pytest.raises(StorageError):
        scope.flush_window(window, clients=1, timeline=timeline)
    # the failed window's flights are gone: nothing dangling for a later
    # waiter to join
    assert not scope.flights

    cluster.recover_machine(0)
    cluster.recover_machine(1)
    retry = scope.begin_window()
    scope.admit_stage(retry, cursors[0], plan_a.stages[0])
    scope.admit_stage(retry, cursors[1], plan_b.stages[0])
    scope.flush_window(retry, clients=1, timeline=timeline)
    # both the re-registered owner and the waiter see complete rows
    for cursor in cursors:
        for key in keys[:8]:
            assert cursor.result.values[key] == {"row": key[3]}


def test_retried_window_settles_at_its_last_round():
    """A resilient merged round that retried issued several store
    rounds: every flight still settles at the last one's completion, and
    each plan that owned keys counts the window as one round of its own."""
    cluster, keys = _loaded_cluster(machines=2)
    plan_a = _one_stage_plan("a", keys[:12])
    plan_b = _one_stage_plan("b", keys[8:])  # joins 4 flights, owns 8
    cursors = [_PlanCursor(plan_a, 0), _PlanCursor(plan_b, 1)]
    # machine 0 fails every request of the first attempt, then heals
    inject_faults(cluster, FaultSchedule(
        transient=(TransientFaults(0, probability=1.0, until_ms=0.01),),
    ))
    cluster.enable_resilience(ResiliencePolicy(hedge=False))
    scope = CoalesceScope(cluster, None, num_plans=2)
    timeline = ExecutionTimeline(cluster.config.cost_model)

    window = scope.begin_window()
    scope.admit_stage(window, cursors[0], plan_a.stages[0])
    scope.admit_stage(window, cursors[1], plan_b.stages[0])
    scope.flush_window(window, clients=1, timeline=timeline)

    assert scope.rounds_issued == len(timeline.rounds) > 1
    assert cursors[0].result.stats.retries > 0
    last = timeline.rounds[-1].completed_ms
    assert {
        owner.window.completed_ms for owner in scope.flights.values()
    } == {last}
    for cursor, wanted in zip(cursors, (keys[:12], keys[8:])):
        assert cursor.ready_at == last
        assert cursor.result.stats.rounds == 1
        assert cursor.result.stats.merged_rounds == 1
        assert cursor.result.values == {k: {"row": k[3]} for k in wanted}
    assert scope.merged_rounds == 1


# -- session-level: batched execution over dataset 1 -------------------------

@pytest.fixture(scope="module")
def dataset1_events():
    return generate_citation_events(
        CitationConfig(num_nodes=300, citations_per_node=4, seed=42)
    )


def build_tgi(events, checkpoints=0, **overrides):
    config = TGIConfig(
        events_per_timespan=1200,
        eventlist_size=150,
        micro_partition_size=32,
        checkpoint_entries=checkpoints,
        cluster=ClusterConfig(num_machines=4),
        **overrides,
    )
    tgi = TGI(config)
    tgi.build(events)
    return tgi


def _batch_requests():
    khops = [
        QueryRequest(kind="khop", t=900, nodes=(n,), k=2, single=True)
        for n in (3, 5, 7, 11)
    ]
    return khops + [
        QueryRequest(kind="snapshot", t=900),
        QueryRequest(kind="node_histories", ts=100, te=900,
                     nodes=(3, 5, 8, 13)),
    ]


def _assert_same_value(request, a, b):
    if request.kind in ("khop", "snapshot"):
        assert set(a.nodes()) == set(b.nodes())
        assert set(a.edges()) == set(b.edges())
    else:
        assert len(a) == len(b)
        for ha, hb in zip(a, b):
            assert ha.initial == hb.initial
            assert ha.events == hb.events


def test_heterogeneous_batch_member_identical(dataset1_events):
    requests = _batch_requests()
    session_serial = GraphSession.from_index(build_tgi(dataset1_events))
    serial = [session_serial.execute(r) for r in requests]
    session_batch = GraphSession.from_index(build_tgi(dataset1_events))
    batch = session_batch.execute_batch(requests)
    assert len(batch) == len(requests)
    for request, s, b in zip(requests, serial, batch):
        _assert_same_value(request, s.value, b.value)


def test_batch_fewer_requests_and_rounds_than_serial(dataset1_events):
    requests = _batch_requests()
    session_serial = GraphSession.from_index(build_tgi(dataset1_events))
    serial = [session_serial.execute(r) for r in requests]
    session_batch = GraphSession.from_index(build_tgi(dataset1_events))
    batch = session_batch.execute_batch(requests)
    serial_requests = sum(r.stats.requests for r in serial)
    batch_requests = sum(r.stats.requests for r in batch)
    serial_rounds = sum(r.stats.rounds for r in serial)
    batch_rounds = sum(r.stats.rounds for r in batch)
    assert batch_requests < serial_requests
    assert batch_rounds < serial_rounds
    assert sum(r.stats.coalesced_hits for r in batch) > 0
    assert any(r.stats.merged_rounds for r in batch)
    # the batch completes before the serial loop's summed schedule
    assert max(r.stats.sim_time_ms for r in batch) < sum(
        r.stats.sim_time_ms for r in serial
    )


def test_batch_results_isolated_copy_on_read(dataset1_events):
    session = GraphSession.from_index(build_tgi(dataset1_events))
    requests = [
        QueryRequest(kind="khop", t=900, nodes=(3,), k=2, single=True),
        QueryRequest(kind="khop", t=900, nodes=(3,), k=2, single=True),
        QueryRequest(kind="snapshot", t=900),
        # equal requests are planned and materialized once; every
        # duplicate still owns its value
        QueryRequest(kind="khop", t=900, nodes=(3,), k=2, single=True),
        QueryRequest(kind="snapshot", t=900),
    ]
    batch = session.execute_batch(requests)
    g0, g1, snap, g2, snap2 = (r.value for r in batch)
    assert len({id(g0), id(g1), id(g2)}) == 3 and snap is not snap2
    before_nodes = set(g1.nodes())
    snap_nodes = set(snap.nodes())
    g0.add_node(999_999)
    g0.add_edge(999_999, 3)
    snap2.add_node(999_998)
    assert set(g1.nodes()) == before_nodes == set(g2.nodes())
    assert set(snap.nodes()) == snap_nodes


def test_batch_builder_queues_and_runs(dataset1_events):
    session = GraphSession.from_index(build_tgi(dataset1_events))
    batch = session.batch()
    i = batch.at(900).khop(3, k=2)
    j = batch.at(900).snapshot()
    h = batch.between(100, 900).node_histories([3, 5])
    assert (i, j, h) == (0, 1, 2)
    assert len(batch) == 3
    results = batch.run()
    assert len(results) == 3
    assert results[j].value.has_node(3)
    serial = session.at(900).khop(3, k=2)
    _assert_same_value(results[i].request, results[i].value, serial.value)


def test_batch_shared_context_discounts_pricing(dataset1_events):
    tgi = build_tgi(dataset1_events)
    session = GraphSession.from_index(tgi)
    plan = session.planner.plan_khop(3, 900, k=2)
    full = price_plan(tgi.cluster, plan)
    discounted = price_plan(
        tgi.cluster, plan, shared_keys=set(plan.pricing_keys())
    )
    assert full > 0.0
    assert discounted == 0.0
    # in a batch, a later identical request's chosen candidate prices
    # (near) free because the earlier one already fetches its keys
    requests = [
        QueryRequest(kind="khop", t=900, nodes=(3,), k=2, single=True),
        QueryRequest(kind="khop", t=900, nodes=(3,), k=2, single=True),
    ]
    batch = session.execute_batch(requests)
    first, second = batch[0].stats, batch[1].stats
    assert second.predicted_ms is not None
    assert first.predicted_ms is not None
    assert second.predicted_ms <= first.predicted_ms


# -- satellite: snapshot-level nearest seeding -------------------------------

def test_snapshot_near_seed_parity(dataset1_events):
    warm = build_tgi(dataset1_events, checkpoints=8)
    g1, first = warm.retrieve_snapshot(600)
    assert first.checkpoint_near_hits == 0
    g2, near = warm.retrieve_snapshot(900)
    cold = build_tgi(dataset1_events)
    expect, cold_stats = cold.retrieve_snapshot(900)
    if near.checkpoint_near_hits:
        # gap replay fetched less than the cold build
        assert near.num_requests < cold_stats.num_requests
    assert set(g2.nodes()) == set(expect.nodes())
    assert set(g2.edges()) == set(expect.edges())
    for node in g2.nodes():
        assert g2.node_attrs(node) == expect.node_attrs(node)
    # the seed graph itself was not perturbed by the forward replay
    expect1 = cold.get_snapshot(600)
    assert set(g1.nodes()) == set(expect1.nodes())
    assert set(g1.edges()) == set(expect1.edges())


def test_snapshot_exact_checkpoint_hit_skips_fetch(dataset1_events):
    warm = build_tgi(dataset1_events, checkpoints=8)
    warm.get_snapshot(900)
    _, stats = warm.retrieve_snapshot(900)
    assert stats.checkpoint_hits == 1
    assert stats.num_requests == 0


# -- CLI ---------------------------------------------------------------------

def test_cli_batch_query(tmp_path, capsys, dataset1_events):
    import json

    from repro.cli import main
    from repro.storage import save_index

    index_path = tmp_path / "idx.hgs"
    save_index(build_tgi(dataset1_events), index_path)
    batch_path = tmp_path / "batch.jsonl"
    batch_path.write_text(
        '{"kind": "khop", "node": 3, "time": 900, "k": 2}\n'
        '{"kind": "snapshot", "time": 900}\n'
        "# a comment line\n"
        '{"kind": "node", "node": 3, "ts": 100, "te": 900}\n'
    )
    assert main(["query", str(index_path), "--batch", str(batch_path)]) == 0
    lines = [
        line for line in capsys.readouterr().out.splitlines() if line
    ]
    assert len(lines) == 3
    khop, snap, node = (json.loads(line) for line in lines)
    assert khop["center"] == 3 and khop["neighborhood"]["nodes"] > 0
    assert snap["snapshot"]["nodes"] > 0
    assert node["node"] == 3 and node["versions"]
    assert "coalesce" in khop or "coalesce" in snap  # sharing surfaced


def test_cli_batch_and_subcommand_are_exclusive(tmp_path, capsys,
                                                dataset1_events):
    from repro.cli import main
    from repro.storage import save_index

    index_path = tmp_path / "idx.hgs"
    save_index(build_tgi(dataset1_events), index_path)
    assert main(["query", str(index_path)]) == 2
    batch_path = tmp_path / "batch.jsonl"
    batch_path.write_text('{"kind": "snapshot", "time": 900}\n')
    assert main([
        "query", str(index_path), "--batch", str(batch_path),
        "snapshot", "900",
    ]) == 2
