"""Warm reads: what answering from a checkpointed state costs.

GraphPool ("Efficient Snapshot Retrieval over Historical Graph Data")
keeps retrieved snapshots in memory *shared* between readers because a
copy per reader does not scale.  The checkpoint cache follows the same
rule — payloads are immutable once admitted, and only a consumer that
mutates a state or hands it to a caller copies it — and this smoke pins
down what that leaves of a warm read on dataset 1 (m=4, ps=64,
64 checkpoint entries):

- **wall-µs per op** for a snapshot-first k=2 k-hop on an exact-warm
  snapshot, the same k-hop under ``auto`` (``auto_khop_exact_warm``,
  which takes the snapshot without planning Algorithm 4), the forced
  snapshot-first k-hop at a near-warm time (advanced from the snapshot
  before it), an Algorithm-4 k=2 k-hop and a ``node_state`` over warm
  partitions, and a warm ``snapshot()``;
- the **copy counts** of one pass of each: ``Graph.copy`` and partition
  state clones, beside its ``TGIPlanner.plan_khop`` calls;
- the **nodes privatized** in that pass: ``Graph.copy`` shares every
  node's containers and a graph copies a node's own only on its first
  write to it (``Graph._privatize``);
- the **containers shared** by an exact-warm snapshot-first k-hop with
  the cached snapshot it filtered: ``Graph.khop_subgraph`` shares every
  member's attribute map, and the neighbor set of every member within
  ``k - 1`` hops of the center (only the outermost ring's are fresh).

Timings are recorded, never asserted (they are the machine's): each
scenario runs ``PASSES`` timed passes and records the median of their
per-op wall times and the distance between their quartiles, so one
slow pass (a collection, a scheduler stall) moves nothing and a run
whose spread is under a tenth of its median resolves a 10 % change; a
near-warm time is warm once it has been read, so that scenario times
each of its single-use ops on its own.  Beside the raw median,
``wall_us_per_op_ref`` is the median at the ledger's reference speed:
each pass scaled by the speed probe (``benchmarks.ledger.speed``) timed
right before and after it, so two trees timed in separate processes on
a machine whose speed drifts can be compared.  The counts repeat
exactly and are the bar: a reader of a warm state copies nothing, a
near-warm k-hop copies its seed once and privatizes at most
the nodes its gap's events touch, and only a *snapshot* result — the
caller's own graph — costs one copy per query, which privatizes
nothing until the caller writes; an exact-warm k-hop shares every
container it can with the snapshot.  An ``auto`` k-hop there chooses
snapshot-first as the one candidate at 0.0 and plans no Algorithm 4 —
its partition states are warm too, so this holds on the 0.0 / 0.0 tie.
Emits ``BENCH_warm_reads.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import repro.index.tgi.states as states_module
from repro import GraphSession, QueryRequest
from repro.graph.static import Graph
from repro.index.tgi import TGIPlanner
from repro.index.tgi.states import _state_key, near_seed_candidate

from benchmarks.conftest import (
    build_tgi,
    counting,
    print_series,
    probe_nodes,
)
from benchmarks.ledger.speed import at_reference_speed, probe_ns

CENTERS = 8
NEAR_TIMES = 12
PASSES = 25
K = 2

RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_warm_reads.json"
)



def _khop(center, t, algorithm):
    return QueryRequest(
        kind="khop", t=t, nodes=(center,), k=K, single=True,
        algorithm=algorithm,
    )


def _sharing(snapshot, results, centers):
    """How many containers the k-hop results share with ``snapshot``,
    beside how many they could: every member's attribute map, and the
    neighbor set of every member within ``K - 1`` hops of its center."""
    counts = dict.fromkeys(
        ("members", "attr_maps_shared", "inner_members", "inner_sets_shared"),
        0,
    )
    attrs, adj = snapshot.node_attr_maps(), snapshot.adjacency()
    for result, center in zip(results, centers):
        g = result.value
        inner = snapshot.khop_nodes(center, K - 1)
        counts["members"] += len(g)
        counts["attr_maps_shared"] += sum(
            a is attrs[n] for n, a in g.node_attr_maps().items()
        )
        counts["inner_members"] += len(inner)
        counts["inner_sets_shared"] += sum(
            g.adjacency()[n] is adj[n] for n in inner
        )
    return counts


def _gap_nodes(events, t0, t):
    """Nodes the events in ``(t0, t]`` name: what replaying a seed at
    ``t0`` forward to ``t`` may write to (dataset 1 only grows, so no
    deletion reaches a neighbour that no event names)."""
    return {n for ev in events if t0 < ev.time <= t for n in ev.entities}


def test_warm_reads(benchmark, monkeypatch, dataset1_events):
    tgi = build_tgi(dataset1_events)
    session = GraphSession.from_index(tgi, checkpoint_entries=64)
    t_max = dataset1_events[-1].time
    t = t_max - 4 * NEAR_TIMES
    centers = probe_nodes(dataset1_events, CENTERS, seed=37, alive_at=t)
    # near-warm times are single-use (a k-hop leaves its time warm):
    # the first run of them is timed, one op at a time, the second
    # counted
    timed_near = [t + 1 + i for i in range(NEAR_TIMES)]
    counted_near = [t + 1 + NEAR_TIMES + i for i in range(NEAR_TIMES)]

    scenarios = {
        "snapshot_first_exact_warm": lambda times: [
            session.execute(_khop(c, t, "snapshot-first")) for c in centers
        ],
        "auto_khop_exact_warm": lambda times: [
            session.execute(_khop(c, t, "auto")) for c in centers
        ],
        "snapshot_first_near_warm": lambda times: [
            session.execute(_khop(centers[0], t2, "snapshot-first"))
            for t2 in times
        ],
        "algorithm4_warm_partitions": lambda times: [
            session.execute(_khop(c, t, "khop")) for c in centers
        ],
        "node_state_warm_partitions": lambda times: [
            session.at(t).node_state(c) for c in centers
        ],
        "snapshot_exact_warm": lambda times: [
            session.at(t).snapshot() for _ in centers
        ],
    }

    def _emit():
        session.at(t).snapshot()  # the warm materialized snapshot
        for c in centers:  # ... and the warm partition states
            session.execute(_khop(c, t, "khop"))
        rows = {}
        for name, run in scenarios.items():
            if name == "snapshot_first_near_warm":
                passes = [[t2] for t2 in timed_near]
            else:
                passes = [timed_near] * PASSES
            per_op, per_op_ref = [], []
            for times in passes:
                before = probe_ns()
                start = time.perf_counter()
                results = run(times)
                per_op.append((time.perf_counter() - start) / len(results))
                per_op_ref.append(
                    at_reference_speed(per_op[-1], [before, probe_ns()])
                )
            quartiles = statistics.quantiles(per_op, n=4)
            rows[name] = {
                "ops": len(results),
                "passes": len(passes),
                "wall_us_per_op": round(statistics.median(per_op) * 1e6, 1),
                "wall_us_per_op_iqr": round(
                    (quartiles[2] - quartiles[0]) * 1e6, 1
                ),
                "wall_us_per_op_ref": round(
                    statistics.median(per_op_ref) * 1e6, 1
                ),
            }
        for name, run in scenarios.items():
            counts = dict.fromkeys(
                ("copy", "_clone_state", "_privatize", "plan_khop"), 0
            )
            counting(monkeypatch, Graph, "copy", counts)
            counting(monkeypatch, states_module, "_clone_state", counts)
            counting(monkeypatch, Graph, "_privatize", counts)
            counting(monkeypatch, TGIPlanner, "plan_khop", counts)
            if name == "snapshot_first_near_warm":
                # one op at a time, each against the nodes its gap touches
                results, rows[name]["privatized_vs_gap_nodes"] = [], []
                for t2 in counted_near:
                    t0 = near_seed_candidate(
                        tgi, tgi._span_at(t2), None, t2, False
                    )[0]
                    before = counts["_privatize"]
                    results += run([t2])
                    rows[name]["privatized_vs_gap_nodes"].append((
                        counts["_privatize"] - before,
                        len(_gap_nodes(dataset1_events, t0, t2)),
                    ))
            else:
                results = run(counted_near)
            monkeypatch.undo()
            rows[name]["nodes_privatized"] = counts["_privatize"]
            rows[name]["graph_copies"] = counts["copy"]
            rows[name]["state_clones"] = counts["_clone_state"]
            rows[name]["plan_khop_calls"] = counts["plan_khop"]
            rows[name]["free_snapshot_first"] = sum(
                r.stats.algorithm == "snapshot-first"
                and r.stats.candidates == {"snapshot-first": 0.0}
                for r in results
            )
            rows[name]["store_requests"] = sum(
                r.stats.requests for r in results
            )
            rows[name]["checkpoint_near_hits"] = sum(
                r.stats.checkpoint_near_hits for r in results
            )
            if name == "snapshot_first_exact_warm":
                snapshot = tgi.checkpoints.lookup(
                    _state_key(tgi._span_at(t).tsid, None, t, False)
                )
                rows[name].update(_sharing(snapshot, results, centers))
        payload = {
            "dataset": "dataset1 (2500-node citation), m=4, ps=64, "
                       "64 checkpoint entries",
            "k": K,
            "scenarios": rows,
        }
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        return payload

    payload = benchmark.pedantic(_emit, rounds=1, iterations=1)
    rows = payload["scenarios"]
    print_series(
        "warm reads, 64 checkpoint entries",
        "scenario                       ops  wall us/op  at ref  copies"
        "  clones  privatized",
        [
            f"{name:28s} {row['ops']:5d} {row['wall_us_per_op']:11.1f} "
            f"{row['wall_us_per_op_ref']:7.1f} "
            f"{row['graph_copies']:7d} {row['state_clones']:7d} "
            f"{row['nodes_privatized']:11d}"
            for name, row in rows.items()
        ],
    )
    assert RESULT_PATH.exists()
    # the counts are the bar: readers of a warm state copy nothing ...
    for name in ("snapshot_first_exact_warm", "algorithm4_warm_partitions",
                 "node_state_warm_partitions"):
        assert rows[name]["graph_copies"] == 0, name
        assert rows[name]["state_clones"] == 0, name
    # (a node_state still reads its version-chain row; k-hops read nothing)
    assert rows["snapshot_first_exact_warm"]["store_requests"] == 0
    assert rows["algorithm4_warm_partitions"]["store_requests"] == 0
    # ... a near-warm k-hop copies the snapshot it advances, once ...
    near = rows["snapshot_first_near_warm"]
    assert near["checkpoint_near_hits"] == NEAR_TIMES
    assert near["graph_copies"] == NEAR_TIMES
    assert near["state_clones"] == 0
    # ... and then writes only to the nodes its gap's events name ...
    for privatized, gap_nodes in near["privatized_vs_gap_nodes"]:
        assert privatized <= gap_nodes
    # ... while an exact-warm read's copy is never written
    for name in ("snapshot_first_exact_warm", "snapshot_exact_warm"):
        assert rows[name]["nodes_privatized"] == 0, name
    # ... and an exact-warm k-hop shares every member's attribute map
    # and every inner member's neighbor set with the cached snapshot
    exact = rows["snapshot_first_exact_warm"]
    assert exact["attr_maps_shared"] == exact["members"] > 0
    assert exact["inner_sets_shared"] == exact["inner_members"] > 0
    # ... and under auto, an exact-warm snapshot is chosen unpriced
    # against Algorithm 4, which is never planned
    free = rows["auto_khop_exact_warm"]
    assert free["free_snapshot_first"] == CENTERS
    assert free["plan_khop_calls"] == 0
    assert free["store_requests"] == 0
    assert free["graph_copies"] == 0
    # ... and a snapshot result is the caller's own graph: one copy each
    assert rows["snapshot_exact_warm"]["graph_copies"] == CENTERS
    assert rows["snapshot_exact_warm"]["state_clones"] == 0
