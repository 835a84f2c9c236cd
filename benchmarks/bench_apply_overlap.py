"""Costed apply + materialized-state checkpoints: cold vs warm retrieval.

The paper's cost analysis counts only store-side fetch time, but warm-path
wall clock in this reproduction goes to client-side *apply* work — payload
decode plus Python delta/event replay.  This bench measures both halves of
the fix:

1. **Checkpoint-warm speedup** (wall clock): repeated snapshot and k-hop
   queries on dataset 1 (m=4) with ``checkpoint_entries`` set seed their
   replay from memoized partition states / snapshot graphs instead of
   re-fetching and re-replaying from the root deltas.  The acceptance bar
   is >= 2x faster warm than cold; in practice it is far higher.

2. **Apply/fetch overlap** (simulated): with the apply constants enabled,
   the executor schedules each stage's apply on a per-plan lane of the
   timeline, so part of the apply time hides behind the next fetch round
   — the makespan grows by *less* than the total apply time relative to
   the fetch-only timeline.  The executor has one schedule, so the cold
   pass of part 1 (each query alone) runs its apply on such a lane too;
   part 2 measures a SoTS chunk, many plans on one timeline.

Results are written to ``BENCH_apply_overlap.json`` so the perf
trajectory has data points.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.index.tgi import TGI, TGIConfig
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.cost import CostModel
from repro.spark.rdd import SparkContext
from repro.taf.handler import TGIHandler

from benchmarks.conftest import (
    BENCH_EVENTLIST,
    BENCH_PS,
    BENCH_SPAN,
    print_series,
    probe_nodes,
    snapshot_probe_times,
)

N_CENTERS = 16
K = 2
M = 4
WARM_PASSES = 3

RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_apply_overlap.json"
)


def _build(events, apply_cost=True, checkpoints=4096):
    model = CostModel().with_apply() if apply_cost else CostModel()
    tgi = TGI(TGIConfig(
        events_per_timespan=BENCH_SPAN,
        eventlist_size=BENCH_EVENTLIST,
        micro_partition_size=BENCH_PS,
        checkpoint_entries=checkpoints,
        cluster=ClusterConfig(num_machines=M, cost_model=model),
    ))
    tgi.build(events)
    return tgi


def _query_pass(tgi, times, centers):
    """One repeated-workload pass: snapshots at several probe times plus
    a batched k-hop population.  Returns (wall_ms, fold-of-stats)."""
    agg = {"requests": 0, "apply_ms": 0.0, "sim_ms": 0.0,
           "ckpt_hits": 0, "ckpt_misses": 0}
    start = time.perf_counter()
    fetches = [tgi.retrieve_snapshot(t)[1] for t in times]
    fetches.append(tgi.retrieve_khops(centers, times[-1], k=K)[1])
    wall_ms = (time.perf_counter() - start) * 1e3
    for stats in fetches:
        agg["requests"] += stats.num_requests
        agg["apply_ms"] += stats.apply_ms
        agg["sim_ms"] += stats.sim_time_ms
        agg["ckpt_hits"] += stats.checkpoint_hits
        agg["ckpt_misses"] += stats.checkpoint_misses
    return wall_ms, agg


@pytest.fixture(scope="module")
def cold_vs_warm(dataset1_events):
    events = dataset1_events
    times = snapshot_probe_times(events, 3)
    centers = probe_nodes(events, N_CENTERS, seed=23,
                          alive_at=events[-1].time)
    tgi = _build(events)
    cold_wall, cold = _query_pass(tgi, times, centers)
    warm_runs = [_query_pass(tgi, times, centers)
                 for _ in range(WARM_PASSES)]
    warm_wall = min(w for w, _ in warm_runs)
    warm = warm_runs[-1][1]
    return {
        "cold_wall_ms": cold_wall,
        "warm_wall_ms": warm_wall,
        "speedup": cold_wall / warm_wall if warm_wall else float("inf"),
        "cold": cold,
        "warm": warm,
    }


@pytest.fixture(scope="module")
def overlap(dataset1_events):
    """Pipelined SoTS chunk with apply costed vs the fetch-only model."""
    events = dataset1_events
    t_end = events[-1].time
    ts, te = t_end // 8, t_end
    centers = probe_nodes(events, N_CENTERS, seed=23, alive_at=te)
    rows = {}
    for label, apply_cost in (
        ("fetch-only pipelined", False),
        ("apply-costed pipelined", True),
    ):
        tgi = _build(events, apply_cost=apply_cost, checkpoints=0)
        handler = TGIHandler(tgi, SparkContext(num_workers=2))
        _, stats = handler.retrieve_subgraphs(centers, K, ts, te)
        rows[label] = {
            "sim_ms": stats.sim_time_ms,
            "apply_ms": stats.apply_ms,
            "overlap_saved_ms": stats.overlap_saved_ms,
            "requests": stats.requests,
        }
    return rows


def test_checkpoint_warm_speedup(benchmark, cold_vs_warm):
    def _check():
        r = cold_vs_warm
        # warm passes are answered from checkpoints: no store requests
        assert r["warm"]["requests"] == 0
        assert r["warm"]["ckpt_hits"] > 0
        assert r["cold"]["ckpt_misses"] > 0
        # acceptance bar: checkpoint-warm repeats >= 2x faster wall-clock
        assert r["speedup"] >= 2.0, (
            f"warm speedup {r['speedup']:.2f}x below the 2x bar"
        )

    benchmark.pedantic(_check, rounds=1, iterations=1)
    r = cold_vs_warm
    print_series(
        f"Checkpoint-warm repeated retrieval (dataset 1, m={M}, "
        f"{N_CENTERS} centers, k={K})", "",
        [
            f"cold  {r['cold_wall_ms']:>8.1f} wall-ms "
            f"{r['cold']['requests']:>6} req "
            f"{r['cold']['sim_ms']:>8.1f} sim-ms "
            f"{r['cold']['apply_ms']:>7.1f} apply-ms",
            f"warm  {r['warm_wall_ms']:>8.1f} wall-ms "
            f"{r['warm']['requests']:>6} req "
            f"{r['warm']['sim_ms']:>8.1f} sim-ms "
            f"({r['warm']['ckpt_hits']} checkpoint hits)",
            f"speedup {r['speedup']:.1f}x",
        ],
    )


def test_apply_overlaps_fetch_in_pipeline(benchmark, overlap):
    def _check():
        fetch_only = overlap["fetch-only pipelined"]
        pipe = overlap["apply-costed pipelined"]
        assert pipe["apply_ms"] > 0.0
        assert fetch_only["apply_ms"] == 0.0
        # identical store work; only the timeline model changes
        assert pipe["requests"] == fetch_only["requests"]
        # the pipelined makespan grows by less than the apply time it
        # absorbed: part of the replay hides behind in-flight fetches
        grown = pipe["sim_ms"] - fetch_only["sim_ms"]
        assert grown < pipe["apply_ms"]
        assert pipe["overlap_saved_ms"] > fetch_only["overlap_saved_ms"]

    benchmark.pedantic(_check, rounds=1, iterations=1)
    print_series(
        "Apply/fetch overlap on the shared timeline", "",
        [
            f"{label:<26} {row['sim_ms']:>8.1f} sim-ms "
            f"{row['apply_ms']:>7.1f} apply-ms "
            f"{row['overlap_saved_ms']:>7.1f} saved"
            for label, row in overlap.items()
        ],
    )


def test_emit_json(benchmark, cold_vs_warm, overlap):
    def _emit():
        payload = {
            "dataset": 1,
            "m": M,
            "centers": N_CENTERS,
            "k": K,
            "cold_wall_ms": round(cold_vs_warm["cold_wall_ms"], 2),
            "warm_wall_ms": round(cold_vs_warm["warm_wall_ms"], 2),
            "speedup": round(cold_vs_warm["speedup"], 2),
            "cold": {k: round(v, 2) if isinstance(v, float) else v
                     for k, v in cold_vs_warm["cold"].items()},
            "warm": {k: round(v, 2) if isinstance(v, float) else v
                     for k, v in cold_vs_warm["warm"].items()},
            "overlap": {
                label: {k: round(v, 2) if isinstance(v, float) else v
                        for k, v in row.items()}
                for label, row in overlap.items()
            },
        }
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        return payload

    payload = benchmark.pedantic(_emit, rounds=1, iterations=1)
    assert RESULT_PATH.exists()
    assert payload["speedup"] >= 2.0
