"""Stats-backed Algorithm-4 planner bounds vs the whole-span fallback.

Before the statistics subsystem, ``replicate_boundary=False`` left the
planner no adjacency metadata, so the Algorithm-4 k-hop bound degenerated
to *every* partition in the span and cost-based ``auto`` selection could
only pick the targeted algorithm on tie-breaks.  This bench measures the
fix on dataset 1 (m=4, replication off):

1. **Predicted-keys ratio** — the expected key set from the
   frontier-growth model vs the whole-span fallback, per probe center
   and hop count.  The acceptance bar is a mean ratio strictly below 1
   (fewer predicted keys), with the sound bound still covering every
   partition the lazy fetch actually touches.

2. **Auto-selection win rate** — with genuinely different candidate
   prices, ``auto`` must select the algorithm that is actually cheaper
   (simulated ms), not tie-break; the bench cross-checks each choice
   against both forced algorithms' measured costs.

3. **Nearest-in-time checkpoint seeding** — a query at ``t2`` close to a
   checkpointed ``t1`` replays only the eventlist gap: fewer store
   requests than a cold fetch, member-identical results.

Results are written to ``BENCH_planner_bounds.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.index.tgi import TGI, TGIConfig, TGIPlanner
from repro.kvstore.cluster import ClusterConfig
from repro.session import GraphSession

from benchmarks.conftest import (
    BENCH_EVENTLIST,
    BENCH_PS,
    BENCH_SPAN,
    build_tgi,
    print_series,
    probe_nodes,
)

N_CENTERS = 12
M = 4

RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_planner_bounds.json"
)


@pytest.fixture(scope="module")
def bounds(dataset1_events):
    events = dataset1_events
    tgi = build_tgi(events)  # replicate=False: the degenerate-bound regime
    planner = TGIPlanner(tgi)
    t = events[-1].time
    span = tgi._span_at(t)
    path_groups, ekeys = tgi._snapshot_plan(
        span, t, pids=set(range(span.num_pids))
    )
    whole_span_keys = sum(len(g) for g in path_groups) + len(ekeys)
    centers = probe_nodes(events, N_CENTERS, seed=23, alive_at=t)
    rows = {}
    for k in (1, 2):
        ratios = []
        sound = 0
        for center in centers:
            plan = planner.plan_khop(center, t, k=k)
            ratios.append(len(plan.expected_keys) / whole_span_keys)
            _, stats = tgi.retrieve_khop(center, t, k=k)
            touched = {r.key[3] for r in stats.requests}
            if touched <= {key[3] for key in plan.keys()}:
                sound += 1
        rows[k] = {
            "mean_ratio": sum(ratios) / len(ratios),
            "min_ratio": min(ratios),
            "max_ratio": max(ratios),
            "sound_probes": sound,
            "probes": len(centers),
            "whole_span_keys": whole_span_keys,
        }
    return {"tgi": tgi, "centers": centers, "t": t, "rows": rows}


@pytest.fixture(scope="module")
def selection(bounds):
    """Auto vs both forced algorithms, measured (not predicted) cost."""
    tgi, centers, t = bounds["tgi"], bounds["centers"], bounds["t"]
    wins = 0
    decided = 0
    margins = []
    per_center = []
    for center in centers:
        auto_s = GraphSession.from_index(tgi)  # one session per probe
        auto = auto_s.at(t).khop(center, k=1)
        cands = auto.stats.candidates
        margin = abs(cands["khop"] - cands["snapshot-first"])
        margins.append(margin)
        if margin > 1e-9:
            decided += 1
        actual = {}
        for algo in ("khop", "snapshot-first"):
            forced_s = GraphSession.from_index(tgi)
            actual[algo] = forced_s.at(t).khop(
                center, k=1, algorithm=algo
            ).stats.actual_ms
        cheaper = min(actual, key=actual.get)
        if auto.stats.algorithm == cheaper:
            wins += 1
        per_center.append({
            "center": center,
            "chosen": auto.stats.algorithm,
            "predicted_margin_ms": round(margin, 2),
            "actual_khop_ms": round(actual["khop"], 2),
            "actual_snapshot_first_ms": round(actual["snapshot-first"], 2),
        })
    return {
        "win_rate": wins / len(centers),
        "decided_rate": decided / len(centers),
        "mean_margin_ms": sum(margins) / len(margins),
        "per_center": per_center,
    }


@pytest.fixture(scope="module")
def near_seeding(dataset1_events):
    events = dataset1_events
    centers = probe_nodes(events, N_CENTERS, seed=23,
                          alive_at=events[-1].time)

    def _build(checkpoints):
        tgi = TGI(TGIConfig(
            events_per_timespan=BENCH_SPAN,
            eventlist_size=BENCH_EVENTLIST,
            micro_partition_size=BENCH_PS,
            checkpoint_entries=checkpoints,
            cluster=ClusterConfig(num_machines=M),
        ))
        tgi.build(events)
        return tgi

    warm = _build(4096)
    cold = _build(0)
    span = warm._spans[-1]
    t1 = (span.t_start + span.t_end * 3) // 4
    t2 = min(t1 + (span.t_end - span.t_start) // 50, warm._t_max)
    warm.get_khops(centers, t1, k=2)  # checkpoints partition states at t1
    cold_graphs, cold_stats = cold.retrieve_khops(centers, t2, k=2)
    cold_requests = cold_stats.num_requests
    near_graphs, stats = warm.retrieve_khops(centers, t2, k=2)
    identical = all(
        (a is None and b is None) or (a is not None and a == b)
        for a, b in zip(near_graphs, cold_graphs)
    )
    return {
        "t1": t1,
        "t2": t2,
        "cold_requests": cold_requests,
        "near_requests": stats.num_requests,
        "near_hits": stats.checkpoint_near_hits,
        "exact_hits": stats.checkpoint_hits,
        "identical": identical,
    }


def test_stats_bound_strictly_tighter(benchmark, bounds):
    def _check():
        for k, row in bounds["rows"].items():
            # sound bound covers every actually-touched partition
            assert row["sound_probes"] == row["probes"]
            # expected keys never exceed the whole-span fallback, and the
            # mean is strictly below it — the degenerate bound is gone
            assert row["max_ratio"] <= 1.0
            assert row["mean_ratio"] < 1.0

    benchmark.pedantic(_check, rounds=1, iterations=1)
    print_series(
        f"Stats-backed Algorithm-4 bound vs whole-span fallback "
        f"(dataset 1, m={M}, replication off, {N_CENTERS} centers)",
        "k  predicted-keys ratio (mean [min, max])  sound",
        [
            f"{k}  {row['mean_ratio']:.3f} [{row['min_ratio']:.3f}, "
            f"{row['max_ratio']:.3f}]  "
            f"{row['sound_probes']}/{row['probes']}"
            for k, row in bounds["rows"].items()
        ],
    )


def test_auto_selection_genuinely_decided(benchmark, selection):
    def _check():
        # every probe priced the candidates apart (no tie-breaking)...
        assert selection["decided_rate"] == 1.0
        # ...and auto overwhelmingly lands on the measured-cheaper plan
        assert selection["win_rate"] >= 0.75

    benchmark.pedantic(_check, rounds=1, iterations=1)
    print_series(
        "Auto k-hop selection with stats-backed pricing (k=1)", "",
        [
            f"win rate {selection['win_rate']:.2f}  "
            f"decided {selection['decided_rate']:.2f}  "
            f"mean predicted margin "
            f"{selection['mean_margin_ms']:.1f} sim-ms",
        ],
    )


def test_near_checkpoint_seeding_cheaper_and_identical(
    benchmark, near_seeding
):
    def _check():
        r = near_seeding
        assert r["near_hits"] > 0
        assert r["near_requests"] < r["cold_requests"]
        assert r["identical"]

    benchmark.pedantic(_check, rounds=1, iterations=1)
    r = near_seeding
    print_series(
        f"Nearest-in-time checkpoint seeding (t1={r['t1']} -> "
        f"t2={r['t2']})", "",
        [
            f"cold fetch {r['cold_requests']} req -> near-seeded "
            f"{r['near_requests']} req "
            f"({r['near_hits']} near hits, {r['exact_hits']} exact)",
        ],
    )


def test_emit_json(benchmark, bounds, selection, near_seeding):
    def _emit():
        payload = {
            "dataset": 1,
            "m": M,
            "replicate_boundary": False,
            "centers": N_CENTERS,
            "predicted_keys_ratio": {
                str(k): {
                    kk: round(v, 4) if isinstance(v, float) else v
                    for kk, v in row.items()
                }
                for k, row in bounds["rows"].items()
            },
            "auto_selection": {
                "win_rate": round(selection["win_rate"], 3),
                "decided_rate": round(selection["decided_rate"], 3),
                "mean_margin_ms": round(selection["mean_margin_ms"], 2),
                "per_center": selection["per_center"],
            },
            "near_checkpoint_seeding": {
                k: v for k, v in near_seeding.items()
            },
        }
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        return payload

    payload = benchmark.pedantic(_emit, rounds=1, iterations=1)
    assert RESULT_PATH.exists()
    assert payload["auto_selection"]["decided_rate"] == 1.0
