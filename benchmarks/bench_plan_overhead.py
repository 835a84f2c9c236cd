"""Planning overhead: what turning a query into store keys costs.

The paper keeps the ``Timespans`` / ``Micropartitions`` metadata "small
enough to cache at the query manager" (Sec. 4.4) so that planning costs
nothing next to fetching.  This smoke pins that down on dataset 1
(m=4, ps=64):

- **plan + price wall-µs per key** for a snapshot plan and a k=2 k-hop
  plan (``TGIPlanner.plan_*`` + ``price_plan``, warm layout), and
  **price wall-µs per key** for ``price_plan`` alone on the same plan,
  also at replication r=2 (where routing picks among holders);
- the **pricing counts** of those two warm plans: ``RequestRecord``
  constructions and ``StorageNode.rank`` / ``StorageNode.get`` calls
  (pricing reads the card tables only);
- **planning ms per batch** of 16 k=2 requests over 8 distinct centers
  (``GraphSession._compile`` for every member, no execution);
- the **derivation counts** of one warm batch: ``hash_partition`` and
  ``_stable_hash`` calls, ``TGIPlanner.plan_khop`` calls and uncached
  ``expected_khop_pids`` evaluations.

Timings are recorded, never asserted (they are the machine's); the
counts repeat exactly and are the bar: warm pricing builds no request
record and reads no row, and a warm batch hashes nothing and plans each
*distinct* request once.  Emits ``BENCH_plan_overhead.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import repro.index.tgi.layout as layout_module
import repro.kvstore.cluster as cluster_module
import repro.stats.model as stats_model
from repro import GraphSession, QueryRequest
from repro.index.tgi import TGIPlanner, price_plan
from repro.kvstore.cost import RequestRecord
from repro.kvstore.node import StorageNode

from benchmarks.conftest import (
    build_tgi,
    counting,
    print_series,
    probe_nodes,
)

BATCH = 16
DISTINCT = 8
K = 2
REPEATS = 200

RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_plan_overhead.json"
)

def _us_per_key(plan_fn, cluster, monkeypatch) -> dict:
    plan = plan_fn()
    price_plan(cluster, plan)  # warm: tables, card tables, placements
    start = time.perf_counter()
    for _ in range(REPEATS):
        price_plan(cluster, plan_fn())
    wall = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(REPEATS):
        price_plan(cluster, plan)
    price_wall = time.perf_counter() - start
    calls = dict.fromkeys(("__init__", "rank", "get"), 0)
    counting(monkeypatch, RequestRecord, "__init__", calls)
    counting(monkeypatch, StorageNode, "rank", calls)
    counting(monkeypatch, StorageNode, "get", calls)
    price_plan(cluster, plan)
    monkeypatch.undo()
    keys = len(plan.pricing_keys())
    return {
        "planned_keys": plan.num_keys,
        "priced_keys": keys,
        "plan_price_us_per_key": round(wall / REPEATS / keys * 1e6, 3),
        "price_us_per_key": round(price_wall / REPEATS / keys * 1e6, 3),
        "pricing_calls": {
            "RequestRecord": calls["__init__"],
            "StorageNode.rank": calls["rank"],
            "StorageNode.get": calls["get"],
        },
    }

def test_plan_overhead(benchmark, monkeypatch, dataset1_events):
    tgi = build_tgi(dataset1_events)
    session = GraphSession.from_index(tgi)
    planner = session.planner
    replicated = build_tgi(dataset1_events, r=2)
    planner_r2 = GraphSession.from_index(replicated).planner
    t = dataset1_events[-1].time
    centers = probe_nodes(dataset1_events, DISTINCT, seed=31, alive_at=t)
    requests = [
        QueryRequest(kind="khop", t=t, nodes=(c,), k=K, single=True)
        for c in (centers * (BATCH // DISTINCT))
    ]

    def _emit():
        snapshot = _us_per_key(
            lambda: planner.plan_snapshot(t), tgi.cluster, monkeypatch
        )
        khop = _us_per_key(
            lambda: planner.plan_khop(centers[0], t, k=K), tgi.cluster,
            monkeypatch,
        )
        r2 = {
            name: _us_per_key(
                plan_fn, replicated.cluster, monkeypatch
            )["price_us_per_key"]
            for name, plan_fn in (
                ("snapshot", lambda: planner_r2.plan_snapshot(t)),
                ("khop", lambda: planner_r2.plan_khop(centers[0], t, k=K)),
            )
        }
        session.execute_batch(requests)  # warm-up batch

        counts = dict.fromkeys(
            ("hash_partition", "_stable_hash", "plan_khop",
             "_evaluate_khop_pids"), 0,
        )
        counting(monkeypatch, layout_module, "hash_partition", counts)
        counting(monkeypatch, cluster_module, "_stable_hash", counts)
        counting(monkeypatch, TGIPlanner, "plan_khop", counts)
        counting(monkeypatch, stats_model, "_evaluate_khop_pids", counts)
        start = time.perf_counter()
        results = session.execute_batch(requests)
        batch_ms = (time.perf_counter() - start) * 1e3
        monkeypatch.undo()
        assert all(r.ok for r in results)

        start = time.perf_counter()
        for _ in range(20):
            shared: set = set()
            for request in dict.fromkeys(requests):
                session._compile(request, shared)
        plan_ms = (time.perf_counter() - start) / 20 * 1e3

        payload = {
            "dataset": "dataset1 (2500-node citation), m=4, ps=64",
            "snapshot_plan": snapshot,
            "khop_plan": khop,
            "price_us_per_key_r2": r2,
            "batch": {
                "requests": BATCH,
                "distinct": DISTINCT,
                "planning_ms": round(plan_ms, 3),
                "execute_batch_wall_ms": round(batch_ms, 3),
            },
            "warm_batch_calls": counts,
        }
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        return payload

    payload = benchmark.pedantic(_emit, rounds=1, iterations=1)
    print_series(
        "plan + price, warm layout",
        "plan           keys   wall us/key   price us/key   r=2 price",
        [
            f"{name:12s} {row['priced_keys']:6d} "
            f"{row['plan_price_us_per_key']:13.3f} "
            f"{row['price_us_per_key']:14.3f} "
            f"{payload['price_us_per_key_r2'][key]:11.3f}"
            for name, key, row in (
                ("snapshot", "snapshot", payload["snapshot_plan"]),
                ("khop k=2", "khop", payload["khop_plan"]),
            )
        ],
    )
    assert RESULT_PATH.exists()
    # warm pricing reads cards only: no record built, no row read
    for plan in ("snapshot_plan", "khop_plan"):
        assert payload[plan]["pricing_calls"] == {
            "RequestRecord": 0, "StorageNode.rank": 0, "StorageNode.get": 0,
        }, plan
    calls = payload["warm_batch_calls"]
    # the counts are the bar: a warm batch derives nothing from hashes
    # and plans each distinct request exactly once
    assert calls["hash_partition"] == 0
    assert calls["_stable_hash"] == 0
    assert calls["plan_khop"] == DISTINCT
    assert calls["_evaluate_khop_pids"] <= DISTINCT
