"""Cross-query fetch coalescing vs pipelined-only vs one-at-a-time k-hops.

Overlapping independent plans *in time* alone never merges their store
work: 16 overlapping k-hop neighborhoods still fetch every shared
micro-partition 16 times and issue 16 plans' worth of multiget rounds.
The coalescing layer (single-flight key dedup + machine-level round
merging) makes the batch pay for each unique key once and share rounds
across plans, so heavily-overlapping query batches approach the cost of
one query.

Three strategies over the same 16 centers (dataset 1, m=4, k=2):

- **sequential**: one ``get_khop`` per center, back to back — each plan
  alone, i.e. a window sequence with only its own plan in it (the
  executor's one schedule), so nothing is shared *between* centers;
- **pipelined-only**: all 16 plans overlapped on one timeline without
  merging their work — a schedule the executor no longer has, so its
  row is :data:`PIPELINED_ONLY`, measured before it was removed (the
  seeded dataset makes the counts and sim-ms repeat exactly);
- **batched+coalesced**: the same plans through ``execute_many``.

The bar: coalesced execution issues >= 2.5x fewer store requests and
completes in >= 2x lower simulated time than the pipelined-only
baseline, with member-identical neighborhoods.

The batch also *replays* each partition once: its 16 plans are handed
one :class:`~repro.index.tgi.query.ReplayShare`, as a session execution
does, so a partition several neighborhoods touch is replayed by the
first plan that settles it and read by the rest.  The partitions-
replayed row is asserted exactly (sequential = the sum over plans of the
partitions each loads; coalesced = the distinct partitions touched);
wall-ms per strategy is recorded, never asserted.  Emits
``BENCH_coalesced_fetch.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import build_tgi, print_series, probe_nodes
from repro.index.tgi.query import ReplayShare

N_CENTERS = 16
K = 2
M = 4

RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_coalesced_fetch.json"
)

#: The pipelined-only baseline on this dataset, centers and build.
PIPELINED_ONLY = {
    "label": "pipelined-only (pinned)",
    "requests": 1704,
    "bytes": 1794214,
    "rounds": 47,
    "sim_ms": 504.3287792968749,
    "coalesced_hits": 0,
    "merged_rounds": 0,
}

#: Partitions replayed on this dataset, centers and build: what the 16
#: plans load between them, and how many distinct ones that is.
PARTITIONS_LOADED = 568
PARTITIONS_TOUCHED = 40


@pytest.fixture(scope="module")
def setup(dataset1_events):
    t = dataset1_events[-1].time
    centers = probe_nodes(dataset1_events, N_CENTERS, seed=31, alive_at=t)
    return dataset1_events, centers, t


def _pids(keys):
    return {key[3] for key in keys}


def _row(label, stats, values, wall_ms):
    return {
        "label": label,
        "values": values,
        "requests": stats.num_requests,
        "bytes": stats.bytes_read,
        "rounds": stats.rounds,
        "sim_ms": stats.sim_time_ms,
        "coalesced_hits": stats.coalesced_hits,
        "merged_rounds": stats.merged_rounds,
        "wall_ms": wall_ms,
    }


@pytest.fixture(scope="module")
def sequential(setup):
    events, centers, t = setup
    tgi = build_tgi(events, m=M)
    from repro.kvstore.cost import FetchStats

    total = FetchStats()
    values = []
    replayed = 0
    start = time.perf_counter()
    for center in centers:
        value, stats = tgi.retrieve_khop(center, t, k=K)
        values.append(value)
        total.merge(stats)
        replayed += len(_pids(r.key for r in stats.requests))
    wall_ms = (time.perf_counter() - start) * 1e3
    row = _row("sequential per-center", total, values, wall_ms)
    row["partitions_replayed"] = replayed
    return row


@pytest.fixture(scope="module")
def coalesced(setup):
    events, centers, t = setup
    tgi = build_tgi(events, m=M)
    plans, finalizes, extras = [], [], []
    share = ReplayShare()  # one per execution, as GraphSession._run does
    for center in centers:
        plan, finalize, extra = tgi._khops_plan([center], t, K, share=share)
        plans.append(plan)
        finalizes.append(finalize)
        extras.append(extra)
    start = time.perf_counter()
    pipe = tgi.executor.execute_many(plans, clients=1)
    values = [
        finalize(result.values)[0]
        for finalize, result in zip(finalizes, pipe.results)
    ]
    wall_ms = (time.perf_counter() - start) * 1e3
    row = _row("batched+coalesced", pipe.stats, values, wall_ms)
    row["unique_keys"] = pipe.coalesce.unique_keys
    row["fair_requests_sum"] = sum(pipe.coalesce.fair_requests)
    # a plan replays what it loaded and did not read from the share
    row["coalesced_replays"] = sum(e.coalesced_replays for e in extras)
    row["partitions_replayed"] = sum(
        len(_pids(result.values)) for result in pipe.results
    ) - row["coalesced_replays"]
    row["partitions_touched"] = len(
        _pids(r.key for r in pipe.stats.requests)
    )
    return row


def _fmt(row):
    return (
        f"{row['label']:<24} {row['requests']:>6} req {row['rounds']:>5} "
        f"rounds {row['bytes'] / 1024:>9.1f} KiB {row['sim_ms']:>8.2f} "
        f"sim-ms {row['coalesced_hits']:>5} coalesced"
        + (f" {row['partitions_replayed']:>4} partitions replayed"
           f" {row['wall_ms']:>8.1f} wall-ms" if "wall_ms" in row else "")
    )


def test_coalesced_fetch_report(benchmark, sequential, coalesced):
    rows = benchmark.pedantic(
        lambda: [sequential, PIPELINED_ONLY, coalesced],
        rounds=1, iterations=1,
    )
    print_series(
        f"Cross-query fetch coalescing ({N_CENTERS} overlapping centers, "
        f"k={K}, m={M})", "",
        [_fmt(r) for r in rows],
    )


def test_members_identical_across_strategies(benchmark, sequential,
                                             coalesced):
    def _check():
        for a, b in zip(sequential["values"], coalesced["values"]):
            assert set(a.nodes()) == set(b.nodes())
            assert set(a.edges()) == set(b.edges())

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_coalesced_beats_pipelined_baseline(benchmark, sequential,
                                            coalesced):
    def _check():
        # the pinned row describes this dataset: overlap alone never
        # changed what is fetched
        assert PIPELINED_ONLY["requests"] == sequential["requests"]
        assert PIPELINED_ONLY["bytes"] == sequential["bytes"]
        assert coalesced["requests"] * 2.5 <= PIPELINED_ONLY["requests"]
        assert coalesced["sim_ms"] * 2.0 <= PIPELINED_ONLY["sim_ms"]
        assert coalesced["rounds"] < PIPELINED_ONLY["rounds"]
        assert coalesced["coalesced_hits"] > 0

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_each_partition_replayed_once(benchmark, sequential, coalesced):
    def _check():
        assert sequential["partitions_replayed"] == PARTITIONS_LOADED
        assert coalesced["partitions_touched"] == PARTITIONS_TOUCHED
        assert coalesced["partitions_replayed"] == PARTITIONS_TOUCHED
        assert coalesced["coalesced_replays"] == (
            PARTITIONS_LOADED - PARTITIONS_TOUCHED
        )

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_fair_attribution_conserved(benchmark, coalesced):
    def _check():
        # per-plan fair shares sum exactly to the deduplicated totals
        assert coalesced["fair_requests_sum"] == pytest.approx(
            coalesced["requests"]
        )
        assert coalesced["unique_keys"] == coalesced["requests"]

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_emit_json(benchmark, sequential, coalesced):
    def _emit():
        def strip(row):
            return {
                k: (round(v, 2) if isinstance(v, float) else v)
                for k, v in row.items()
                if k not in ("values",)
            }

        payload = {
            "dataset": 1,
            "m": M,
            "centers": N_CENTERS,
            "k": K,
            "sequential": strip(sequential),
            "pipelined_only": strip(PIPELINED_ONLY),
            "coalesced": strip(coalesced),
            "request_reduction_vs_pipelined": round(
                PIPELINED_ONLY["requests"] / coalesced["requests"], 2
            ),
            "sim_speedup_vs_pipelined": round(
                PIPELINED_ONLY["sim_ms"] / coalesced["sim_ms"], 2
            ),
            "replay_reduction_vs_sequential": round(
                sequential["partitions_replayed"]
                / coalesced["partitions_replayed"], 2
            ),
        }
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        return payload

    payload = benchmark.pedantic(_emit, rounds=1, iterations=1)
    assert RESULT_PATH.exists()
    assert payload["request_reduction_vs_pipelined"] >= 2.5
    assert payload["sim_speedup_vs_pipelined"] >= 2.0
