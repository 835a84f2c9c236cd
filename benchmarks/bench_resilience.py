"""Availability under the canonical fault schedule: with vs. without
the resilience policy.

One of ``m=4`` store machines flaps (down 150 ms out of every 400 ms of
simulated time) and, while the schedule is active, rounds touching it
fail transiently 35% of the time and 8% of its rows come back
bit-flipped (caught by the CRC32 checksum envelope, so the failure is
typed, never silent).  ``N_QUERIES`` 2-hop queries run against this
cluster, each at its own simulated instant so they sample every phase of
the flap cycle; replication is ``r=2``, so every partition always has a
live copy *somewhere* — the only question is whether the fetch path
finds it.

Two measured runs against fault-free ground truth:

- **baseline** (plain fetch path: the same loop at one attempt, with no
  hedging and no breakers): keys on a transiently failing machine or
  behind a corrupt row go unserved and the query fails with a typed
  ``PartitionUnavailable``.  Availability is measurably below 1 — this
  run exists to prove the schedule has teeth;
- **resilient** (retry/backoff + hedging + circuit breakers): >= 99% of
  queries complete member-identical to the fault-free run, and every
  residual failure is a typed ``StorageError`` — never a bare
  ``KeyError``/``ValueError`` out of the fetch internals.

Also recorded: p99 simulated latency of successful queries for both
runs (the price of retries), and the policy's observability counters
(retries, hedges, breaker trips) summed over the run.

Emits ``BENCH_resilience.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import GraphSession, TGI, TGIConfig
from repro.api import QueryRequest
from repro.errors import StorageError
from repro.faults import (
    CorruptionFaults,
    FaultSchedule,
    TransientFaults,
    clear_faults,
    flapping_crashes,
    inject_faults,
)
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.resilience import ResiliencePolicy
from repro.workloads.citation import CitationConfig, generate_citation_events

from benchmarks.conftest import print_series, probe_nodes

M = 4
R = 2
VICTIM = 1
K = 2
N_QUERIES = 120
CENTER_POOL = 12
#: sim-ms between consecutive queries; coprime-ish with the 400 ms flap
#: period so the queries sample every phase of the cycle
EPOCH_MS = 37.0
FLAP_PERIOD_MS = 400.0
FLAP_DOWN_MS = 150.0
TRANSIENT_P = 0.35
CORRUPTION_P = 0.08

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_resilience.json"


def canonical_schedule() -> FaultSchedule:
    until = N_QUERIES * EPOCH_MS + FLAP_PERIOD_MS
    return FaultSchedule(
        crashes=flapping_crashes(
            VICTIM, FLAP_PERIOD_MS, FLAP_DOWN_MS,
            cycles=int(until / FLAP_PERIOD_MS) + 1,
        ),
        transient=(
            TransientFaults(VICTIM, TRANSIENT_P, until_ms=until),
        ),
        corruption=(
            CorruptionFaults(VICTIM, CORRUPTION_P, until_ms=until),
        ),
        seed=1234,
    )


@pytest.fixture(scope="module")
def events():
    return generate_citation_events(
        CitationConfig(num_nodes=400, citations_per_node=3, seed=42)
    )


def build_tgi(events):
    tgi = TGI(TGIConfig(
        events_per_timespan=2500,
        eventlist_size=200,
        micro_partition_size=64,
        cluster=ClusterConfig(
            num_machines=M, replication=R, checksums=True,
        ),
    ))
    tgi.build(events)
    return tgi


@pytest.fixture(scope="module")
def tgi(events):
    return build_tgi(events)


@pytest.fixture(scope="module")
def workload(events, tgi):
    t = events[-1].time
    centers = probe_nodes(events, CENTER_POOL, seed=31, alive_at=t)
    queries = [centers[i % CENTER_POOL] for i in range(N_QUERIES)]
    return t, queries


def run_workload(tgi, workload):
    """Execute the workload, one query per sim-time epoch.  Returns one
    outcome dict per query: members on success, the error's type name
    (and whether it was a typed StorageError) on failure."""
    t, queries = workload
    session = GraphSession.from_index(tgi)
    outcomes = []
    for i, center in enumerate(queries):
        tgi.cluster.set_clock(i * EPOCH_MS)
        request = QueryRequest(
            kind="khop", t=t, nodes=(center,), k=K, single=True,
        )
        try:
            result = session.execute(request)
        except Exception as exc:  # classified below; the bar is "typed"
            outcomes.append({
                "ok": False,
                "error": type(exc).__name__,
                "typed": isinstance(exc, StorageError),
            })
            continue
        outcomes.append({
            "ok": True,
            "members": sorted(result.value.nodes()),
            "sim_ms": result.stats.sim_time_ms,
            "retries": result.stats.retries,
            "hedges": result.stats.hedges,
            "breaker_trips": result.stats.breaker_trips,
        })
    tgi.cluster.set_clock(0.0)
    return outcomes


def p99(samples):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def summarize(outcomes, truth):
    """Availability = completed AND member-identical to fault-free."""
    identical = sum(
        1 for out, want in zip(outcomes, truth)
        if out["ok"] and out["members"] == want["members"]
    )
    failures = [out for out in outcomes if not out["ok"]]
    sims = [out["sim_ms"] for out in outcomes if out["ok"]]
    return {
        "queries": len(outcomes),
        "ok": sum(1 for out in outcomes if out["ok"]),
        "member_identical": identical,
        "availability": round(identical / len(outcomes), 4),
        "failures": len(failures),
        "untyped_failures": sum(1 for out in failures if not out["typed"]),
        "error_types": sorted({out["error"] for out in failures}),
        "p99_sim_ms": round(p99(sims), 2) if sims else None,
        "retries": sum(out.get("retries", 0) for out in outcomes),
        "hedges": sum(out.get("hedges", 0) for out in outcomes),
        "breaker_trips": sum(
            out.get("breaker_trips", 0) for out in outcomes
        ),
    }


@pytest.fixture(scope="module")
def truth(tgi, workload):
    """Fault-free ground truth (also sanity: nothing fails)."""
    outcomes = run_workload(tgi, workload)
    assert all(out["ok"] for out in outcomes)
    return outcomes


@pytest.fixture(scope="module")
def baseline(tgi, workload, truth):
    """The same workload on the plain fetch path under faults."""
    inject_faults(tgi.cluster, canonical_schedule())
    try:
        outcomes = run_workload(tgi, workload)
    finally:
        clear_faults(tgi.cluster)
    return summarize(outcomes, truth)


@pytest.fixture(scope="module")
def resilient(tgi, workload, truth):
    """The same workload and schedule with the policy enabled."""
    inject_faults(tgi.cluster, canonical_schedule())
    tgi.cluster.enable_resilience(ResiliencePolicy(seed=5))
    try:
        outcomes = run_workload(tgi, workload)
    finally:
        tgi.cluster.disable_resilience()
        clear_faults(tgi.cluster)
    return summarize(outcomes, truth)


def test_resilience_report(benchmark, baseline, resilient):
    def _show():
        return baseline, resilient

    benchmark.pedantic(_show, rounds=1, iterations=1)
    print_series(
        f"Availability under faults: {N_QUERIES} k-hop queries, "
        f"m={M} r={R}, machine {VICTIM} flapping "
        f"({FLAP_DOWN_MS:g}/{FLAP_PERIOD_MS:g} ms)", "",
        [
            f"baseline:  {baseline['availability']:.1%} available "
            f"({baseline['failures']} failed: "
            f"{', '.join(baseline['error_types']) or 'none'}), "
            f"p99 {baseline['p99_sim_ms']} sim-ms",
            f"resilient: {resilient['availability']:.1%} available "
            f"({resilient['retries']} retries, {resilient['hedges']} "
            f"hedges, {resilient['breaker_trips']} breaker trips), "
            f"p99 {resilient['p99_sim_ms']} sim-ms",
        ],
    )


def test_baseline_measurably_fails(benchmark, baseline):
    def _check():
        # the schedule must have teeth, or the resilient bar is vacuous
        assert baseline["availability"] < 0.99, baseline
        assert baseline["failures"] > 0
        # even unprotected, failures surface typed (checksums catch the
        # bit-flips; unserved keys settle as PartitionUnavailable)
        assert baseline["untyped_failures"] == 0, baseline

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_resilient_availability(benchmark, resilient):
    def _check():
        assert resilient["availability"] >= 0.99, resilient
        assert resilient["untyped_failures"] == 0, resilient
        # the policy did real work to get there
        assert resilient["retries"] > 0

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_emit_json(benchmark, baseline, resilient):
    def _emit():
        payload = {
            "m": M,
            "r": R,
            "k": K,
            "queries": N_QUERIES,
            "epoch_ms": EPOCH_MS,
            "schedule": {
                "victim": VICTIM,
                "flap_period_ms": FLAP_PERIOD_MS,
                "flap_down_ms": FLAP_DOWN_MS,
                "transient_probability": TRANSIENT_P,
                "corruption_probability": CORRUPTION_P,
            },
            "baseline": baseline,
            "resilient": resilient,
        }
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        return payload

    payload = benchmark.pedantic(_emit, rounds=1, iterations=1)
    assert RESULT_PATH.exists()
    assert payload["resilient"]["availability"] >= 0.99
    assert payload["baseline"]["availability"] < 0.99
    assert payload["resilient"]["untyped_failures"] == 0
