"""Tracing overhead on the coalesced 16-center k-hop workload.

The tracer (``repro/obs/``) promises a near-free off switch: with no
tracer attached — or an attached tracer whose sampling policy declines
the query — every instrumentation site costs one context-variable read
and consumes no randomness, so untraced execution stays bit-identical
to a build that predates tracing.  Ratio sampling amortizes full span
trees over a stride of queries and must stay within a small constant
factor.

Three variants run the same batched 16-center 2-hop workload (dataset
1, m=4, coalesced + pipelined — the `bench_coalesced_fetch` shape),
interleaved per rep so drift hits all variants equally:

- **baseline**: no tracer attached (the PR 9 configuration);
- **off**: ``Tracer(SamplingPolicy.off())`` attached but declining;
- **ratio**: ``Tracer(SamplingPolicy.ratio_of(0.25))`` — every fourth
  batch carries a full span tree.

The min-of-reps wall ratios off/baseline and ratio/baseline are recorded,
never asserted (the VM's clock swings by more than the margins they
would have to resolve).  The bar is what repeats exactly: **off**
constructs zero ``Span`` objects over the whole run (so does the
baseline; ratio sampling constructs some); per-rep ``QueryStats`` are
bit-identical between baseline and off; and a fully-traced rep's Chrome
trace reconciles with the reported sim-ms within 1%.  Emits
``BENCH_trace_overhead.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from benchmarks.conftest import build_tgi, counting, print_series, probe_nodes
from repro.api import QueryRequest
from repro.obs import SamplingPolicy, Tracer, chrome_trace
from repro.obs.trace import Span
from repro.session import GraphSession

N_CENTERS = 16
K = 2
M = 4
REPS = 13  # ratio 0.25 traces reps 4, 8, 12 (deterministic stride)

RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_trace_overhead.json"
)


@pytest.fixture(scope="module")
def setup(dataset1_events):
    t = dataset1_events[-1].time
    centers = probe_nodes(dataset1_events, N_CENTERS, seed=31, alive_at=t)
    return dataset1_events, centers, t


def _requests(centers, t):
    return [
        QueryRequest(kind="khop", t=t, nodes=(c,), k=K, single=True)
        for c in centers
    ]


def _make_session(events, tracer):
    session = GraphSession.from_index(build_tgi(events, m=M))
    session.tracer = tracer
    return session


@pytest.fixture(scope="module")
def measured(setup):
    """Interleaved reps over three identically built sessions."""
    events, centers, t = setup
    sessions = {
        "baseline": _make_session(events, None),
        "off": _make_session(events, Tracer(SamplingPolicy.off())),
        "ratio": _make_session(events, Tracer(SamplingPolicy.ratio_of(0.25))),
    }
    walls = {name: [] for name in sessions}
    stats = {name: [] for name in sessions}
    spans = dict.fromkeys(sessions, 0)
    counts = {"__init__": 0}
    with pytest.MonkeyPatch.context() as patch:
        # a pass-through only a constructed Span ever enters
        counting(patch, Span, "__init__", counts)
        for _rep in range(REPS):
            for name, session in sessions.items():
                requests = _requests(centers, t)
                before = counts["__init__"]
                start = time.perf_counter()
                results = session.execute_batch(requests)
                walls[name].append((time.perf_counter() - start) * 1e3)
                spans[name] += counts["__init__"] - before
                stats[name].append([r.stats.as_dict() for r in results])
    return walls, stats, spans


@pytest.fixture(scope="module")
def traced_reconciliation(setup):
    """One fully-traced rep: Chrome export vs reported sim-ms."""
    events, centers, t = setup
    session = _make_session(events, Tracer(SamplingPolicy.all()))
    results = session.execute_batch(_requests(centers, t))
    root = session.tracer.last()
    doc = chrome_trace(root)
    sim_events = [
        ev for ev in doc["traceEvents"]
        if ev.get("ph") == "X" and ev.get("pid") == 1
    ]
    trace_end_ms = max(ev["ts"] + ev["dur"] for ev in sim_events) / 1000.0
    stats_end_ms = max(r.stats.sim_time_ms for r in results)
    drift = abs(trace_end_ms - stats_end_ms) / stats_end_ms
    return {
        "spans": sum(1 for _ in root.walk()),
        "chrome_events": len(doc["traceEvents"]),
        "trace_end_ms": trace_end_ms,
        "stats_end_ms": stats_end_ms,
        "drift_pct": drift * 100.0,
    }


def _summary(walls):
    rows = {}
    for name, series in walls.items():
        rows[name] = {
            "reps": len(series),
            "min_ms": min(series),
            "median_ms": statistics.median(series),
        }
    base = rows["baseline"]["min_ms"]
    for name in ("off", "ratio"):
        rows[name]["overhead_x"] = rows[name]["min_ms"] / base
    return rows


def test_tracing_overhead_report(benchmark, measured):
    walls, _stats, _spans = measured
    rows = benchmark.pedantic(lambda: _summary(walls), rounds=1, iterations=1)
    print_series(
        f"Tracing overhead ({N_CENTERS} coalesced centers, k={K}, m={M}, "
        f"{REPS} interleaved reps)", "",
        [
            f"{name:<10} min {row['min_ms']:>8.2f} ms  median "
            f"{row['median_ms']:>8.2f} ms"
            + (
                f"  overhead {row['overhead_x']:>5.3f}x"
                if "overhead_x" in row else ""
            )
            for name, row in rows.items()
        ],
    )


def test_off_mode_constructs_no_spans(benchmark, measured):
    _walls, _stats, spans = measured

    def _check():
        assert spans["baseline"] == 0 and spans["off"] == 0
        assert spans["ratio"] > 0  # the counter sees the sampled reps

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_off_mode_stats_bit_identical(benchmark, measured):
    _walls, stats, _spans = measured

    def _check():
        # identically built indexes + identical query sequence: caches
        # evolve in lockstep, so every rep's stats must match exactly
        assert stats["baseline"] == stats["off"]

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_traced_chrome_export_reconciles(benchmark, traced_reconciliation):
    def _check():
        assert traced_reconciliation["drift_pct"] <= 1.0
        assert traced_reconciliation["spans"] > N_CENTERS

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_emit_json(benchmark, measured, traced_reconciliation):
    walls, _stats, spans = measured

    def _emit():
        rows = _summary(walls)
        payload = {
            "dataset": 1,
            "m": M,
            "centers": N_CENTERS,
            "k": K,
            "reps": REPS,
            "variants": {
                name: {
                    k: (round(v, 3) if isinstance(v, float) else v)
                    for k, v in row.items()
                }
                for name, row in rows.items()
            },
            "spans_constructed": spans,
            "stats_bit_identical": True,
            "traced": {
                k: (round(v, 3) if isinstance(v, float) else v)
                for k, v in traced_reconciliation.items()
            },
        }
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        return payload

    benchmark.pedantic(_emit, rounds=1, iterations=1)
    assert RESULT_PATH.exists()
