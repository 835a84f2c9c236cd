"""The query service under concurrent load: batched vs per-request.

32 concurrent HTTP clients issue overlapping k-hop queries (k=2,
centers drawn from a pool of 8, so every center is requested by ~4
callers at once), through the service twice:

- **linger row** (``window_ms=25``): a free worker holds the first
  arrival up to 25 ms for company, so the whole burst runs as one
  coalesced ``execute_batch`` of 32;
- **default row** (``window_ms=0``): the first arrival meets a free
  worker and runs at once; the rest of the burst is what arrived while
  it ran, and runs as the next batch(es) — batching from backpressure
  alone, no wait anywhere.

The per-request baseline executes the same 32 requests one
``session.execute`` at a time, the way independent callers without a
serving layer would.

Bars (the first three hold for both rows, the latency bar for the
linger row; each row's ``solo_p50_ms`` / ``batches`` / ``batch_sizes``
are recorded, never asserted):

- **store-request reduction >= 3x**: the service's fair per-request
  shares (which sum exactly to the deduplicated store totals) against
  the per-request baseline's totals;
- **member-identical**: every HTTP response's neighborhood matches the
  baseline execution for its center;
- **latency containment**: p50 wall latency of the concurrent burst
  stays within 2x of a lone request through the same service (with a
  linger both pay it, so the comparison isolates the cost of sharing
  a batch with 31 other callers);
- **graceful drain**: SIGTERM to a live ``hgs serve`` process during
  load lets admitted requests complete, rejects new ones with 503, and
  exits 0.

Emits ``BENCH_service.json``.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import GraphSession, TGI, TGIConfig, save_index
from repro.api import Draining, QueryRequest, ServiceError
from repro.kvstore.cluster import ClusterConfig
from repro.service import BackgroundService, ServiceClient
from repro.workloads.citation import CitationConfig, generate_citation_events

from benchmarks.conftest import print_series, probe_nodes

N_CLIENTS = 32
CENTER_POOL = 8
K = 2
M = 4
WINDOW_MS = 25.0

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_service.json"


@pytest.fixture(scope="module")
def events():
    # smaller than dataset 1 so one coalesced 32-query batch executes
    # well inside the latency bar on CI hardware
    return generate_citation_events(
        CitationConfig(num_nodes=400, citations_per_node=3, seed=42)
    )


@pytest.fixture(scope="module")
def tgi(events):
    tgi = TGI(TGIConfig(
        events_per_timespan=2500,
        eventlist_size=200,
        micro_partition_size=64,
        cluster=ClusterConfig(num_machines=M),
    ))
    tgi.build(events)
    return tgi


@pytest.fixture(scope="module")
def workload(events, tgi):
    t = events[-1].time
    centers = probe_nodes(events, CENTER_POOL, seed=31, alive_at=t)
    # 32 client requests cycling over the 8-center pool
    specs = [
        {"kind": "khop", "node": centers[i % CENTER_POOL], "time": t, "k": K}
        for i in range(N_CLIENTS)
    ]
    return t, centers, specs


@pytest.fixture(scope="module")
def baseline(tgi, workload):
    """Per-request execution: what 32 independent callers pay without
    the serving layer batching them."""
    t, centers, specs = workload
    session = GraphSession.from_index(tgi)
    total_requests = 0.0
    total_bytes = 0.0
    members = {}
    wall_ms = []
    for spec in specs:
        t0 = time.perf_counter()
        result = session.execute(QueryRequest(
            kind="khop", t=spec["time"], nodes=(spec["node"],),
            k=spec["k"], single=True,
        ))
        wall_ms.append((time.perf_counter() - t0) * 1000.0)
        total_requests += result.stats.requests
        total_bytes += result.stats.bytes_read
        members[spec["node"]] = sorted(result.value.nodes())
    return {
        "store_requests": total_requests,
        "store_bytes": total_bytes,
        "members": members,
        "exec_p50_ms": statistics.median(wall_ms),
    }


def _serve_burst(tgi, workload, window_ms):
    """Eight lone requests, then the 32-client burst, through one
    service with the given linger."""
    t, centers, specs = workload
    with BackgroundService(
        GraphSession.from_index(tgi),
        window_ms=window_ms,
        max_batch=N_CLIENTS,
    ) as svc, ServiceClient(port=svc.port, caller="solo") as solo_client:
        # lone-request latency first: each sequential request pays the
        # whole linger (if any) by itself
        solo_wall_ms = []
        for spec in specs[:8]:
            t0 = time.perf_counter()
            solo_client.query(spec)
            solo_wall_ms.append((time.perf_counter() - t0) * 1000.0)

        # metrics baseline before the burst, so the burst's store work
        # can be isolated
        before = solo_client.metrics()

        payloads = [None] * N_CLIENTS
        wall_ms = [0.0] * N_CLIENTS
        barrier = threading.Barrier(N_CLIENTS)

        def call(i):
            with ServiceClient(
                port=svc.port, caller=f"client-{i}"
            ) as client:
                barrier.wait()
                t0 = time.perf_counter()
                payloads[i] = client.query(specs[i])
                wall_ms[i] = (time.perf_counter() - t0) * 1000.0

        threads = [
            threading.Thread(target=call, args=(i,))
            for i in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = solo_client.metrics()

    def total(snapshot, field):
        return sum(snapshot["store"][field].values())

    burst_requests = sum(p["deltas_fetched"] for p in payloads)
    # one size per batch, in dispatch order
    batch_sizes = [
        size for _batch_id, size in sorted({
            (p["service"]["batch_id"], p["service"]["batch_size"])
            for p in payloads
        })
    ]
    return {
        "window_ms": window_ms,
        "payloads": payloads,
        "wall_p50_ms": statistics.median(wall_ms),
        "wall_max_ms": max(wall_ms),
        "solo_p50_ms": statistics.median(solo_wall_ms),
        "store_requests": burst_requests,
        "store_requests_metrics": (
            total(after, "requests_by_caller")
            - total(before, "requests_by_caller")
        ),
        "coalesced_hits": sum(
            p.get("coalesce", {}).get("hits", 0) for p in payloads
        ),
        "batch_sizes": batch_sizes,
        "batches": len(batch_sizes),
    }


@pytest.fixture(scope="module")
def served(tgi, workload):
    """The same 32 requests through the service, concurrently, with a
    25 ms linger: one batch."""
    return _serve_burst(tgi, workload, WINDOW_MS)


@pytest.fixture(scope="module")
def served_default(tgi, workload):
    """... and with the service's defaults (no linger): batches form
    from what arrives while the first request runs."""
    return _serve_burst(tgi, workload, 0.0)


@pytest.fixture(scope="module", params=["linger", "default"])
def row(request, served, served_default):
    return served if request.param == "linger" else served_default


def test_service_report(benchmark, baseline, served, served_default):
    def _show():
        return baseline, served, served_default

    benchmark.pedantic(_show, rounds=1, iterations=1)
    lines = [
        f"per-request baseline: {baseline['store_requests']:.0f} store "
        f"requests",
    ]
    for run in (served, served_default):
        lines += [
            f"served, window={run['window_ms']:g}ms: "
            f"{run['store_requests']:.2f} store requests in "
            f"{run['batches']} batch(es) sizes={run['batch_sizes']}",
            f"  coalesced hits: {run['coalesced_hits']}, "
            f"p50 {run['wall_p50_ms']:.1f}ms vs solo "
            f"{run['solo_p50_ms']:.1f}ms",
        ]
    print_series(
        f"Query service: {N_CLIENTS} concurrent clients over "
        f"{CENTER_POOL} centers (k={K})", "", lines,
    )


def test_members_identical_through_service(benchmark, baseline, row,
                                           workload):
    _t, _centers, specs = workload

    def _check():
        for spec, payload in zip(specs, row["payloads"]):
            assert payload["members"] == baseline["members"][spec["node"]]

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_store_request_reduction(benchmark, baseline, row):
    def _check():
        reduction = baseline["store_requests"] / row["store_requests"]
        assert reduction >= 3.0, (
            f"expected >=3x fewer store requests through the service, "
            f"got {reduction:.2f}x"
        )
        # fair fractional attribution sums to the metrics-side totals
        assert row["store_requests_metrics"] == pytest.approx(
            row["store_requests"], rel=0.01
        )
        assert row["coalesced_hits"] > 0

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_latency_containment(benchmark, served):
    def _check():
        assert served["wall_p50_ms"] <= 2.0 * served["solo_p50_ms"], (
            f"concurrent p50 {served['wall_p50_ms']:.1f}ms vs solo "
            f"{served['solo_p50_ms']:.1f}ms"
        )

    benchmark.pedantic(_check, rounds=1, iterations=1)


# -- graceful drain of a real `hgs serve` process ---------------------------

@pytest.fixture(scope="module")
def drain_run(tgi, workload, tmp_path_factory):
    t, centers, specs = workload
    index_path = tmp_path_factory.mktemp("service") / "bench.tgi"
    save_index(tgi, index_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--index", str(index_path),
            "--port", "0",
            "--batch-window-ms", "100",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, f"unexpected startup line: {line!r}"
        port = int(line.rsplit(":", 1)[1])
        outcomes = {}
        exited = threading.Event()

        def issue(i):
            with ServiceClient(port=port, caller=f"drainer-{i}") as client:
                try:
                    payload = client.query(specs[i])
                    outcomes[i] = ("ok", payload["members"])
                except Exception as exc:
                    outcomes[i] = ("error", repr(exc))
                # keep the connection open until the server is gone: the
                # drain must hang up idle keep-alive connections itself
                exited.wait(timeout=30.0)

        # load the 100ms linger, then SIGTERM while it is running
        threads = [
            threading.Thread(target=issue, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.04)
        proc.send_signal(signal.SIGTERM)
        # a request arriving during the drain must be rejected, not hang
        rejected = None
        try:
            ServiceClient(port=port, timeout=5.0).query(specs[0])
            rejected = "accepted"
        except Draining as exc:
            rejected = f"503 {exc.code}"
        except ServiceError as exc:
            rejected = f"{exc.http_status} {exc.code}"
        except OSError as exc:
            rejected = f"connection refused ({type(exc).__name__})"
        try:
            exit_code = proc.wait(timeout=30.0)
        finally:
            exited.set()
        for thread in threads:
            thread.join(timeout=30.0)
        return {
            "outcomes": outcomes,
            "rejected": rejected,
            "exit_code": exit_code,
        }
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_graceful_drain(benchmark, drain_run, baseline, workload):
    _t, _centers, specs = workload

    def _check():
        assert drain_run["exit_code"] == 0
        assert drain_run["rejected"] != "accepted"
        completed = [
            (i, members)
            for i, (status, members) in drain_run["outcomes"].items()
            if status == "ok"
        ]
        # the burst was admitted before SIGTERM: it must have completed
        # with correct answers, not been dropped
        assert len(completed) == 8, drain_run["outcomes"]
        for i, members in completed:
            assert members == baseline["members"][specs[i]["node"]]

    benchmark.pedantic(_check, rounds=1, iterations=1)


def _row_json(run, baseline):
    """What one service row records (``window_ms`` tells them apart)."""
    return {
        "window_ms": run["window_ms"],
        "served_store_requests": round(run["store_requests"], 2),
        "request_reduction": round(
            baseline["store_requests"] / run["store_requests"], 2
        ),
        "coalesced_hits": run["coalesced_hits"],
        "batches": run["batches"],
        "batch_sizes": run["batch_sizes"],
        "solo_p50_ms": round(run["solo_p50_ms"], 2),
        "concurrent_p50_ms": round(run["wall_p50_ms"], 2),
        "concurrent_max_ms": round(run["wall_max_ms"], 2),
    }


def test_emit_json(benchmark, baseline, served, served_default, drain_run):
    def _emit():
        payload = {
            "clients": N_CLIENTS,
            "center_pool": CENTER_POOL,
            "k": K,
            "m": M,
            "baseline_store_requests": round(
                baseline["store_requests"], 2
            ),
            # the linger row, under the keys it has always had
            **_row_json(served, baseline),
            "latency_ratio": round(
                served["wall_p50_ms"] / served["solo_p50_ms"], 2
            ),
            # the service's defaults: batches from backpressure alone
            "default": _row_json(served_default, baseline),
            "drain": {
                "exit_code": drain_run["exit_code"],
                "rejected_during_drain": drain_run["rejected"],
                "completed": sum(
                    1 for status, _ in drain_run["outcomes"].values()
                    if status == "ok"
                ),
            },
        }
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        return payload

    payload = benchmark.pedantic(_emit, rounds=1, iterations=1)
    assert RESULT_PATH.exists()
    assert payload["request_reduction"] >= 3.0
    assert payload["default"]["request_reduction"] >= 3.0
    assert payload["latency_ratio"] <= 2.0
    assert payload["drain"]["exit_code"] == 0
    assert payload["drain"]["completed"] == 8
