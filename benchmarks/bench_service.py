"""The query service under concurrent load: batched vs per-request.

32 concurrent HTTP clients issue overlapping k-hop queries (k=2,
centers drawn from a pool of 8, so every center is requested by ~4
callers at once).  The service's micro-batching collector gathers the
burst into one window (<= 25 ms) and runs it through coalesced
``execute_batch``; the per-request baseline executes the same 32
requests one ``session.execute`` at a time, the way independent callers
without a serving layer would.

Bars:

- **store-request reduction >= 3x**: the service's fair per-request
  shares (which sum exactly to the deduplicated store totals) against
  the per-request baseline's totals;
- **member-identical**: every HTTP response's neighborhood matches the
  baseline execution for its center;
- **latency containment**: p50 wall latency of the concurrent burst
  stays within 2x of a lone request through the same service (both pay
  the batching window, so the comparison isolates the cost of sharing
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


@pytest.fixture(scope="module")
def served(tgi, workload):
    """The same 32 requests through the service, concurrently."""
    t, centers, specs = workload
    with BackgroundService(
        GraphSession.from_index(tgi),
        window_ms=WINDOW_MS,
        max_batch=N_CLIENTS,
    ) as svc:
        # lone-request latency first: each sequential request pays the
        # full window by itself
        solo_wall_ms = []
        solo_client = ServiceClient(port=svc.port, caller="solo")
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
            client = ServiceClient(port=svc.port, caller=f"client-{i}")
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
    batch_sizes = sorted({p["service"]["batch_size"] for p in payloads})
    batch_ids = {p["service"]["batch_id"] for p in payloads}
    return {
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
        "batches": len(batch_ids),
    }


def test_service_report(benchmark, baseline, served):
    def _show():
        return baseline, served

    benchmark.pedantic(_show, rounds=1, iterations=1)
    print_series(
        f"Query service: {N_CLIENTS} concurrent clients over "
        f"{CENTER_POOL} centers (k={K}, window={WINDOW_MS:g}ms)", "",
        [
            f"per-request baseline: {baseline['store_requests']:.0f} store "
            f"requests",
            f"served (batched):     {served['store_requests']:.2f} store "
            f"requests in {served['batches']} batch(es) "
            f"sizes={served['batch_sizes']}",
            f"coalesced hits: {served['coalesced_hits']}, "
            f"p50 {served['wall_p50_ms']:.1f}ms vs solo "
            f"{served['solo_p50_ms']:.1f}ms",
        ],
    )


def test_members_identical_through_service(benchmark, baseline, served,
                                           workload):
    _t, _centers, specs = workload

    def _check():
        for spec, payload in zip(specs, served["payloads"]):
            assert payload["members"] == baseline["members"][spec["node"]]

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_store_request_reduction(benchmark, baseline, served):
    def _check():
        reduction = baseline["store_requests"] / served["store_requests"]
        assert reduction >= 3.0, (
            f"expected >=3x fewer store requests through the service, "
            f"got {reduction:.2f}x"
        )
        # fair fractional attribution sums to the metrics-side totals
        assert served["store_requests_metrics"] == pytest.approx(
            served["store_requests"], rel=0.01
        )
        assert served["coalesced_hits"] > 0

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

        def issue(i):
            client = ServiceClient(port=port, caller=f"drainer-{i}")
            try:
                payload = client.query(specs[i])
                outcomes[i] = ("ok", payload["members"])
            except Exception as exc:
                outcomes[i] = ("error", repr(exc))

        # load the 100ms window, then SIGTERM while it is open
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
        for thread in threads:
            thread.join(timeout=30.0)
        exit_code = proc.wait(timeout=30.0)
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


def test_emit_json(benchmark, baseline, served, drain_run):
    def _emit():
        payload = {
            "clients": N_CLIENTS,
            "center_pool": CENTER_POOL,
            "k": K,
            "m": M,
            "window_ms": WINDOW_MS,
            "baseline_store_requests": round(
                baseline["store_requests"], 2
            ),
            "served_store_requests": round(served["store_requests"], 2),
            "request_reduction": round(
                baseline["store_requests"] / served["store_requests"], 2
            ),
            "coalesced_hits": served["coalesced_hits"],
            "batches": served["batches"],
            "batch_sizes": served["batch_sizes"],
            "solo_p50_ms": round(served["solo_p50_ms"], 2),
            "concurrent_p50_ms": round(served["wall_p50_ms"], 2),
            "concurrent_max_ms": round(served["wall_max_ms"], 2),
            "latency_ratio": round(
                served["wall_p50_ms"] / served["solo_p50_ms"], 2
            ),
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
    assert payload["latency_ratio"] <= 2.0
    assert payload["drain"]["exit_code"] == 0
    assert payload["drain"]["completed"] == 8
