"""One pass of ``service_closed``: ``hgs serve`` as a subprocess with its
default flags, driven by closed-loop client threads.

The pass process is the client; everything reported about the server
comes from what it exposes (the response's ``"service"`` block,
``GET /metrics``) plus the rusage of the subprocess itself.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List

from repro.api import ServiceError
from repro.service import ServiceClient

from benchmarks.ledger import REPO_ROOT, child_env
from benchmarks.ledger.oracle import digest_service
from benchmarks.ledger.speed import normalise, probe_ns, probes
from benchmarks.ledger.workloads import SERVICE_CLIENTS, service_spec

STARTUP_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 30.0
WARMUP_THREADS = 4
#: HTTP statuses that mean "refused", not "wrong".
REFUSED = (429, 503, 504)


class Server:
    """``python -m repro.cli serve --index <path> --port 0``."""

    def __init__(self, index_path: str) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--index", str(index_path), "--port", "0"],
            stdout=subprocess.PIPE, env=child_env(), cwd=str(REPO_ROOT),
            text=True,
        )
        self.port = 0
        self.rss_kib = 0
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - start

    def _await_port(self) -> int:
        # a server that hangs silently is killed, which ends the read
        watchdog = threading.Timer(STARTUP_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
        finally:
            watchdog.cancel()
        raise RuntimeError("hgs serve did not start listening")

    def stop(self) -> None:
        """SIGTERM (graceful drain), reap, and keep the child's rusage."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        killer = threading.Timer(SHUTDOWN_TIMEOUT_S, self.proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kib = usage.ru_maxrss
        self.proc.stdout.close()


def _client_loop(
    port: int, client_id: int, ops: List[Dict[str, Any]],
    results: List[Any], probe_log: List[int],
) -> None:
    client = ServiceClient(port=port, caller=f"client-{client_id}")
    for op in ops:
        probe_log.append(probe_ns())
        start = time.perf_counter_ns()
        try:
            payload = client.query(service_spec(op))
            error = None
        except (ServiceError, OSError) as exc:  # refused or broken: failed op
            payload, error = None, exc
        results.append((time.perf_counter_ns() - start, payload, error))
    probe_log.append(probe_ns())


def _warm_up(port: int, ops: List[Dict[str, Any]]) -> float:
    """Issue the warm-up requests, a few at a time (they are full
    snapshots: one batching window coalesces what it can); returns the
    sim-ms they cost."""
    sim_ms: List[float] = []

    def worker(share: List[Dict[str, Any]]) -> None:
        client = ServiceClient(port=port, caller="warm-up")
        for op in share:
            sim_ms.append(client.query(service_spec(op))["sim_time_ms"])

    threads = [
        threading.Thread(target=worker, args=(ops[i::WARMUP_THREADS],))
        for i in range(WARMUP_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(sim_ms)


def run_service_pass(index_path: str, all_ops: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Start a server, warm it up, replay the timed ops (each client
    thread its own share, sequentially), stop the server; records are
    in the order of the timed ops."""
    setup_probes = probes()
    start = time.perf_counter()
    server = Server(index_path)
    try:
        warmup_sim_ms = _warm_up(
            server.port, [op for op in all_ops if op.get("warmup")]
        )
        setup_s = time.perf_counter() - start
        setup_probes += probes()
        ops = [op for op in all_ops if not op.get("warmup")]
        shares = [
            [op for op in ops if op["client"] == c]
            for c in range(SERVICE_CLIENTS)
        ]
        results: List[List[Any]] = [[] for _ in shares]
        client_probes: List[List[int]] = [[] for _ in shares]
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(server.port, c, share, results[c], client_probes[c]),
            )
            for c, share in enumerate(shares)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - wall_start
        metrics = ServiceClient(port=server.port, caller="ledger").metrics()
    finally:
        server.stop()
    # only the executing part of a request is speed-normalised: time
    # spent waiting for the batching window to close is a timer
    normalised = [
        iter(normalise(
            [lat for lat, _p, _e in results[c]], client_probes[c],
            [
                payload["service"]["queue_ms"] * 1e6 if payload else 0.0
                for _lat, payload, _e in results[c]
            ],
        ))
        for c in range(SERVICE_CLIENTS)
    ]
    records: Dict[str, Any] = {
        "lat_ns": [], "norm_ns": [], "sim_ms": [], "digests": [],
        "errors": [], "queue_ms": [], "exec_ms": [], "http_ms": [],
        "refused": 0,
    }
    cursors = [iter(out) for out in results]
    for i, op in enumerate(ops):
        lat_ns, payload, error = next(cursors[op["client"]])
        records["lat_ns"].append(lat_ns)
        records["norm_ns"].append(next(normalised[op["client"]]))
        if error is not None:
            if getattr(error, "http_status", None) in REFUSED:
                records["refused"] += 1
            records["errors"].append([i, f"{type(error).__name__}: {error}"])
            records["sim_ms"].append(0.0)
            records["digests"].append(None)
            continue
        records["sim_ms"].append(payload["sim_time_ms"])
        records["digests"].append(digest_service(op, payload))
        block = payload["service"]
        records["queue_ms"].append(block["queue_ms"])
        records["exec_ms"].append(block["exec_ms"])
        # what is left of the client's wait: HTTP, parsing, wire encode
        records["http_ms"].append(
            lat_ns / 1e6 - block["queue_ms"] - block["exec_ms"]
        )
    # Store traffic and sim time cover the server's whole life, warm-up
    # included: the timed requests alone read about two rows per op from
    # the store, a number that moves by half between seeds.
    store = metrics["store"]
    records["requests_total"] = sum(store["requests_by_caller"].values())
    records["bytes_total"] = sum(store["bytes_by_caller"].values())
    records["sim_ms_total"] = warmup_sim_ms + sum(records["sim_ms"])
    records["batches"] = metrics["batches"]
    records["wall_s"] = wall_s
    records["startup_s"] = server.startup_s
    records["setup_s"] = setup_s
    records["setup_probes"] = setup_probes
    records["import_s"] = 0.0
    records["rss_kib"] = server.rss_kib
    return records
