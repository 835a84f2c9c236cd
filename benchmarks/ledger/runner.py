"""Measuring one workload end to end: set-up, passes, verification and
the reduction of per-op records to the end-to-end metrics.

Noise protocol.  Every pass replays the identical op list on a fresh
session in a fresh process; every time is scaled to the reference speed
by the probes around it (see :mod:`benchmarks.ledger.speed`), and op
*i*'s latency is the median over passes.  Set-up is repeated and its
median reported.  Tracing is off and ``gc.freeze()`` follows set-up.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import write_events

from benchmarks.ledger import OUT_DIR, REPO_ROOT, child_env, datasets, speed
from benchmarks.ledger.oracle import Oracle
from benchmarks.ledger.service import run_service_pass
from benchmarks.ledger.workloads import make_ops

MIN_PASSES = 3
SETUP_REPEATS = 3
PASS_TIMEOUT_S = 150
#: Served index: caches large enough to hold the whole request pool.
SERVE_CACHE_ENTRIES = 4096
SERVE_CHECKPOINT_ENTRIES = 256
COUNT_KEYS = ("sim_ms", "requests", "bytes")


class LedgerError(RuntimeError):
    """The benchmark itself could not produce a trustworthy result."""


@dataclass
class Prepared:
    """Everything a workload's passes need, made from the seed."""

    workload: str
    seed: int
    scale_name: str
    work_dir: Path
    dataset: datasets.Dataset
    ops: List[Dict[str, Any]]
    expected: List[Optional[str]]
    user_bytes: int
    index_path: Optional[Path] = None
    events_path: Optional[Path] = None
    setup_samples_s: List[float] = field(default_factory=list)
    stored_bytes: int = 0
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def timed_ops(self) -> List[Dict[str, Any]]:
        return [op for op in self.ops if _is_timed(op)]

    @property
    def timed_expected(self) -> List[Optional[str]]:
        return [e for op, e in zip(self.ops, self.expected) if _is_timed(op)]

    def job(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "scale": self.scale_name,
            "ops": self.ops,
            "index_path": str(self.index_path) if self.index_path else None,
            "events_path": str(self.events_path) if self.events_path else None,
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _is_timed(op: Dict[str, Any]) -> bool:
    return not op.get("warmup") and op["kind"] not in ("build", "reload")


def prepare(
    workload: str, seed: int, scale_name: str = "d1",
    setup_repeats: int = SETUP_REPEATS,
) -> Prepared:
    """Generate ``D1`` from the seed, derive ops and expected digests,
    and build + save the index the workload opens (``setup_repeats``
    times, keeping every timing)."""
    scale = datasets.SCALES[scale_name]
    dataset = datasets.generate(seed, scale)
    datasets.self_check(dataset)
    ops = make_ops(workload, dataset)
    expected = Oracle(dataset.events).expected(
        ops, service=workload == "service_closed"
    )
    work_dir = OUT_DIR / f"work-{os.getpid()}-{workload}-{seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    user_path = work_dir / "events.jsonl"
    write_events(dataset.events, user_path)
    prepared = Prepared(
        workload, seed, scale_name, work_dir, dataset, ops, expected,
        user_bytes=user_path.stat().st_size,
    )
    try:
        if workload == "ingest_update":
            # the pass builds and updates its own index from the raw events
            prepared.events_path = work_dir / "events.pickle"
            with open(prepared.events_path, "wb") as f:
                pickle.dump(dataset.events, f, protocol=pickle.HIGHEST_PROTOCOL)
        else:
            build_and_save(prepared, setup_repeats)
    except BaseException:
        prepared.cleanup()
        raise
    return prepared


def build_and_save(prepared: Prepared, repeats: int) -> None:
    """``TGI.build`` + ``save_index`` on ``D1``, ``repeats`` times; each
    timing is scaled by the speed probes taken around it."""
    scale = prepared.dataset.scale
    served = prepared.workload == "service_closed"
    prepared.index_path = prepared.work_dir / (
        "d1_warm.hgs" if served else "d1_cold.hgs"
    )
    for _ in range(repeats):
        around = speed.probes()
        tgi, build_s, prepared.layer = datasets.build_index(
            prepared.dataset.events, datasets.tgi_config(scale)
        )
        save_s = datasets.save_variant(
            tgi, prepared.index_path,
            SERVE_CACHE_ENTRIES if served else 0,
            SERVE_CHECKPOINT_ENTRIES if served else 0,
        )
        around += speed.probes()
        prepared.setup_samples_s.append(
            speed.at_reference_speed(build_s + save_s, around)
        )
        prepared.stored_bytes = tgi.cluster.stored_bytes
        del tgi


def _spawn_pass(prepared: Prepared, number: int) -> Dict[str, Any]:
    """One untraced pass in its own interpreter."""
    job_path = prepared.work_dir / "job.pickle"
    if not job_path.exists():
        with open(job_path, "wb") as f:
            pickle.dump(prepared.job(), f, protocol=pickle.HIGHEST_PROTOCOL)
    out_path = prepared.work_dir / f"pass-{number}.pickle"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "pass",
         "--job", str(job_path), "--out", str(out_path)],
        env=child_env(), cwd=str(REPO_ROOT), timeout=PASS_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise LedgerError(
            f"pass {number} of {prepared.workload} exited {proc.returncode}"
        )
    with open(out_path, "rb") as f:
        return pickle.load(f)


def run_passes(
    prepared: Prepared, seconds: float, min_passes: int = MIN_PASSES
) -> List[Dict[str, Any]]:
    """Passes until ``seconds`` are used up, and at least ``min_passes``."""
    passes: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        if prepared.workload == "service_closed":
            records = run_service_pass(str(prepared.index_path), prepared.ops)
        else:
            records = _spawn_pass(prepared, len(passes))
        passes.append(records)
        now = time.perf_counter()
        if len(passes) >= min_passes and (
            now - start + (now - pass_start) > seconds
        ):
            return passes


def tail_mean(values: Sequence[float]) -> float:
    """Mean of the slowest tenth of ``values`` (of the slowest three
    where a tenth is fewer: ``khop_batch`` has 16 ops a pass)."""
    ordered = sorted(values)
    return statistics.mean(ordered[-max(3, math.ceil(0.10 * len(ordered))):])


def verify(
    prepared: Prepared, passes: List[Dict[str, Any]], same_counts: bool = True
) -> Dict[str, Any]:
    """Check every pass against the oracle and the passes against each
    other; returns attempted/failed op counts and what went wrong."""
    expected = prepared.timed_expected
    attempted = failed = 0
    problems: List[str] = []
    for number, records in enumerate(passes):
        if len(records["digests"]) != len(expected):
            raise LedgerError(
                f"pass {number} ran {len(records['digests'])} ops, "
                f"expected {len(expected)}"
            )
        attempted += len(expected)
        bad = {i for i, _msg in records["errors"]}
        for i, (got, want) in enumerate(zip(records["digests"], expected)):
            if i not in bad and got != want:
                bad.add(i)
                problems.append(
                    f"pass {number} op {i} {prepared.timed_ops[i]}: "
                    f"digest {got} != oracle {want}"
                )
        problems.extend(
            f"pass {number} op {i}: {msg}" for i, msg in records["errors"]
        )
        failed += len(bad)
    if same_counts and prepared.workload != "service_closed":
        # in-process counts come from the sim clock: they must repeat
        for key in COUNT_KEYS:
            if any(records[key] != passes[0][key] for records in passes[1:]):
                raise LedgerError(
                    f"{prepared.workload}: per-op {key} differ between "
                    "passes of identical ops (non-determinism in the program "
                    "or the harness)"
                )
    return {"attempted": attempted, "failed": failed, "problems": problems}


def count_metrics(
    prepared: Prepared, passes: List[Dict[str, Any]]
) -> Dict[str, float]:
    """The three sim-clock metrics, per timed op.  In-process they
    repeat between passes (``verify`` insists), so the first pass speaks
    for all; for the served workload they vary with how requests fall
    into batching windows.  On the two warm workloads they cover warm-up
    too: the timed ops alone read so little from the store (2 to 8 rows
    per op) that the number moves by a fifth to a half between seeds."""
    n_ops = len(prepared.timed_ops)
    if prepared.workload == "service_closed":
        sim, requests, nbytes = (
            statistics.mean(r[key] for r in passes) / n_ops
            for key in ("sim_ms_total", "requests_total", "bytes_total")
        )
    else:
        first = passes[0]
        warmup = first.get("warmup_counts", (0.0, 0.0, 0.0))
        sim, requests, nbytes = (
            (sum(first[key]) + warmup[i]) / n_ops
            for i, key in enumerate(("sim_ms", "requests", "bytes"))
        )
    return {
        "sim_ms_per_op": sim,
        "store_requests_per_op": requests,
        "store_kib_per_op": nbytes / 1024,
    }


def reduce_passes(
    prepared: Prepared, passes: List[Dict[str, Any]]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end metrics of one workload from its passes, and next
    to them what the machine actually did (not normalised, not judged)."""
    n_ops = len(prepared.timed_ops)
    service = prepared.workload == "service_closed"
    per_pass = [
        [ns / 1e6 for ns in (
            r["norm_ns"] if service
            else speed.normalise(r["lat_ns"], r["probe_ns"])
        )]
        for r in passes
    ]
    raw_pass = [[ns / 1e6 for ns in r["lat_ns"]] for r in passes]
    if service:
        # Requests do not line up across passes (which ones share a
        # batching window differs, and the server's collector pauses land
        # one request earlier or later), so each pass is reduced on its
        # own and the median pass reported.  The clients overlap:
        # throughput is requests over the pass's wall, scaled like the
        # latencies were.
        p50 = statistics.median(statistics.median(lat) for lat in per_pass)
        tail = statistics.median(tail_mean(lat) for lat in per_pass)
        raw_p50 = statistics.median(statistics.median(lat) for lat in raw_pass)
        raw_tail = statistics.median(tail_mean(lat) for lat in raw_pass)
        ops_per_s = n_ops / statistics.median(
            r["wall_s"] * sum(r["norm_ns"]) / sum(r["lat_ns"]) for r in passes
        )
    else:
        # op i is the same work in every pass: its latency is the median
        # over passes, which drops whatever hit it in one pass only
        lat_ms = [
            statistics.median(lat[i] for lat in per_pass) for i in range(n_ops)
        ]
        raw_ms = [
            statistics.median(lat[i] for lat in raw_pass) for i in range(n_ops)
        ]
        p50, tail = statistics.median(lat_ms), tail_mean(lat_ms)
        raw_p50, raw_tail = statistics.median(raw_ms), tail_mean(raw_ms)
        ops_per_s = n_ops / (sum(lat_ms) / 1e3)
    child_setup = statistics.median(
        speed.at_reference_speed(
            r["import_s"] + r["setup_s"], r["setup_probes"]
        )
        for r in passes
    )
    parent_setup = (
        statistics.median(prepared.setup_samples_s)
        if prepared.setup_samples_s else 0.0
    )
    stored = (
        passes[0]["stored_bytes"] if prepared.workload == "ingest_update"
        else prepared.stored_bytes
    )
    metrics = {
        "setup_s": parent_setup + child_setup,
        "wall_ms_p50": p50,
        "wall_ms_tail10": tail,
        "ops_per_s": ops_per_s,
        **count_metrics(prepared, passes),
        "peak_rss_mib": max(r["rss_kib"] for r in passes) / 1024,
        "stored_bytes_per_user_byte": stored / prepared.user_bytes,
    }
    raw = {
        "wall_ms_p50": raw_p50, "wall_ms_tail10": raw_tail,
        "speed_x": raw_p50 / p50,
    }
    return metrics, raw


def measure(
    workload: str, seed: int, seconds: float, scale_name: str = "d1",
    min_passes: int = MIN_PASSES, setup_repeats: int = SETUP_REPEATS,
) -> Dict[str, Any]:
    """Set up, run untraced passes for ``seconds``, verify, reduce."""
    prepared = prepare(workload, seed, scale_name, setup_repeats)
    try:
        passes = run_passes(prepared, seconds, min_passes)
        check = verify(prepared, passes)
        metrics, raw = reduce_passes(prepared, passes)
    finally:
        prepared.cleanup()
    return {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "ops_per_pass": len(prepared.timed_ops),
        "events": len(prepared.dataset.events),
        "metrics": metrics,
        "raw": raw,
        **check,
    }
