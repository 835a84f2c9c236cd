"""One pass: replay a workload's op list on a fresh session and record,
per op, its wall latency, the speed probes around it, its sim-clock
counts and its result digest.

An untraced pass runs in its own subprocess (``python -m
benchmarks.ledger pass``) so that allocator state, caches and peak RSS
belong to that pass alone; the traced run calls :func:`run_pass`
in-process with a :class:`~benchmarks.ledger.tracing.SpanRecorder`.
"""

from __future__ import annotations

import gc
import pickle
import resource
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.storage
from repro import GraphSession, TGI, open_graph

from benchmarks.ledger import datasets
from benchmarks.ledger.oracle import digest_value
from benchmarks.ledger.speed import probe_ns, probes
from benchmarks.ledger.workloads import execute_op, op_counts

#: Caches of the two warm in-process workloads (delta rows, checkpoints):
#: the hot head fits, the tail evicts.
WARM_CACHE_ENTRIES = 1024
WARM_CHECKPOINT_ENTRIES = 128

Job = Dict[str, Any]


class _Records:
    """Per-op vectors of one pass (what the runner reduces)."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.start = time.perf_counter()
        self.data: Dict[str, Any] = {
            "lat_ns": [], "probe_ns": [], "sim_ms": [], "requests": [],
            "bytes": [], "digests": [], "errors": [],
            "setup_probes": probes(),
        }

    def setup_done(self) -> None:
        """Set-up ends here: freeze what it allocated out of the
        collector's sight, so timed ops do not pay for scanning it."""
        gc.collect()
        gc.freeze()
        self.data["setup_s"] = time.perf_counter() - self.start
        self.data["setup_probes"] += probes()

    def timed(
        self, op: Dict[str, Any], run: Callable[[], Tuple[Any, List[Any]]]
    ) -> None:
        """Time ``run()``; the probe runs before the clock starts and
        the digest is computed after it stops."""
        data, recorder = self.data, self.recorder
        index = len(data["lat_ns"])
        data["probe_ns"].append(probe_ns())
        if recorder is not None:
            recorder.begin_op(index)
        start = time.perf_counter_ns()
        try:
            value, stats = run()
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            value, stats, error = None, [], f"{type(exc).__name__}: {exc}"
        end = time.perf_counter_ns()
        if recorder is not None:
            recorder.end_op(index, start, end)
            recorder.capture(op, value, stats)
        sim, requests, nbytes = op_counts(stats)
        data["lat_ns"].append(end - start)
        data["sim_ms"].append(sim)
        data["requests"].append(requests)
        data["bytes"].append(nbytes)
        if error is not None:
            data["errors"].append([index, error])
            data["digests"].append(None)
        else:
            data["digests"].append(
                None if op["kind"] == "update" else digest_value(op, value)
            )

    def finish(self) -> Dict[str, Any]:
        self.data["probe_ns"].append(probe_ns())  # brackets the last op
        return self.data


def _attach(session: GraphSession, recorder) -> None:
    if recorder is not None:
        session.tracer = recorder.tracer
        recorder.session_ready(session)


def _run_reads(job: Job, recorder) -> Dict[str, Any]:
    records = _Records(recorder)
    warm = job["workload"] == "mixed_warm"
    algorithm = job.get("algorithm", "auto")
    session = open_graph(
        job["index_path"],
        cache_entries=WARM_CACHE_ENTRIES if warm else 0,
        checkpoint_entries=WARM_CHECKPOINT_ENTRIES if warm else 0,
    )
    try:
        timed = []
        warmup = [0.0, 0.0, 0.0]  # sim-ms, store requests, bytes
        for op in job["ops"]:
            if op.get("warmup"):
                _value, stats = execute_op(session, op)
                for i, amount in enumerate(op_counts(stats)):
                    warmup[i] += amount
            else:
                timed.append(op)
        records.data["warmup_counts"] = warmup
        records.setup_done()
        _attach(session, recorder)
        for op in timed:
            records.timed(op, lambda: execute_op(session, op, algorithm))
        if recorder is not None:
            recorder.session_done(session)
    finally:
        session.close()
        gc.unfreeze()
    return records.finish()


def _run_ingest(job: Job, recorder) -> Dict[str, Any]:
    """Build on the first half (this workload's set-up), then update
    batches (timed ops with no result) beside reads on the live warm
    session, then save -> load -> one more verified read."""
    records = _Records(recorder)
    with open(job["events_path"], "rb") as f:
        events = pickle.load(f)
    # Delta cache only.  With checkpoints on, whether a snapshot happens
    # to be warm decides what ``auto`` picks for every later k-hop, and
    # the reads settle into one of two regimes four times apart.
    config = datasets.tgi_config(
        datasets.SCALES[job["scale"]], WARM_CACHE_ENTRIES, 0
    )
    session: Optional[GraphSession] = None
    tgi: Optional[TGI] = None
    try:
        for op in job["ops"]:
            kind = op["kind"]
            if kind == "build":
                tgi, _build_s, _calibration = datasets.build_index(
                    events[op["lo"]:op["hi"]], config
                )
                session = GraphSession(tgi)
                records.setup_done()
                _attach(session, recorder)
            elif kind == "update":
                batch = events[op["lo"]:op["hi"]]
                records.timed(op, lambda: (tgi.update(batch), []))
            elif kind == "reload":
                if recorder is not None:
                    recorder.session_done(session)
                records.data["stored_bytes"] = tgi.cluster.stored_bytes
                path = Path(job["events_path"]).with_suffix(".reload.hgs")
                datasets.save_variant(tgi, path)
                session = GraphSession(repro.storage.load_index(path))
            else:
                records.timed(op, lambda: execute_op(session, op))
    finally:
        gc.unfreeze()
    return records.finish()


def run_pass(job: Job, recorder=None) -> Dict[str, Any]:
    """Execute one pass of ``job`` in this process."""
    if job["workload"] == "ingest_update":
        data = _run_ingest(job, recorder)
    else:
        data = _run_reads(job, recorder)
    data["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return data


def child_main(job_path: str, out_path: str, import_s: float) -> int:
    """Body of the ``pass`` subcommand (one untraced pass per process)."""
    with open(job_path, "rb") as f:
        job = pickle.load(f)
    data = run_pass(job)
    data["import_s"] = import_s
    with open(out_path, "wb") as f:
        pickle.dump(data, f, protocol=pickle.HIGHEST_PROTOCOL)
    return 0
