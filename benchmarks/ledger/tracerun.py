"""The traced run: one set-up and a few in-process passes that yield the
per-layer metrics and a Chrome/Perfetto trace file.

End-to-end numbers are never taken from here.  Passes, each on a fresh
session over the same saved index:

1. untraced — the base every overhead is a ratio to;
2. under the program's own ``Tracer(SamplingPolicy.all())`` — sim-clock
   round windows, sim drift, and the tracer's overhead;
3. under the ledger's span recorder — everything else;
4. ``khop_cold`` only: ``algorithm`` forced to ``khop`` and to
   ``snapshot-first``, for ``auto``'s regret.
"""

from __future__ import annotations

from typing import Any, Dict, List

from benchmarks.ledger import OUT_DIR, layers, runner, speed
from benchmarks.ledger.passes import run_pass
from benchmarks.ledger.service import run_service_pass
from benchmarks.ledger.tracing import SpanRecorder, write_chrome_trace

FORCED_ARMS = ("khop", "snapshot-first")


def _total_ms(records: Dict[str, Any]) -> float:
    return sum(speed.normalise(records["lat_ns"], records["probe_ns"])) / 1e6


def _regret(auto: Dict[str, Any], arms: List[Dict[str, Any]]) -> Dict[str, float]:
    """Sum over ops of what ``auto`` cost, over the sum of what the
    better forced algorithm cost on the same op (>= 1 means regret)."""
    auto_wall = speed.normalise(auto["lat_ns"], auto["probe_ns"])
    arm_wall = [speed.normalise(a["lat_ns"], a["probe_ns"]) for a in arms]
    n = len(auto_wall)
    best_wall = sum(min(w[i] for w in arm_wall) for i in range(n))
    best_sim = sum(min(a["sim_ms"][i] for a in arms) for i in range(n))
    return {
        "session.auto_regret_wall_x": sum(auto_wall) / best_wall,
        "session.auto_regret_sim_x": sum(auto["sim_ms"]) / best_sim,
    }


def trace_run(workload: str, seed: int, scale_name: str = "d1") -> Dict[str, Any]:
    """Per-layer metrics of ``workload`` (every name in ``spec.PER_LAYER``,
    0 where the layer is not exercised) plus the trace file's path."""
    # generating the dataset and the oracle is the benchmark's work and
    # stays unwrapped; only the program's build + save is recorded
    prepared = runner.prepare(workload, seed, scale_name, setup_repeats=0)
    recorder = SpanRecorder()
    try:
        if workload != "ingest_update":  # that one builds inside its pass
            uninstall = recorder.install()
            try:
                runner.build_and_save(prepared, 1)
            finally:
                uninstall()
        arms: List[Dict[str, Any]] = []
        if workload == "service_closed":
            passes = [run_service_pass(str(prepared.index_path), prepared.ops)]
            metrics = layers.empty()
            metrics.update(layers.service_metrics(passes))
            trace_path = None
        else:
            passes, arms, metrics, trace_path = _traced_passes(
                prepared, recorder
            )
        metrics.update(prepared.layer)
        if prepared.index_path is not None:
            metrics["storage.file_bytes_per_stored_byte"] = (
                prepared.index_path.stat().st_size / prepared.stored_bytes
            )
        check = runner.verify(prepared, passes)
        counts = runner.count_metrics(prepared, passes)
        if arms:  # forced algorithms fetch differently: counts may differ
            forced = runner.verify(prepared, arms, same_counts=False)
            check = {
                "attempted": check["attempted"] + forced["attempted"],
                "failed": check["failed"] + forced["failed"],
                "problems": check["problems"] + forced["problems"],
            }
    finally:
        prepared.cleanup()
    return {
        "workload": workload, "seed": seed, "metrics": metrics,
        # end-to-end numbers never come from here; the counts are kept
        # so that two runs of one seed can be checked against each other
        "counts": counts,
        "trace_file": str(trace_path) if trace_path else None, **check,
    }


def _traced_passes(prepared: runner.Prepared, recorder: SpanRecorder):
    job = prepared.job()
    workload = prepared.workload
    n_ops = len(prepared.timed_ops)
    untraced = run_pass(job)
    program = SpanRecorder(program_tracer=True)
    under_tracer = run_pass(job, program)
    uninstall = recorder.install()
    try:
        under_ledger = run_pass(job, recorder)
    finally:
        uninstall()
    passes = [untraced, under_tracer, under_ledger]

    updates = [op for op in prepared.ops if op["kind"] == "update"]
    metrics = layers.from_recorder(
        recorder, workload, n_ops, len(prepared.dataset.events),
        n_updates=len(updates),
        update_events=sum(op["hi"] - op["lo"] for op in updates),
    )
    metrics.update(layers.program_trace_metrics(program, n_ops))
    metrics.update(layers.api_metrics(recorder))
    base_ms = _total_ms(untraced)
    metrics["obs.tracer_all_overhead_x"] = _total_ms(under_tracer) / base_ms
    metrics["obs.ledger_trace_overhead_x"] = _total_ms(under_ledger) / base_ms
    arms: List[Dict[str, Any]] = []
    if workload == "khop_cold":
        arms = [run_pass({**job, "algorithm": arm}) for arm in FORCED_ARMS]
        metrics.update(_regret(untraced, arms))
    trace_path = OUT_DIR / f"trace-{workload}-seed{prepared.seed}.json"
    write_chrome_trace(recorder, trace_path)
    return passes, arms, metrics, trace_path
