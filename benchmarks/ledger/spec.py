"""Names, units, directions and bounds of every metric the ledger
reports.  ``BENCHMARK.json`` at the repository root lists the same
metrics (the smoke test checks that the two agree); ``compare`` reads
the bounds from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"  # or "higher"
    #: Share of the baseline median by which the metric may get worse
    #: before ``compare`` calls it a regression (end-to-end only).
    bound: Optional[float] = None


#: Reported for every workload by an untraced run.  The benchmark
#: contract judges a metric's spread over ten *different* seeds against
#: its bound, with one bound for all workloads, so each bound is about
#: three times the spread on the workload where the metric is least
#: steady (see ``baseline/spread.md``); ``compare`` pairs runs by seed
#: and resolves much smaller changes than these.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_ms_p50", "ms", "lower", 0.25),
    Metric("wall_ms_tail10", "ms", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("sim_ms_per_op", "sim-ms", "lower", 0.25),
    Metric("store_requests_per_op", "count", "lower", 0.25),
    Metric("store_kib_per_op", "KiB", "lower", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.15),
    Metric("stored_bytes_per_user_byte", "ratio", "lower", 0.05),
]

#: On one seed these repeat to the last digit on every in-process
#: workload, so ``compare`` holds them to equality when seeds match.
EXACT_ON_SAME_SEED = (
    "sim_ms_per_op", "store_requests_per_op", "store_kib_per_op",
    "stored_bytes_per_user_byte",
)


#: Reported for every workload by the traced run (0 where a layer is
#: not exercised).  The prefix before the first dot-separated metric
#: word is the ``repro`` sub-package the number belongs to.
PER_LAYER: List[Metric] = [
    Metric("session.self_ms_per_op", "ms"),
    Metric("session.auto_regret_wall_x", "x"),
    Metric("session.auto_regret_sim_x", "x"),
    Metric("session.auto_khop_frac", "fraction", "higher"),
    Metric("session.predicted_over_actual_p50", "x"),
    Metric("index.tgi.plan_ms_per_op", "ms"),
    Metric("index.tgi.planned_keys_per_fetched_key", "ratio"),
    Metric("index.tgi.retrieve_self_ms_per_op", "ms"),
    Metric("index.tgi.replay_ms_per_op", "ms"),
    Metric("index.tgi.sim_apply_ms_per_op", "sim-ms"),
    Metric("index.tgi.build_s", "s"),
    Metric("index.tgi.update_ms_per_kevent", "ms"),
    Metric("index.tgi.ingest_events_per_s", "1/s", "higher"),
    Metric("exec.execute_self_ms_per_op", "ms"),
    Metric("exec.coalesce_hits_per_op", "count", "higher"),
    Metric("exec.coalesce_merged_rounds_per_op", "count", "higher"),
    Metric("exec.coalesce_dedup_frac", "fraction", "higher"),
    Metric("exec.cache_hit_rate", "fraction", "higher"),
    Metric("exec.cache_evictions_per_op", "count"),
    Metric("exec.checkpoint_hit_rate", "fraction", "higher"),
    Metric("exec.checkpoint_near_hits_per_op", "count", "higher"),
    Metric("exec.checkpoint_evictions_per_op", "count"),
    Metric("exec.cache_invalidations_per_update", "count"),
    Metric("kvstore.multiget_self_ms_per_op", "ms"),
    Metric("kvstore.multiget_calls_per_op", "count"),
    Metric("kvstore.rounds_per_op", "count"),
    Metric("kvstore.keys_per_round", "count", "higher"),
    Metric("kvstore.decode_ms_per_op", "ms"),
    Metric("kvstore.decode_ms_per_kib", "ms"),
    Metric("kvstore.plan_records_ms_per_op", "ms"),
    Metric("kvstore.sim_round_ms_per_op", "sim-ms"),
    Metric("kvstore.retries_per_op", "count"),
    Metric("kvstore.encode_ms_per_kevent", "ms"),
    Metric("deltas.to_graph_ms_per_op", "ms"),
    Metric("deltas.to_graph_items_per_op", "count"),
    Metric("deltas.decoded_events_per_op", "count"),
    Metric("deltas.pack_ms_per_kevent", "ms"),
    Metric("graph.apply_ms_per_op", "ms"),
    Metric("graph.subgraph_ms_per_op", "ms"),
    Metric("graph.copy_ms_per_op", "ms"),
    Metric("graph.result_nodes_per_op", "count"),
    Metric("graph.result_edges_per_op", "count"),
    Metric("taf.fetch_ms_per_op", "ms"),
    Metric("taf.compute_ms_per_op", "ms"),
    Metric("taf.sim_fetch_ms_per_op", "sim-ms"),
    Metric("taf.nodes_per_fetch", "count"),
    Metric("spark.collect_ms_per_op", "ms"),
    Metric("spark.sim_makespan_ms_per_op", "sim-ms"),
    Metric("service.queue_ms_p50", "ms"),
    Metric("service.exec_ms_p50", "ms"),
    Metric("service.http_ms_p50", "ms"),
    Metric("service.batch_size_mean", "count", "higher"),
    Metric("service.refused_frac", "fraction"),
    Metric("service.startup_s", "s"),
    Metric("api.parse_ms_per_op", "ms"),
    Metric("api.encode_ms_per_op", "ms"),
    Metric("api.response_bytes_per_op", "count"),
    Metric("storage.save_s", "s"),
    Metric("storage.load_s", "s"),
    Metric("storage.file_bytes_per_stored_byte", "ratio"),
    Metric("stats.calibrate_s", "s"),
    Metric("stats.calib_replay_us_per_item", "us"),
    Metric("stats.calib_decode_us_per_kib", "us"),
    Metric("partitioning.partition_s", "s"),
    Metric("obs.tracer_all_overhead_x", "x"),
    Metric("obs.ledger_trace_overhead_x", "x"),
    Metric("obs.sim_drift_pct", "%"),
    Metric("trace.unattributed_frac", "fraction"),
    Metric("trace.zero_call_layers", "count"),
]

#: Layers whose wrapped entry points must record calls on a workload
#: (``trace.zero_call_layers`` counts the ones that did not).
EXPECTED_LAYERS: Dict[str, List[str]] = {
    "snapshot_cold": [
        "session", "index.tgi", "exec", "kvstore", "deltas", "graph", "storage",
    ],
    "khop_cold": [
        "session", "index.tgi", "exec", "kvstore", "deltas", "graph", "storage",
    ],
    "khop_batch": ["session", "index.tgi", "exec", "kvstore", "graph"],
    "mixed_warm": ["session", "index.tgi", "exec", "kvstore", "graph"],
    "taf_history": ["taf", "spark", "index.tgi", "exec", "kvstore"],
    "ingest_update": [
        "session", "index.tgi", "exec", "kvstore", "deltas", "partitioning",
        "stats", "storage",
    ],
    "service_closed": [],  # measured from outside the server process
}

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def metric_block(names_values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """``{name: {"value": v, "unit": u}}`` in the contract's shape."""
    return {
        name: {"value": value, "unit": BY_NAME[name].unit}
        for name, value in names_values.items()
    }
