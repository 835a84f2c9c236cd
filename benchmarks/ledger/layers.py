"""Per-layer metrics from one traced pass.

Times come from the ledger's spans (self time = a span minus its direct
children; a group's time counts nested members once), counts from the
program's public stats (``QueryStats``, cache ``stats()``, what the
wrappers saw go by).  Layers are the ``repro`` sub-packages.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Sequence

from benchmarks.ledger.spec import EXPECTED_LAYERS, PER_LAYER
from benchmarks.ledger.tracing import Span, SpanRecorder

PLAN = (
    "TGIPlanner.plan_snapshot", "TGIPlanner.plan_node_history",
    "TGIPlanner.plan_node_histories", "TGIPlanner.plan_khop",
    "TGIPlanner.plan_khops", "planner.price_plan",
)
RETRIEVE = (
    "TGI.get_snapshot", "TGI.get_node_state", "TGI.get_node_history",
    "TGI.get_node_histories", "TGI.get_khop", "TGI.get_khops",
    "TGI.get_khop_snapshot_first",
)
REPLAY = (
    "PartialState.load_delta", "PartialState.apply_eventlists",
    "PartialState.to_graph",
)
EXECUTE = (
    "PlanExecutor.execute", "PlanExecutor.execute_many", "PlanExecutor.fetch",
)
TAF_FETCH = (
    "TGIHandler.fetch_node_histories", "TGIHandler.fetch_subgraphs",
    "SON.fetch", "SOTS.fetch",
)
TAF_COMPUTE = (
    "SON.NodeComputeTemporal", "SOTS.NodeComputeTemporal", "TGraph.Evolution",
)

def empty() -> Dict[str, float]:
    return {metric.name: 0.0 for metric in PER_LAYER}


class SpanTable:
    """Aggregations over the finished spans of one recorder."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.spans: List[Span] = recorder.spans  # parents index into this
        self.child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span.parent >= 0:
                self.child_ns[span.parent] += span.ns

    def _select(self, names: Iterable[str], ops_only: bool):
        wanted = set(names)
        for index, span in enumerate(self.spans):
            if span is None or span.name not in wanted:
                continue
            if ops_only and span.op < 0:
                continue
            yield index, span, wanted

    def group_ms(self, names: Iterable[str], ops_only: bool = True) -> float:
        """Time under any of ``names``, nested members counted once."""
        total = 0
        for _index, span, wanted in self._select(names, ops_only):
            parent = span.parent
            while parent >= 0 and self.spans[parent].name not in wanted:
                parent = self.spans[parent].parent
            if parent < 0:
                total += span.ns
        return total / 1e6

    def self_ms(self, names: Iterable[str], ops_only: bool = True) -> float:
        return sum(
            span.ns - self.child_ns[index]
            for index, span, _w in self._select(names, ops_only)
        ) / 1e6

    def calls(self, names: Iterable[str], ops_only: bool = True) -> int:
        return sum(1 for _ in self._select(names, ops_only))

    def unattributed_frac(self, ops: Sequence[tuple]) -> float:
        """Share of op wall time under no wrapped span."""
        covered: Dict[int, int] = {}
        for span in self.spans:
            if span is not None and span.op >= 0 and (
                span.parent < 0 or self.spans[span.parent].op != span.op
            ):
                covered[span.op] = covered.get(span.op, 0) + span.ns
        wall = sum(end - start for _i, start, end in ops)
        return 1.0 - sum(covered.values()) / wall if wall else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _flat_stats(recorder: SpanRecorder) -> List[Any]:
    return [s for per_op in recorder.stats for s in per_op]


def from_recorder(
    recorder: SpanRecorder, workload: str, n_ops: int, n_events: int,
    n_updates: int = 0, update_events: int = 0,
) -> Dict[str, float]:
    """Everything the ledger-traced pass alone determines."""
    out = empty()
    table = SpanTable(recorder)
    counts = recorder.counts
    stats = _flat_stats(recorder)
    query = [s for s in stats if hasattr(s, "algorithm")]  # QueryStats
    taf = [s for s in stats if hasattr(s, "partition_sim_ms")]

    def total(attr: str, source=stats) -> float:
        return float(sum(getattr(s, attr, 0) or 0 for s in source))

    per_op = 1.0 / n_ops if n_ops else 0.0
    kevents = n_events / 1000.0

    # session
    out["session.self_ms_per_op"] = per_op * table.self_ms(
        ("GraphSession.execute", "GraphSession.execute_batch")
    )
    khops = [
        s for s in query
        if s.algorithm in ("khop", "snapshot-first", "khop-per-center")
    ]
    out["session.auto_khop_frac"] = _ratio(
        sum(1 for s in khops if s.algorithm == "khop"), len(khops)
    )
    ratios = [
        s.predicted_ms / s.sim_time_ms for s in query
        if s.predicted_ms is not None and s.sim_time_ms > 0
    ]
    out["session.predicted_over_actual_p50"] = (
        statistics.median(ratios) if ratios else 0.0
    )

    # index.tgi
    out["index.tgi.plan_ms_per_op"] = per_op * table.group_ms(PLAN)
    out["index.tgi.planned_keys_per_fetched_key"] = _ratio(
        counts["planned_keys"], counts["multiget_keys"]
    )
    out["index.tgi.retrieve_self_ms_per_op"] = per_op * table.self_ms(RETRIEVE)
    out["index.tgi.replay_ms_per_op"] = per_op * table.group_ms(REPLAY)
    out["index.tgi.sim_apply_ms_per_op"] = per_op * total("apply_ms")
    build_ms = table.group_ms(("TGI.build",), ops_only=False)
    update_ms = table.group_ms(("TGI.update",), ops_only=False)
    out["index.tgi.build_s"] = build_ms / 1e3
    out["index.tgi.update_ms_per_kevent"] = _ratio(
        update_ms, update_events / 1000.0
    )
    if workload == "ingest_update":
        out["index.tgi.ingest_events_per_s"] = _ratio(
            n_events, (build_ms + update_ms) / 1e3
        )

    # exec
    out["exec.execute_self_ms_per_op"] = per_op * table.self_ms(EXECUTE)
    hits = total("coalesced_hits")
    out["exec.coalesce_hits_per_op"] = per_op * hits
    out["exec.coalesce_merged_rounds_per_op"] = per_op * total("merged_rounds")
    out["exec.coalesce_dedup_frac"] = _ratio(hits, hits + total("requests"))
    cache_hits = total("cache_hits")
    out["exec.cache_hit_rate"] = _ratio(
        cache_hits, cache_hits + total("cache_misses")
    )
    ckpt_hits, ckpt_near = total("checkpoint_hits"), total("checkpoint_near_hits")
    out["exec.checkpoint_hit_rate"] = _ratio(
        ckpt_hits, ckpt_hits + ckpt_near + total("checkpoint_misses")
    )
    out["exec.checkpoint_near_hits_per_op"] = per_op * ckpt_near
    before, after = recorder.cache_before, recorder.cache_after
    if "delta" in before and "delta" in after:
        out["exec.cache_evictions_per_op"] = per_op * (
            after["delta"].evictions - before["delta"].evictions
        )
        out["exec.cache_invalidations_per_update"] = _ratio(
            after["delta"].invalidations - before["delta"].invalidations,
            n_updates,
        )
    if "checkpoint" in before and "checkpoint" in after:
        out["exec.checkpoint_evictions_per_op"] = per_op * (
            after["checkpoint"].evictions - before["checkpoint"].evictions
        )

    # kvstore
    multiget = ("Cluster.multiget",)
    out["kvstore.multiget_self_ms_per_op"] = per_op * table.self_ms(multiget)
    out["kvstore.multiget_calls_per_op"] = per_op * table.calls(multiget)
    rounds = total("rounds")
    out["kvstore.rounds_per_op"] = per_op * rounds
    out["kvstore.keys_per_round"] = _ratio(
        counts["multiget_keys"], table.calls(multiget)
    )
    decode_ms = table.group_ms(("codec.decode",))
    out["kvstore.decode_ms_per_op"] = per_op * decode_ms
    out["kvstore.decode_ms_per_kib"] = _ratio(
        decode_ms, counts["decode_bytes"] / 1024.0
    )
    out["kvstore.plan_records_ms_per_op"] = per_op * table.group_ms(
        ("Cluster.plan_records",)
    )
    out["kvstore.retries_per_op"] = per_op * total("retries")
    out["kvstore.encode_ms_per_kevent"] = _ratio(
        table.group_ms(("codec.encode",), ops_only=False), kevents
    )

    # deltas
    out["deltas.to_graph_ms_per_op"] = per_op * table.group_ms(("Delta.to_graph",))
    out["deltas.to_graph_items_per_op"] = per_op * counts["to_graph_items"]
    out["deltas.decoded_events_per_op"] = per_op * total("decoded_events")
    out["deltas.pack_ms_per_kevent"] = _ratio(
        table.group_ms(("columnar.pack_eventlist",), ops_only=False), kevents
    )

    # graph
    out["graph.apply_ms_per_op"] = per_op * table.group_ms(
        ("Graph.apply_columnar", "Graph.apply_events")
    )
    out["graph.subgraph_ms_per_op"] = per_op * table.group_ms(
        ("Graph.khop_subgraph", "Graph.subgraph")
    )
    out["graph.copy_ms_per_op"] = per_op * table.group_ms(("Graph.copy",))
    out["graph.result_nodes_per_op"] = per_op * recorder.result_nodes
    out["graph.result_edges_per_op"] = per_op * recorder.result_edges

    # taf + spark
    out["taf.fetch_ms_per_op"] = per_op * table.group_ms(TAF_FETCH)
    out["taf.compute_ms_per_op"] = per_op * table.group_ms(TAF_COMPUTE)
    out["taf.sim_fetch_ms_per_op"] = per_op * total("sim_time_ms", taf)
    out["taf.nodes_per_fetch"] = _ratio(counts["taf_nodes"], counts["taf_fetches"])
    out["spark.collect_ms_per_op"] = per_op * table.group_ms(("RDD.collect",))
    out["spark.sim_makespan_ms_per_op"] = (
        per_op * counts["spark_makespan_s"] * 1e3
    )

    # storage, stats, partitioning (set-up spans)
    out["storage.save_s"] = table.group_ms(("storage.save_index",), ops_only=False) / 1e3
    out["storage.load_s"] = table.group_ms(("storage.load_index",), ops_only=False) / 1e3
    out["stats.calibrate_s"] = table.group_ms(
        ("calibrate.calibrate_apply_costs",), ops_only=False
    ) / 1e3
    out["partitioning.partition_s"] = table.group_ms(
        ("temporal.partition_timespan", "temporal.collapse"), ops_only=False
    ) / 1e3

    # how far the numbers above can be trusted
    out["trace.unattributed_frac"] = table.unattributed_frac(recorder.ops)
    out["trace.zero_call_layers"] = float(sum(
        1 for layer in EXPECTED_LAYERS[workload] if not recorder.calls[layer]
    ))
    return out


def api_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """The wire translation, as timed on results the pass produced."""
    n, parse_ns, encode_ns, nbytes = recorder.api
    if not n:
        return {}
    return {
        "api.parse_ms_per_op": parse_ns / n / 1e6,
        "api.encode_ms_per_op": encode_ns / n / 1e6,
        "api.response_bytes_per_op": nbytes / n,
    }


def program_trace_metrics(recorder: SpanRecorder, n_ops: int) -> Dict[str, float]:
    """From the pass that ran under the program's own ``Tracer``: the
    sim-clock windows of store rounds, and how far the root spans' sim
    windows drift from what ``QueryStats`` reported."""
    roots = list(recorder.tracer.finished) if recorder.tracer else []
    if not roots:
        return {}
    round_ms = sum(
        span.sim_ms for root in roots for span in root.find("round")
    )
    traced_sim = sum(root.sim_ms for root in roots)
    stats_sim = sum(
        max((s.sim_time_ms for s in per_op), default=0.0)
        for per_op in recorder.stats
        if per_op and hasattr(per_op[0], "algorithm")
    )
    return {
        "kvstore.sim_round_ms_per_op": round_ms / n_ops,
        "obs.sim_drift_pct": (
            abs(traced_sim - stats_sim) / stats_sim * 100.0 if stats_sim else 0.0
        ),
    }


def service_metrics(passes: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """The ``service`` layer, from response ``"service"`` blocks and
    ``/metrics`` (the server is another process: no wrappers)."""
    first = passes[0]
    n = len(first["lat_ns"])

    def p50(key: str) -> float:
        return statistics.median(first[key]) if first[key] else 0.0

    return {
        "service.queue_ms_p50": p50("queue_ms"),
        "service.exec_ms_p50": p50("exec_ms"),
        "service.http_ms_p50": p50("http_ms"),
        "service.batch_size_mean": first["batches"]["mean_size"] or 0.0,
        "service.refused_frac": first["refused"] / n if n else 0.0,
        "service.startup_s": statistics.median(p["startup_s"] for p in passes),
    }
