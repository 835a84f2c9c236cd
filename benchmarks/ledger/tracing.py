"""The ledger's own span recorder.

Spans are recorded from here, around the calls into each layer: every
public callable in :data:`TARGETS` is rebound, on its class or module
(and on every ``repro`` module that imported the name), to a wrapper
that notes name, layer, start, end, parent span and the op it ran for.
Spans stay in memory until the pass ends; :func:`write_chrome_trace`
writes them as Chrome trace-event JSON, which Perfetto opens.

Traced passes are single-threaded (``D1`` is built with one apply
lane), so one span stack is enough.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.api.wire
import repro.deltas.columnar
import repro.kvstore.codec
import repro.partitioning.temporal
import repro.stats.calibrate
import repro.stats.collect
import repro.storage
from repro import (
    Cluster, Delta, Graph, GraphSession, QueryResult, QueryStats, TGI,
)
from repro.api import request_from_spec, result_payload
from repro.exec import PlanExecutor
from repro.index.tgi import TGIPlanner
from repro.index.tgi import planner as planner_module
from repro.index.tgi.query import PartialState
from repro.obs import SamplingPolicy, Tracer
from repro.spark.rdd import RDD
from repro.taf.handler import TGIHandler
from repro.taf.son import SON, SOTS, TGraph

from benchmarks.ledger.workloads import service_spec

Counter = Callable[[Dict[str, float], tuple, dict, Any], None]

#: How many captured results the ``api`` layer is timed on.
API_SAMPLE = 40


def _count_multiget(counts, args, kwargs, result) -> None:
    counts["multiget_keys"] += len(args[1] if len(args) > 1 else kwargs["keys"])


def _count_decode(counts, args, kwargs, result) -> None:
    counts["decode_bytes"] += len(args[0])


def _count_to_graph(counts, args, kwargs, result) -> None:
    counts["to_graph_items"] += len(args[0])


def _count_plan(counts, args, kwargs, result) -> None:
    counts["planned_keys"] += result.num_keys


def _count_collect(counts, args, kwargs, result) -> None:
    counts["spark_makespan_s"] += args[0].context.last_job_stats.makespan_seconds


def _count_taf_fetch(counts, args, kwargs, result) -> None:
    counts["taf_fetches"] += 1
    counts["taf_nodes"] += len(args[1])


def _count_pack(counts, args, kwargs, result) -> None:
    counts["packed_events"] += len(args[2])


#: (layer, owner, attribute, counter) — the wrapped entry points.
TARGETS: List[Tuple[str, Any, str, Optional[Counter]]] = [
    ("session", GraphSession, "execute", None),
    ("session", GraphSession, "execute_batch", None),
    ("index.tgi", TGIPlanner, "plan_snapshot", _count_plan),
    ("index.tgi", TGIPlanner, "plan_node_history", _count_plan),
    ("index.tgi", TGIPlanner, "plan_node_histories", _count_plan),
    ("index.tgi", TGIPlanner, "plan_khop", _count_plan),
    ("index.tgi", TGIPlanner, "plan_khops", _count_plan),
    ("index.tgi", planner_module, "price_plan", None),
    ("index.tgi", TGI, "get_snapshot", None),
    ("index.tgi", TGI, "get_node_state", None),
    ("index.tgi", TGI, "get_node_history", None),
    ("index.tgi", TGI, "get_node_histories", None),
    ("index.tgi", TGI, "get_khop", None),
    ("index.tgi", TGI, "get_khops", None),
    ("index.tgi", TGI, "get_khop_snapshot_first", None),
    ("index.tgi", TGI, "build", None),
    ("index.tgi", TGI, "update", None),
    ("index.tgi", PartialState, "load_delta", None),
    ("index.tgi", PartialState, "apply_eventlists", None),
    ("index.tgi", PartialState, "to_graph", None),
    ("exec", PlanExecutor, "execute", None),
    ("exec", PlanExecutor, "execute_many", None),
    ("exec", PlanExecutor, "fetch", None),
    ("kvstore", Cluster, "multiget", _count_multiget),
    ("kvstore", Cluster, "plan_records", None),
    ("kvstore", Cluster, "put_many", None),
    ("kvstore", Cluster, "put", None),
    ("kvstore", repro.kvstore.codec, "decode", _count_decode),
    ("kvstore", repro.kvstore.codec, "encode", None),
    ("deltas", Delta, "to_graph", _count_to_graph),
    ("deltas", Delta, "from_graph", None),
    ("deltas", repro.deltas.columnar, "pack_eventlist", _count_pack),
    ("graph", Graph, "apply_columnar", None),
    ("graph", Graph, "apply_events", None),
    ("graph", Graph, "copy", None),
    ("graph", Graph, "khop_subgraph", None),
    ("graph", Graph, "subgraph", None),
    ("taf", TGIHandler, "fetch_node_histories", _count_taf_fetch),
    ("taf", TGIHandler, "fetch_subgraphs", _count_taf_fetch),
    ("taf", SON, "fetch", None),
    ("taf", SOTS, "fetch", None),
    ("taf", SON, "NodeComputeTemporal", None),
    ("taf", SOTS, "NodeComputeTemporal", None),
    ("taf", TGraph, "Evolution", None),
    ("spark", RDD, "collect", _count_collect),
    ("storage", repro.storage, "save_index", None),
    ("storage", repro.storage, "load_index", None),
    ("stats", repro.stats.calibrate, "calibrate_apply_costs", None),
    ("stats", repro.stats.collect, "collect_timespan_stats", None),
    ("partitioning", repro.partitioning.temporal, "partition_timespan", None),
    ("partitioning", repro.partitioning.temporal, "collapse", None),
    ("api", repro.api.wire, "request_from_spec", None),
    ("api", repro.api.wire, "result_payload", None),
    ("api", QueryStats, "as_dict", None),
]


def span_name(owner: Any, attribute: str) -> str:
    prefix = owner.__name__.rsplit(".", 1)[-1]
    return f"{prefix}.{attribute}"


class Span:
    """One recorded call."""

    __slots__ = ("name", "layer", "start_ns", "end_ns", "parent", "op")

    def __init__(self, name, layer, start_ns, end_ns, parent, op) -> None:
        self.name = name
        self.layer = layer
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.parent = parent
        self.op = op

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Spans, op windows and counts of one traced pass.

    ``tracer`` is the program's own tracer, attached to the session by
    the pass when set (sim-clock windows of store rounds come from it).
    """

    def __init__(self, program_tracer: bool = False) -> None:
        self.spans: List[Optional[Span]] = []
        self.ops: List[Tuple[int, int, int]] = []  # (index, start, end)
        self.counts: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)  # per layer
        self.stats: List[Any] = []  # QueryStats / TAF fetch stats, per op
        #: wire-layer timings on the first few results: [n, parse_ns,
        #: encode_ns, response bytes]
        self.api = [0, 0, 0, 0]
        self.result_nodes = 0
        self.result_edges = 0
        self.cache_before: Dict[str, Any] = {}
        self.cache_after: Dict[str, Any] = {}
        self.tracer = (
            Tracer(SamplingPolicy.all(), keep=1_000_000)
            if program_tracer else None
        )
        self._stack: List[int] = []
        self._op = -1

    # -- hooks the pass calls -------------------------------------------
    def begin_op(self, index: int) -> None:
        self._op = index

    def end_op(self, index: int, start_ns: int, end_ns: int) -> None:
        self.ops.append((index, start_ns, end_ns))
        self._op = -1

    def capture(self, op: dict, value: Any, stats: Sequence[Any]) -> None:
        """Note what the op returned.  Results themselves are not kept:
        a few dozen snapshots held in memory make every later collection
        slower, and with it the pass they are meant to observe."""
        self.stats.append(list(stats))
        for graph in value if isinstance(value, list) else [value]:
            if isinstance(graph, Graph):
                self.result_nodes += graph.num_nodes
                self.result_edges += graph.num_edges
        if (
            self.api[0] < API_SAMPLE and value is not None
            and op["kind"] in ("snapshot", "khop")
        ):
            self._time_wire(op, value, stats[0])

    def _time_wire(self, op: dict, value: Any, stats: Any) -> None:
        """The ``api`` layer on a real result: spec -> request, then
        result -> payload + stats -> JSON bytes (what the service does
        per request, here without the service)."""
        spec = service_spec(op)
        start = time.perf_counter_ns()
        request = request_from_spec(spec)
        parsed = time.perf_counter_ns()
        payload = dict(result_payload(request, QueryResult(request, value, stats)))
        payload.update(stats.as_dict())
        body = json.dumps(payload)
        end = time.perf_counter_ns()
        self.api[0] += 1
        self.api[1] += parsed - start
        self.api[2] += end - parsed
        self.api[3] += len(body)

    def session_ready(self, session: GraphSession) -> None:
        self.cache_before = _cache_stats(session)

    def session_done(self, session: GraphSession) -> None:
        self.cache_after = _cache_stats(session)

    # -- wrapping ---------------------------------------------------------
    def wrap(
        self, fn: Callable, name: str, layer: str, counter: Optional[Counter]
    ) -> Callable:
        spans, stack, counts, calls = (
            self.spans, self._stack, self.counts, self.calls
        )
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, layer, start, end, parent, self._op)
                calls[layer] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> Callable[[], None]:
        """Rebind every target; returns the function that undoes it."""
        undo: List[Tuple[Any, str, Any]] = []
        for layer, owner, attribute, counter in TARGETS:
            raw = inspect.getattr_static(owner, attribute)
            name = span_name(owner, attribute)
            if isinstance(raw, staticmethod):
                new: Any = staticmethod(
                    self.wrap(raw.__func__, name, layer, counter)
                )
            else:
                new = self.wrap(raw, name, layer, counter)
            holders = [owner]
            if inspect.ismodule(owner):
                # ``from x import f`` copies the binding: follow it
                holders += [
                    module for mod_name, module in list(sys.modules.items())
                    if mod_name.startswith("repro") and module is not owner
                    and getattr(module, attribute, None) is raw
                ]
            for holder in holders:
                undo.append((holder, attribute, raw))
                setattr(holder, attribute, new)

        def uninstall() -> None:
            for holder, attribute, raw in reversed(undo):
                setattr(holder, attribute, raw)

        return uninstall

    # -- reading ----------------------------------------------------------
    def finished(self) -> List[Span]:
        return [span for span in self.spans if span is not None]


def _cache_stats(session: GraphSession) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    if session.cache is not None:
        out["delta"] = session.cache.stats()
    if session.checkpoint_cache is not None:
        out["checkpoint"] = session.checkpoint_cache.stats()
    return out


def write_chrome_trace(
    recorder: SpanRecorder, path: Path, max_ops: int = 25
) -> int:
    """Write set-up spans and the spans of the first ``max_ops`` ops as
    Chrome trace events (``ph: X``, microseconds); returns the count."""
    events = []
    spans = recorder.finished()
    origin = min(
        [s.start_ns for s in spans] + [start for _i, start, _e in recorder.ops],
        default=0,
    )
    for index, start, end in recorder.ops:
        if index < max_ops:
            events.append({
                "name": f"op {index}", "cat": "op", "ph": "X", "pid": 1,
                "tid": 1, "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
            })
    for span in spans:
        if span.op >= max_ops:
            continue
        events.append({
            "name": span.name, "cat": span.layer, "ph": "X", "pid": 1,
            "tid": 1, "ts": (span.start_ns - origin) / 1e3,
            "dur": span.ns / 1e3, "args": {"op": span.op},
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    # dumps, not dump: the C encoder is several times faster in one piece
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
        encoding="utf-8",
    )
    return len(events)
