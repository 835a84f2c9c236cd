"""Service-side observability: counters and latency histograms.

Everything the ``GET /metrics`` endpoint reports lives in one
:class:`ServiceMetrics` object shared by the HTTP front end and the
micro-batching collector.  The design follows the paper's own
accounting discipline (Sec. 6 reports per-query fetch counts and
per-algorithm costs): the service never invents numbers — it folds the
:class:`~repro.api.QueryStats` each executed request already carries
into per-caller aggregates.  Because batched execution attributes
shared fetches *fairly* (a row fetched for ``n`` requests bills ``1/n``
to each), the per-caller ``store_requests`` / ``store_bytes`` sums here
add up exactly to the deduplicated totals the store saw — tenant
accounting stays honest under cross-caller coalescing.

Every counter lives in the served session's one
:class:`~repro.obs.metrics.SessionMetrics` registry.  The session
records each executed query into it once — per-kind totals and the
additive counter families — and the service adds only what it alone
sees: HTTP responses by status and caller, rejections, batches,
latencies and the per-caller billing.  So
the same state renders two ways: the JSON ``snapshot()`` the dashboard
reads, and the Prometheus text exposition (``render_prometheus()``) a
scraper reads, each over the whole registry.  Bucket boundaries come
from :data:`~repro.obs.metrics.DEFAULT_LATENCY_BOUNDS_MS`, so both
views agree about bucketing by construction.

The service mutates its families under one lock (the session records
under the registry's own); the snapshot is a plain dict so the
endpoint can ``json.dumps`` it without touching live state.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS_MS,
    Counter,
    Histogram,
    SessionMetrics,
)

#: ``handle -> (family, help, label)``: the service's labeled counter
#: families, one series per label value.
LABELED_FAMILIES: Dict[str, Tuple[str, str, str]] = {
    "by_status": (
        "hgs_http_responses_total", "HTTP responses by status", "status"),
    "by_caller": (
        "hgs_http_requests_by_caller_total", "HTTP requests by caller",
        "caller"),
    "rejected": (
        "hgs_http_rejected_total", "Requests rejected before execution",
        "reason"),
    "dispatched": (
        "hgs_exec_dispatch_total",
        "Executed micro-batches by what closed the window", "trigger"),
    "store_requests": (
        "hgs_store_requests_total",
        "Store requests billed per caller (fair-share)", "caller"),
    "store_bytes": (
        "hgs_store_bytes_total",
        "Store bytes billed per caller (fair-share)", "caller"),
}


class LatencyHistogram(Histogram):
    """A fixed-bucket latency histogram with percentile estimates.

    A :class:`repro.obs.metrics.Histogram` (so it registers in a
    :class:`MetricsRegistry` and renders as Prometheus ``le`` buckets)
    plus the max tracking and bucket-bound percentile reads the JSON
    dashboard wants.  Percentile reads overestimate by at most one
    bucket width — good enough for a serving dashboard, and ``observe``
    stays O(buckets) with no sample retention.  Not thread-safe on its
    own; callers hold the metrics lock.
    """

    __slots__ = ("max_ms",)

    def __init__(
        self,
        name: str = "latency_ms",
        labels: Tuple[Tuple[str, str], ...] = (),
        bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_MS,
    ):
        super().__init__(name, labels, bounds=tuple(bounds))
        self.max_ms = 0.0

    def observe(self, ms: float) -> None:
        super().observe(ms)
        if ms > self.max_ms:
            self.max_ms = ms

    def percentile(self, q: float) -> Optional[float]:
        """The smallest bucket bound covering fraction ``q`` of samples
        (the max seen for the open-ended tail); ``None`` when empty."""
        if self.count == 0:
            return None
        target = q * self.count
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= target:
                return (
                    self.bounds[i] if i < len(self.bounds) else self.max_ms
                )
        return self.max_ms

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean_ms": (
                round(self.total / self.count, 3) if self.count else None
            ),
            "max_ms": round(self.max_ms, 3),
            "p50_ms": self.percentile(0.50),
            "p90_ms": self.percentile(0.90),
            "p99_ms": self.percentile(0.99),
            "buckets": {
                **{
                    f"le_{bound:g}": count
                    for bound, count in zip(self.bounds, self.counts)
                },
                "inf": self.counts[-1],
            },
        }


class ServiceMetrics:
    """Shared, lock-protected service counters over a session's registry.

    Built on the served session's :class:`SessionMetrics` (a fresh one
    when none is given), so the service's families and the session's
    per-query record are one registry with one Prometheus rendering.
    """

    def __init__(self, registry: Optional[SessionMetrics] = None) -> None:
        self._lock = threading.Lock()
        reg = registry if registry is not None else SessionMetrics()
        self.registry = reg
        self.requests_total = reg.counter(
            "hgs_http_requests_total", "HTTP requests admitted"
        )
        self.batches = reg.counter(
            "hgs_exec_batches_total", "Executed micro-batches"
        )
        self.batched_requests = reg.counter(
            "hgs_exec_batched_requests_total",
            "Requests executed through micro-batches",
        )
        self.max_batch_size = reg.gauge(
            "hgs_exec_batch_size_max", "Largest micro-batch executed"
        )
        # caller -> its (requests, bytes) billing counters
        self._bills: Dict[str, Tuple[Counter, Counter]] = {}
        #: wall time from HTTP admission to response write
        self.service_latency = self._latency(
            "hgs_service_latency_ms", "HTTP admission-to-response wall time"
        )
        #: wall time the thread pool spent inside ``execute_batch``
        self.exec_latency = self._latency(
            "hgs_exec_latency_ms", "execute_batch wall time"
        )
        #: time requests waited in the collector for a free worker
        #: (plus the linger, when one is configured)
        self.queue_latency = self._latency(
            "hgs_queue_latency_ms", "Wait in the collector for a free worker"
        )

    def _latency(self, name: str, help: str) -> LatencyHistogram:
        return self.registry.histogram(
            name, help, bounds=DEFAULT_LATENCY_BOUNDS_MS,
            factory=LatencyHistogram,
        )

    def _labeled(self, handle: str, value: Any) -> Counter:
        family, help, label = LABELED_FAMILIES[handle]
        return self.registry.counter(family, help, labels={label: value})

    def _read(
        self, handle: str, digits: Optional[int] = None
    ) -> Dict[str, Any]:
        """``handle``'s family by label value: ints, or rounded floats."""
        family, _help, label = LABELED_FAMILIES[handle]
        return {
            key: int(value) if digits is None else round(value, digits)
            for key, value in sorted(
                self.registry.by_label(family, label).items()
            )
        }

    # -- recording ------------------------------------------------------
    def record_response(
        self, caller: str, status: int, wall_ms: float
    ) -> None:
        with self._lock:
            self.requests_total.inc()
            self._labeled("by_status", status).inc()
            self._labeled("by_caller", caller).inc()
            self.service_latency.observe(wall_ms)

    def record_rejection(self, reason: str) -> None:
        with self._lock:
            self._labeled("rejected", reason).inc()

    def record_batch(
        self,
        size: int,
        exec_ms: float,
        queue_mss: Sequence[float],
        trigger: str,
    ) -> None:
        with self._lock:
            self.batches.inc()
            self._labeled("dispatched", trigger).inc()
            self.batched_requests.inc(size)
            if size > self.max_batch_size.value:
                self.max_batch_size.set(size)
            self.exec_latency.observe(exec_ms)
            for queue_ms in queue_mss:
                self.queue_latency.observe(queue_ms)

    def bill(self, caller: str, stats: Any) -> None:
        """Bill one executed request's fair store share to its caller
        (the session has already recorded the query itself)."""
        bill = self._bills.get(caller)
        if bill is None:
            bill = self._bills[caller] = (
                self._labeled("store_requests", caller),
                self._labeled("store_bytes", caller),
            )
        with self._lock:
            bill[0].inc(stats.requests)
            bill[1].inc(stats.bytes_read)

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of every counter, taken under the lock —
        the service's own and the session's per-query record."""
        reg = self.registry
        with self._lock:
            totals = reg.totals()
            q = {name: metric.value for name, metric in reg.per_query.items()}
            batches = int(self.batches.value)
            batched_requests = int(self.batched_requests.value)
            ckpt_lookups = (
                q["checkpoint_hits"] + q["checkpoint_misses"]
                + q["checkpoint_near_hits"]
            )
            return {
                "requests": {
                    "total": int(self.requests_total.value),
                    "by_status": self._read("by_status"),
                    "by_caller": self._read("by_caller"),
                    "by_kind": {
                        k: int(row["queries"]) for k, row in totals.items()
                    },
                    "rejected": self._read("rejected"),
                },
                "batches": {
                    "count": batches,
                    "requests": batched_requests,
                    "mean_size": (
                        round(batched_requests / batches, 2)
                        if batches else None
                    ),
                    "max_size": int(self.max_batch_size.value),
                    "by_trigger": self._read("dispatched"),
                },
                "coalesce": {
                    "hits": int(q["coalesced_hits"]),
                    "bytes_saved": round(q["coalesced_bytes_saved"], 2),
                    "merged_rounds": int(q["merged_rounds"]),
                },
                "store": {
                    "requests_by_caller": self._read("store_requests", 2),
                    "bytes_by_caller": self._read("store_bytes", 2),
                },
                "cache": {
                    "hits": int(q["cache_hits"]),
                    "misses": int(q["cache_misses"]),
                },
                "checkpoints": {
                    "hits": int(q["checkpoint_hits"]),
                    "misses": int(q["checkpoint_misses"]),
                    "near_hits": int(q["checkpoint_near_hits"]),
                    "hit_rate": (
                        round(
                            (q["checkpoint_hits"] + q["checkpoint_near_hits"])
                            / ckpt_lookups, 3,
                        )
                        if ckpt_lookups else None
                    ),
                },
                "resilience": {
                    "retries": int(q["retries"]),
                    "hedges": int(q["hedges"]),
                    "breaker_trips": int(q["breaker_trips"]),
                    "degraded_queries": int(q["degraded_partitions"]),
                    "degraded_keys": int(q["degraded_keys"]),
                },
                "latency": {
                    "service_ms": self.service_latency.as_dict(),
                    "exec_ms": self.exec_latency.as_dict(),
                    "queue_ms": self.queue_latency.as_dict(),
                },
                "session_totals": totals,
            }

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition 0.0.4."""
        with self._lock:
            return self.registry.render()


__all__: List[str] = [
    "LatencyHistogram",
    "ServiceMetrics",
]
