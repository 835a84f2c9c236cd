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

Every counter is backed by a metric in a private
:class:`~repro.obs.metrics.MetricsRegistry`, so the same state renders
two ways: the JSON ``snapshot()`` the dashboard reads, and the
Prometheus text exposition (``render_prometheus()``) a scraper reads.
Bucket boundaries come from the registry module's
:data:`~repro.obs.metrics.DEFAULT_LATENCY_BOUNDS_MS`, so both views
agree about bucketing by construction.

All mutation happens under one lock; the snapshot is a plain dict so
the endpoint can ``json.dumps`` it without touching live state.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS_MS,
    Histogram,
    MetricsRegistry,
)

#: Upper bounds (milliseconds) of the histogram buckets; the last
#: bucket is open-ended.  Shared with the Prometheus exposition via
#: :data:`repro.obs.metrics.DEFAULT_LATENCY_BOUNDS_MS` — the service no
#: longer hardcodes its own copy.
DEFAULT_BOUNDS_MS = DEFAULT_LATENCY_BOUNDS_MS

#: ``counter -> (registry kind, family, help)``: the ``/metrics`` family
#: each :data:`~repro.kvstore.cost.COUNTER_NAMES` entry feeds.  The signed
#: ``overlap_saved_ms`` (a plan that queued behind its batchmates reports a
#: negative share) sums into a gauge; the partition labels count queries.
QUERY_FAMILIES: Dict[str, Tuple[str, str, str]] = {
    "rounds": (
        "counter", "hgs_store_rounds_total", "Multiget rounds issued"),
    "overlap_saved_ms": (
        "gauge", "hgs_overlap_saved_ms_total",
        "Simulated ms won (lost, when negative) by overlapped execution"),
    "apply_ms": (
        "counter", "hgs_apply_ms_total",
        "Simulated client-side decode + replay ms"),
    "cache_hits": ("counter", "hgs_cache_hits_total", "Executor cache hits"),
    "cache_misses": (
        "counter", "hgs_cache_misses_total", "Executor cache misses"),
    "cache_bytes_saved": (
        "counter", "hgs_cache_bytes_saved_total",
        "Stored bytes the delta cache kept off the wire"),
    "checkpoint_hits": (
        "counter", "hgs_checkpoint_hits_total", "Exact checkpoint hits"),
    "checkpoint_misses": (
        "counter", "hgs_checkpoint_misses_total", "Checkpoint misses"),
    "checkpoint_near_hits": (
        "counter", "hgs_checkpoint_near_hits_total", "Near-checkpoint hits"),
    "decoded_events": (
        "counter", "hgs_decoded_events_total",
        "Event objects materialized off the zero-decode path"),
    "coalesced_hits": (
        "counter", "hgs_coalesced_hits_total",
        "Rows served from coalesced fetches"),
    "coalesced_bytes_saved": (
        "counter", "hgs_coalesced_bytes_saved_total",
        "Bytes not re-fetched thanks to coalescing"),
    "merged_rounds": (
        "counter", "hgs_merged_rounds_total", "Multiget rounds merged away"),
    "coalesced_replays": (
        "counter", "hgs_coalesced_replays_total",
        "Partition states read from a batchmate's replay"),
    "retries": ("counter", "hgs_store_retries_total", "Store round retries"),
    "hedges": (
        "counter", "hgs_store_hedges_total", "Hedged store sub-rounds"),
    "breaker_trips": (
        "counter", "hgs_breaker_trips_total", "Circuit-breaker trips"),
    "backoff_ms": (
        "counter", "hgs_store_backoff_ms_total",
        "Simulated ms slept between retry attempts"),
    "degraded_keys": (
        "counter", "hgs_degraded_keys_total",
        "Keys missing from degraded answers"),
    "degraded_partitions": (
        "counter", "hgs_degraded_queries_total",
        "Queries answered with degraded coverage"),
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
        bounds: Sequence[float] = DEFAULT_BOUNDS_MS,
    ):
        super().__init__(name, labels, bounds=tuple(bounds))
        self.max_ms = 0.0

    def observe(self, ms: float) -> None:
        super().observe(ms)
        if ms > self.max_ms:
            self.max_ms = ms

    @property
    def sum_ms(self) -> float:
        return self.total

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
    """Shared, lock-protected counters for the whole service.

    Each instance owns a private :class:`MetricsRegistry` (pass one in
    to share), so two services never cross-count; the registry gives
    every counter a Prometheus rendering for free.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        reg = registry if registry is not None else MetricsRegistry()
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
        #: one family per ``QueryStats`` counter, fed by ``record_query``
        self.per_query = {
            counter: getattr(reg, kind)(family, help)
            for counter, (kind, family, help) in QUERY_FAMILIES.items()
        }
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
            name, help, bounds=DEFAULT_BOUNDS_MS, factory=LatencyHistogram
        )

    # labeled families, get-or-create per label value -------------------
    def _by_status(self, status: int):
        return self.registry.counter(
            "hgs_http_responses_total",
            "HTTP responses by status",
            labels={"status": status},
        )

    def _by_caller(self, caller: str):
        return self.registry.counter(
            "hgs_http_requests_by_caller_total",
            "HTTP requests by caller",
            labels={"caller": caller},
        )

    def _by_kind(self, kind: str):
        return self.registry.counter(
            "hgs_queries_total",
            "Executed queries by kind",
            labels={"kind": kind},
        )

    def _rejected(self, reason: str):
        return self.registry.counter(
            "hgs_http_rejected_total",
            "Requests rejected before execution",
            labels={"reason": reason},
        )

    def _dispatched(self, trigger: str):
        return self.registry.counter(
            "hgs_exec_dispatch_total",
            "Executed micro-batches by what closed the window",
            labels={"trigger": trigger},
        )

    def _store_requests(self, caller: str):
        return self.registry.counter(
            "hgs_store_requests_total",
            "Store requests billed per caller (fair-share)",
            labels={"caller": caller},
        )

    def _store_bytes(self, caller: str):
        return self.registry.counter(
            "hgs_store_bytes_total",
            "Store bytes billed per caller (fair-share)",
            labels={"caller": caller},
        )

    def _family_by_label(self, name: str, key: str) -> Dict[str, float]:
        return {
            labels.get(key, ""): metric.value
            for labels, metric in self.registry.series(name)
        }

    # -- recording ------------------------------------------------------
    def record_response(
        self, caller: str, status: int, wall_ms: float
    ) -> None:
        with self._lock:
            self.requests_total.inc()
            self._by_status(status).inc()
            self._by_caller(caller).inc()
            self.service_latency.observe(wall_ms)

    def record_rejection(self, reason: str) -> None:
        with self._lock:
            self._rejected(reason).inc()

    def record_batch(
        self,
        size: int,
        exec_ms: float,
        queue_mss: Sequence[float],
        trigger: str,
    ) -> None:
        with self._lock:
            self.batches.inc()
            self._dispatched(trigger).inc()
            self.batched_requests.inc(size)
            if size > self.max_batch_size.value:
                self.max_batch_size.set(size)
            self.exec_latency.observe(exec_ms)
            for queue_ms in queue_mss:
                self.queue_latency.observe(queue_ms)

    def record_query(self, caller: str, kind: str, stats: Any) -> None:
        """Fold one executed request's :class:`QueryStats` in."""
        with self._lock:
            self._by_kind(kind).inc()
            self._store_requests(caller).inc(stats.requests)
            self._store_bytes(caller).inc(stats.bytes_read)
            for counter, metric in self.per_query.items():
                value = getattr(stats, counter)
                # a list of partition labels counts once: one more
                # query answered with degraded coverage
                metric.inc(bool(value) if type(value) is list else value)

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of every counter, taken under the lock."""
        with self._lock:
            by_status = self._family_by_label(
                "hgs_http_responses_total", "status"
            )
            by_caller = self._family_by_label(
                "hgs_http_requests_by_caller_total", "caller"
            )
            by_kind = self._family_by_label("hgs_queries_total", "kind")
            rejected = self._family_by_label(
                "hgs_http_rejected_total", "reason"
            )
            store_requests = self._family_by_label(
                "hgs_store_requests_total", "caller"
            )
            store_bytes = self._family_by_label(
                "hgs_store_bytes_total", "caller"
            )
            by_trigger = self._family_by_label(
                "hgs_exec_dispatch_total", "trigger"
            )
            batches = int(self.batches.value)
            batched_requests = int(self.batched_requests.value)
            per_query = self.per_query
            ckpt_hits = int(per_query["checkpoint_hits"].value)
            ckpt_misses = int(per_query["checkpoint_misses"].value)
            ckpt_near = int(per_query["checkpoint_near_hits"].value)
            ckpt_lookups = ckpt_hits + ckpt_misses + ckpt_near
            return {
                "requests": {
                    "total": int(self.requests_total.value),
                    "by_status": {
                        k: int(v) for k, v in sorted(by_status.items())
                    },
                    "by_caller": {
                        k: int(v) for k, v in sorted(by_caller.items())
                    },
                    "by_kind": {
                        k: int(v) for k, v in sorted(by_kind.items())
                    },
                    "rejected": {
                        k: int(v) for k, v in sorted(rejected.items())
                    },
                },
                "batches": {
                    "count": batches,
                    "requests": batched_requests,
                    "mean_size": (
                        round(batched_requests / batches, 2)
                        if batches else None
                    ),
                    "max_size": int(self.max_batch_size.value),
                    "by_trigger": {
                        k: int(v) for k, v in sorted(by_trigger.items())
                    },
                },
                "coalesce": {
                    "hits": int(per_query["coalesced_hits"].value),
                    "bytes_saved": round(
                        per_query["coalesced_bytes_saved"].value, 2
                    ),
                    "merged_rounds": int(per_query["merged_rounds"].value),
                },
                "store": {
                    "requests_by_caller": {
                        caller: round(value, 2)
                        for caller, value in sorted(store_requests.items())
                    },
                    "bytes_by_caller": {
                        caller: round(value, 2)
                        for caller, value in sorted(store_bytes.items())
                    },
                },
                "cache": {
                    "hits": int(per_query["cache_hits"].value),
                    "misses": int(per_query["cache_misses"].value),
                },
                "checkpoints": {
                    "hits": ckpt_hits,
                    "misses": ckpt_misses,
                    "near_hits": ckpt_near,
                    "hit_rate": (
                        round((ckpt_hits + ckpt_near) / ckpt_lookups, 3)
                        if ckpt_lookups else None
                    ),
                },
                "resilience": {
                    "retries": int(per_query["retries"].value),
                    "hedges": int(per_query["hedges"].value),
                    "breaker_trips": int(per_query["breaker_trips"].value),
                    "degraded_queries": int(
                        per_query["degraded_partitions"].value
                    ),
                    "degraded_keys": int(per_query["degraded_keys"].value),
                },
                "latency": {
                    "service_ms": self.service_latency.as_dict(),
                    "exec_ms": self.exec_latency.as_dict(),
                    "queue_ms": self.queue_latency.as_dict(),
                },
            }

    def render_prometheus(self) -> str:
        """The same counters in Prometheus text exposition 0.0.4."""
        with self._lock:
            return self.registry.render()


__all__: List[str] = [
    "DEFAULT_BOUNDS_MS",
    "LatencyHistogram",
    "ServiceMetrics",
]
