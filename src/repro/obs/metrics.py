"""Metrics registries with Prometheus text exposition.

Counters, gauges and histograms are registered by (name, labels) in a
:class:`MetricsRegistry`, and any registry renders to the Prometheus
text format (exposition 0.0.4) for ``GET /metrics?format=prometheus``
or offline inspection.

Each session owns one :class:`SessionMetrics` — the registry every
query it executes is recorded into, once: the per-kind totals and the
additive :class:`~repro.kvstore.cost.Counters` families.  A service
over the session builds its ``ServiceMetrics`` on that same object and
adds only what it alone sees (HTTP status, per-caller billing, batches,
latencies), so ``/metrics`` renders one registry.

Histogram bucket boundaries live here — :data:`DEFAULT_LATENCY_BOUNDS_MS`
is the single source the service histograms and the Prometheus ``le``
labels both read, so the JSON and Prometheus views of the same
histogram can never disagree about bucketing.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_LATENCY_BOUNDS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SessionMetrics",
]

#: Shared latency bucket upper bounds, in milliseconds.  The service's
#: latency histograms and the Prometheus exposition both use exactly
#: these boundaries.
DEFAULT_LATENCY_BOUNDS_MS: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _format_value(value: float) -> str:
    """Prometheus sample-value formatting: integers without the dot."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _render_labels(labels: LabelPairs, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(str(v))}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """Monotonically increasing float counter."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def samples(self) -> Iterable[Tuple[str, str, float]]:
        yield self.name, _render_labels(self.labels), self.value


class Gauge:
    """Point-in-time float value."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def samples(self) -> Iterable[Tuple[str, str, float]]:
        yield self.name, _render_labels(self.labels), self.value


class Histogram:
    """Fixed-bucket histogram (cumulative ``le`` buckets on export)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "counts", "total", "count")

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        bounds: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_MS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(bounds))
        self.counts = [0] * (len(self.bounds) + 1)  # last = +Inf overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    def samples(self) -> Iterable[Tuple[str, str, float]]:
        cumulative = 0
        for bound, n in zip(self.bounds, self.counts):
            cumulative += n
            yield (
                self.name + "_bucket",
                _render_labels(self.labels, f'le="{_format_value(bound)}"'),
                float(cumulative),
            )
        yield (
            self.name + "_bucket",
            _render_labels(self.labels, 'le="+Inf"'),
            float(self.count),
        )
        yield self.name + "_sum", _render_labels(self.labels), self.total
        yield self.name + "_count", _render_labels(self.labels), float(
            self.count
        )


class MetricsRegistry:
    """Get-or-create registry of named, labeled metrics.

    A metric family (one name) has a single type and help string; each
    distinct label set within it is its own series.  ``render()``
    produces the whole registry in Prometheus text format.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> (kind, help, {label_pairs: metric})
        self._families: Dict[str, Tuple[str, str, Dict[LabelPairs, Any]]] = {}
        self._order: List[str] = []

    @staticmethod
    def _label_pairs(labels: Optional[Dict[str, Any]]) -> LabelPairs:
        if not labels:
            return ()
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    def _get_or_create(
        self, name: str, kind: str, help: str,
        labels: Optional[Dict[str, Any]], factory,
    ):
        pairs = self._label_pairs(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = (kind, help, {})
                self._families[name] = family
                self._order.append(name)
            elif family[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family[0]}"
                )
            series = family[2]
            metric = series.get(pairs)
            if metric is None:
                metric = factory(name, pairs)
                series[pairs] = metric
            return metric

    def counter(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, Any]] = None,
    ) -> Counter:
        return self._get_or_create(name, "counter", help, labels, Counter)

    def gauge(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, Any]] = None,
    ) -> Gauge:
        return self._get_or_create(name, "gauge", help, labels, Gauge)

    def histogram(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, Any]] = None,
        bounds: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_MS,
        factory=Histogram,
    ) -> Histogram:
        def make(n: str, pairs: LabelPairs) -> Histogram:
            return factory(n, pairs, bounds=bounds)

        return self._get_or_create(name, "histogram", help, labels, make)

    def by_label(self, name: str, key: str) -> Dict[str, float]:
        """``{label value: metric value}`` over ``name``'s series."""
        with self._lock:
            family = self._families.get(name)
            series = list(family[2].items()) if family is not None else []
        return {dict(pairs).get(key, ""): m.value for pairs, m in series}

    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            order = list(self._order)
            families = {n: self._families[n] for n in order}
        for name in order:
            kind, help, series = families[name]
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            for metric in series.values():
                for sample_name, label_str, value in metric.samples():
                    lines.append(
                        f"{sample_name}{label_str} {_format_value(value)}"
                    )
        return "\n".join(lines) + "\n"


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

#: ``column -> (family, help)``: the per-kind query totals, each a
#: counter family labeled ``kind``.
KIND_FAMILIES: Dict[str, Tuple[str, str]] = {
    "queries": ("hgs_session_queries_total", "Queries executed, by kind"),
    "requests": (
        "hgs_session_store_requests_total",
        "Store requests issued (fair shares), by query kind"),
    "bytes": (
        "hgs_session_store_bytes_total",
        "Stored bytes read (fair shares), by query kind"),
    "sim_ms": (
        "hgs_session_sim_ms_total", "Simulated query ms, by query kind"),
}


class SessionMetrics(MetricsRegistry):
    """The registry one session records every executed query into.

    :meth:`record` folds a successful query's stats in once — its kind's
    row of :data:`KIND_FAMILIES` and every :data:`QUERY_FAMILIES`
    counter — through handles cached here, so recording never looks a
    family up.  :meth:`totals` reads the JSON view back off the same
    series the Prometheus rendering prints.
    """

    def __init__(self) -> None:
        super().__init__()
        self.per_query = {
            counter: getattr(self, kind)(family, help)
            for counter, (kind, family, help) in QUERY_FAMILIES.items()
        }
        self._kinds: Dict[str, Tuple[Counter, ...]] = {}

    def record(self, kind: str, stats: Any) -> None:
        """Fold one executed query's :class:`~repro.api.QueryStats` in."""
        row = self._kinds.get(kind)
        if row is None:
            row = self._kinds[kind] = tuple(
                self.counter(family, help, labels={"kind": kind})
                for family, help in KIND_FAMILIES.values()
            )
        queries, requests, read, sim_ms = row
        counts = vars(stats)
        with self._lock:
            queries.inc()
            requests.inc(stats.requests)
            read.inc(stats.bytes_read)
            sim_ms.inc(stats.sim_time_ms)
            for counter, metric in self.per_query.items():
                value = counts[counter]
                if value:  # most counters of most queries are zero
                    # a list of partition labels counts once: one more
                    # query answered with degraded coverage
                    metric.inc(1.0 if type(value) is list else value)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{kind: {queries, requests, bytes, sim_ms}}``, by kind."""
        columns = {
            column: self.by_label(family, "kind")
            for column, (family, _help) in KIND_FAMILIES.items()
        }
        return {
            kind: {
                column: values.get(kind, 0.0)
                for column, values in columns.items()
            }
            for kind in sorted(columns["queries"])
        }
