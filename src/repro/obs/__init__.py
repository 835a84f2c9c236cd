"""Observability: query tracing, metrics registry, trace export.

- :mod:`repro.obs.trace` — span trees over the query path, propagated
  via contextvars; off-mode overhead is one ``ContextVar.get`` per
  instrumentation site.
- :mod:`repro.obs.metrics` — counters / gauges / histograms with
  Prometheus text exposition, and the one per-session registry every
  executed query is recorded into.
- :mod:`repro.obs.export` — structured-JSON and Chrome trace-event
  (Perfetto) export.
- :mod:`repro.obs.slowlog` — threshold + ring-buffer slow-query log
  with predicted-vs-actual pricing margins.
"""

from .metrics import (
    DEFAULT_LATENCY_BOUNDS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SessionMetrics,
)
from .trace import SamplingPolicy, Span, Tracer, current_span, use_span
from .export import chrome_trace, trace_to_json, write_trace
from .slowlog import SlowQueryLog, summarize_queries

__all__ = [
    "DEFAULT_LATENCY_BOUNDS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SessionMetrics",
    "SamplingPolicy",
    "Span",
    "Tracer",
    "current_span",
    "use_span",
    "chrome_trace",
    "trace_to_json",
    "write_trace",
    "SlowQueryLog",
    "summarize_queries",
]
