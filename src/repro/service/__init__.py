"""A long-running query service over :class:`~repro.session.GraphSession`.

The paper's Temporal Graph Index is consumed by two kinds of clients:
interactive version queries (Sec. 4) and the Temporal Analysis
Framework's bulk fetches (Sec. 6).  Both arrive *concurrently* in a
deployment, and PR 7's cross-query fetch coalescing only pays off when
overlapping queries actually execute together.  This package supplies
the missing piece — a serving layer that batches the overlap there is:

- :mod:`repro.service.collector` — the micro-batching
  :class:`~repro.service.collector.MicroBatchCollector`: a request that
  meets a free worker runs at once; requests arriving while every
  worker is busy accumulate and run as one ``execute_batch`` when one
  frees, so independent HTTP callers share store fetches as if one
  caller had batched them.
- :mod:`repro.service.http` — an asyncio, stdlib-only HTTP/1.1 front
  end (``POST /query``, ``GET /healthz``, ``GET /metrics``), plus
  :class:`~repro.service.http.BackgroundService` for in-process tests
  and :func:`~repro.service.http.serve` with graceful SIGTERM drain.
- :mod:`repro.service.admission` — per-caller token-bucket rate limits
  (429 + ``Retry-After``) and bounded-queue load shedding (503).
- :mod:`repro.service.middleware` — request-id propagation, caller
  identity, and an auth stub.
- :mod:`repro.service.metrics` — the service's counters and latency
  histograms, kept in the served session's one registry and rendered
  with it at ``GET /metrics``, including *fair* per-caller store
  accounting that sums exactly to the deduplicated fetch totals.
- :mod:`repro.service.client` — a blocking stdlib client returning the
  same typed errors as in-process execution.

Entry point: ``hgs serve --index <path>`` (see ``repro.cli``).
"""

from repro.service.admission import AdmissionController, TokenBucket
from repro.service.client import ServiceClient
from repro.service.collector import CollectedResult, MicroBatchCollector
from repro.service.http import (
    AccessLogger,
    BackgroundService,
    QueryService,
    serve,
)
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.middleware import (
    RequestContext,
    auth_middleware,
    caller_middleware,
    default_middlewares,
    request_id_middleware,
)

__all__ = [
    "AccessLogger",
    "AdmissionController",
    "BackgroundService",
    "CollectedResult",
    "LatencyHistogram",
    "MicroBatchCollector",
    "QueryService",
    "RequestContext",
    "ServiceClient",
    "ServiceMetrics",
    "TokenBucket",
    "auth_middleware",
    "caller_middleware",
    "default_middlewares",
    "request_id_middleware",
    "serve",
]
