"""Public request/result types of the unified query facade.

The paper splits the system into a historical graph store (TGI, Sec. 4)
and an analytics layer (TAF, Sec. 5); :class:`~repro.session.GraphSession`
is the one front door over both.  This package holds the *data* side of
that API:

- :class:`~repro.api.request.QueryRequest` — a compiled, declarative
  description of one retrieval (what, when, with which algorithm policy).
  Builder terminals (``session.at(t).khop(...)``) compile to requests;
  requests are what the session prices, executes, and EXPLAINs.
- :class:`~repro.api.result.QueryStats` — the consolidated fetch
  accounting every query returns: the additive
  :class:`~repro.kvstore.cost.Counters` (declared once; the store-side
  :class:`~repro.kvstore.cost.FetchStats` and the TAF-side
  :class:`~repro.taf.handler.ParallelFetchStats` extend the same record)
  plus the query's share of requests and bytes, its simulated latency,
  and the chosen plan with its predicted vs. actual cost.
- :class:`~repro.api.result.QueryResult` — payload + stats + the request
  that produced them.

Algorithm names (:data:`~repro.api.request.ALGORITHMS`) follow the paper:
``snapshot-first`` is Algorithm 3 (fetch the snapshot, filter),
``khop`` is Algorithm 4 (targeted micro-delta expansion; one shared
frontier when a query has several centers), and ``auto`` lets the session
pick whichever of the two ``Cluster.price`` prices cheapest.
Every request compiles to exactly one fetch plan.
"""

from repro.api.request import (
    ALGO_AUTO,
    ALGO_KHOP,
    ALGO_SNAPSHOT_FIRST,
    ALGORITHMS,
    QueryRequest,
)
from repro.api.result import QueryResult, QueryStats
from repro.api.wire import (
    BadRequest,
    DeadlineExceeded,
    Draining,
    HeadersTooLarge,
    NotFound,
    Overloaded,
    PayloadTooLarge,
    RateLimited,
    ServiceError,
    Unauthorized,
    Unavailable,
    error_from_payload,
    error_payload,
    graph_summary,
    request_from_spec,
    result_payload,
    spec_from_request,
    versions_summary,
)

__all__ = [
    "ALGO_AUTO",
    "ALGO_KHOP",
    "ALGO_SNAPSHOT_FIRST",
    "ALGORITHMS",
    "QueryRequest",
    "QueryResult",
    "QueryStats",
    "BadRequest",
    "DeadlineExceeded",
    "Draining",
    "HeadersTooLarge",
    "NotFound",
    "Overloaded",
    "PayloadTooLarge",
    "RateLimited",
    "ServiceError",
    "Unauthorized",
    "Unavailable",
    "error_from_payload",
    "error_payload",
    "graph_summary",
    "request_from_spec",
    "result_payload",
    "spec_from_request",
    "versions_summary",
]
