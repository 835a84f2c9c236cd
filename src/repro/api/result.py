"""Uniform query results: payload + one consolidated stats object.

:class:`QueryStats` is what a session query reports: the additive
:class:`~repro.kvstore.cost.Counters` every retrieval accounts in (the
same record the index's :class:`~repro.kvstore.cost.FetchStats` and the
TAF handler's :class:`~repro.taf.handler.ParallelFetchStats` extend),
the query's fair share of the store traffic, and what neither of those
carries: which plan the session chose and what the cost model predicted
for it versus what the execution actually cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.api.request import QueryRequest
from repro.kvstore.cost import Counters, FetchStats


@dataclass
class QueryStats(Counters):
    """Consolidated fetch accounting for one executed query: the
    :class:`~repro.kvstore.cost.Counters` (declared and documented there)
    plus the query's traffic share, clock and plan choice.

    Attributes:
        requests: store requests issued (cache hits excluded).
        bytes_read: stored bytes moved off the simulated wire.
        sim_time_ms: simulated completion time of the fetch (including
            client-side apply time when the cost model prices it).
        algorithm: the plan the session executed (e.g. ``snapshot-first``).
        predicted_ms: the cost model's estimate for the chosen plan,
            priced via ``Cluster.price`` before fetching.
        candidates: the predicted cost of every candidate plan ``auto``
            priced, so callers can see the margin the choice was made
            on — except that Algorithm 4 is not priced when
            snapshot-first reads no store row (an exact-warm snapshot):
            then snapshot-first is the one candidate, at 0.0.
    """

    # requests / bytes_read are floats because batched coalesced
    # execution attributes each shared fetch fairly — 1/n of a request
    # and stored_bytes/n to each of its n beneficiary queries — so a
    # per-request share can be fractional; standalone queries keep
    # integral values
    requests: float = 0
    bytes_read: float = 0
    sim_time_ms: float = 0.0
    algorithm: Optional[str] = None
    predicted_ms: Optional[float] = None
    candidates: Dict[str, float] = field(default_factory=dict)

    @property
    def actual_ms(self) -> float:
        """The executed plan's simulated cost (alias of ``sim_time_ms``)."""
        return self.sim_time_ms

    @classmethod
    def from_fetch(
        cls,
        stats: FetchStats,
        algorithm: Optional[str] = None,
        predicted_ms: Optional[float] = None,
        candidates: Optional[Dict[str, float]] = None,
    ) -> "QueryStats":
        """A query's stats off the :class:`FetchStats` of its fetch: the
        request records and their bytes become totals, the clock carries
        over, and every counter is folded in by :meth:`Counters.add`."""
        out = cls(
            requests=stats.num_requests,
            bytes_read=stats.bytes_read,
            sim_time_ms=stats.sim_time_ms,
            algorithm=algorithm,
            predicted_ms=predicted_ms,
            candidates=dict(candidates or {}),
        )
        out.add(stats)
        return out

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary, keeping the CLI's historical key names
        (``deltas_fetched``, ``rounds``, ``sim_time_ms``, ``cache``) and
        adding the plan-selection fields when a choice was made."""
        def _num(value: float) -> Any:
            # fair fractional shares from batched execution round to 2
            # decimals; integral values stay ints for JSON stability
            return int(value) if float(value).is_integer() else round(value, 2)

        out: Dict[str, Any] = {
            "deltas_fetched": _num(self.requests),
            "rounds": self.rounds,
            "sim_time_ms": round(self.sim_time_ms, 2),
        }
        if self.overlap_saved_ms:
            out["overlap_saved_ms"] = round(self.overlap_saved_ms, 2)
        if self.apply_ms:
            out["apply_ms"] = round(self.apply_ms, 2)
        if self.cache_hits or self.cache_misses:
            out["cache"] = {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "bytes_saved": self.cache_bytes_saved,
            }
        if (
            self.checkpoint_hits
            or self.checkpoint_misses
            or self.checkpoint_near_hits
        ):
            out["checkpoints"] = {
                "hits": self.checkpoint_hits,
                "misses": self.checkpoint_misses,
                "near_hits": self.checkpoint_near_hits,
            }
        if self.decoded_events:
            out["decoded_events"] = self.decoded_events
        if (
            self.coalesced_hits
            or self.merged_rounds
            or self.coalesced_replays
        ):
            out["coalesce"] = {
                "hits": self.coalesced_hits,
                "bytes_saved": _num(self.coalesced_bytes_saved),
                "merged_rounds": self.merged_rounds,
                "replays": self.coalesced_replays,
            }
        if self.retries or self.hedges or self.breaker_trips:
            out["resilience"] = {
                "retries": self.retries,
                "hedges": self.hedges,
                "breaker_trips": self.breaker_trips,
                "backoff_ms": round(self.backoff_ms, 2),
            }
        if self.degraded_keys or self.degraded_partitions:
            out["degraded"] = {
                "keys": self.degraded_keys,
                "partitions": list(self.degraded_partitions),
            }
        if self.algorithm is not None:
            out["algorithm"] = self.algorithm
            out["actual_ms"] = round(self.actual_ms, 2)
            if self.predicted_ms is not None:
                out["predicted_ms"] = round(self.predicted_ms, 2)
        if self.candidates:
            out["candidates"] = {
                name: round(ms, 2) for name, ms in self.candidates.items()
            }
        return out


@dataclass
class QueryResult:
    """Payload plus accounting for one executed :class:`QueryRequest`.

    ``error`` is only ever set by fault-isolating batch execution
    (``execute_batch(..., capture_errors=True)``, which the query
    service uses so one bad request cannot kill a whole batching
    window): the exception that felled this request, with ``value``
    ``None``.  :meth:`raise_for_error` restores raise-on-access
    semantics for callers that want them.

    ``degraded`` is only ever set for ``allow_partial`` requests whose
    fetch actually dropped data: a dict naming the unavailable
    partitions (``{"keys": n, "partitions": [...]}``).  Fault-free
    ``allow_partial`` runs leave it ``None``, so ``degraded is None``
    means the payload is complete.
    """

    request: QueryRequest
    value: Any
    stats: QueryStats
    error: Optional[Exception] = None
    degraded: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def raise_for_error(self) -> "QueryResult":
        """Re-raise a captured per-request failure; chains when ok."""
        if self.error is not None:
            raise self.error
        return self

    def __repr__(self) -> str:
        if self.error is not None:
            return (
                f"<QueryResult {self.request.describe()} "
                f"error={type(self.error).__name__}: {self.error}>"
            )
        return (
            f"<QueryResult {self.request.describe()} "
            f"requests={self.stats.requests} "
            f"sim={self.stats.sim_time_ms:.2f}ms>"
        )
