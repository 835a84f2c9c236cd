"""Uniform query results: payload + one consolidated stats object.

Before the session facade, three divergent accounting shapes leaked to
callers: raw :class:`~repro.kvstore.cost.FetchStats` from the index,
:class:`~repro.taf.handler.ParallelFetchStats` from the TAF handler, and
the ad-hoc dict the CLI assembled in ``_fetch_summary``.
:class:`QueryStats` normalizes all of them — and adds what none carried:
which plan the session chose and what the cost model predicted for it
versus what the execution actually cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.api.request import QueryRequest
from repro.kvstore.cost import COUNTER_NAMES


@dataclass
class QueryStats:
    """Consolidated fetch accounting for one executed query.

    Attributes:
        requests: store requests issued (cache hits excluded).
        rounds: multiget rounds.
        bytes_read: stored bytes moved off the simulated wire.
        sim_time_ms: simulated completion time of the fetch (including
            client-side apply time when the cost model prices it).
        overlap_saved_ms: simulated time won by pipelined overlap.
        apply_ms: simulated client-side apply time (payload decode plus
            delta/event replay; 0 under a fetch-only cost model).
        cache_hits / cache_misses / cache_bytes_saved: delta-cache
            outcomes (0 when the session runs uncached).
        checkpoint_hits / checkpoint_misses: materialized-state checkpoint
            outcomes (0 when checkpoints are off); a hit seeded replay
            from a memoized state instead of re-fetching and re-applying.
        checkpoint_near_hits: nearest-in-time seedings — replay started
            from a checkpoint at an earlier time and fetched only the
            eventlist gap between the two times.
        decoded_events: Event objects materialized from columnar rows
            while answering the query (0 when every row was pickled, or
            when the bulk replay kernel applied the arrays directly
            without building Event objects at all).
        coalesced_hits: keys this query needed that another concurrently
            executing plan had already fetched (single-flight dedup; 0
            outside batched/coalesced execution).
        coalesced_bytes_saved: stored bytes those hits kept off the wire.
        merged_rounds: multiget rounds this query shared with at least
            one other plan in a batch (always <= ``rounds``).
        retries: failed key fetches re-attempted by the resilience
            policy (0 when the cluster runs without one).
        hedges: key fetches speculatively re-routed off a straggler
            replica by hedged reads.
        breaker_trips: circuit-breaker closed->open transitions caused
            by this query's rounds.
        backoff_ms: simulated milliseconds spent sleeping between retry
            attempts (already included in ``sim_time_ms``).
        degraded_keys: keys dropped after the retry budget was exhausted
            (only ever nonzero for ``allow_partial`` requests).
        degraded_partitions: human-readable labels of the partitions
            those keys belonged to.
        algorithm: the plan the session executed (e.g. ``snapshot-first``).
        predicted_ms: the cost model's estimate for the chosen plan,
            priced via ``Cluster.plan_records`` before fetching.
        candidates: every candidate plan's predicted cost, so callers can
            see the margin the choice was made on.
    """

    # requests / bytes_read are floats because batched coalesced
    # execution attributes each shared fetch fairly — 1/n of a request
    # and stored_bytes/n to each of its n beneficiary queries — so a
    # per-request share can be fractional; standalone queries keep
    # integral values
    requests: float = 0
    rounds: int = 0
    bytes_read: float = 0
    sim_time_ms: float = 0.0
    overlap_saved_ms: float = 0.0
    apply_ms: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes_saved: int = 0
    checkpoint_hits: int = 0
    checkpoint_misses: int = 0
    checkpoint_near_hits: int = 0
    decoded_events: int = 0
    coalesced_hits: int = 0
    coalesced_bytes_saved: int = 0
    merged_rounds: int = 0
    retries: int = 0
    hedges: int = 0
    breaker_trips: int = 0
    backoff_ms: float = 0.0
    degraded_keys: int = 0
    degraded_partitions: list = field(default_factory=list)
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
        stats: Any,
        algorithm: Optional[str] = None,
        predicted_ms: Optional[float] = None,
        candidates: Optional[Dict[str, float]] = None,
    ) -> "QueryStats":
        """Normalize a ``FetchStats`` or ``ParallelFetchStats``.

        The two shapes disagree on ``requests`` (record list vs. counter)
        and ``bytes_read`` (derived vs. stored); every other counter is
        copied by the field names of :class:`FetchStats`, so one added
        there either has a namesake here or the constructor rejects it.
        """
        counters = {
            name: getattr(stats, name)
            for name in COUNTER_NAMES if name != "requests"
        }
        counters["degraded_partitions"] = list(counters["degraded_partitions"])
        return cls(
            requests=getattr(stats, "num_requests", stats.requests),
            bytes_read=stats.bytes_read,
            algorithm=algorithm,
            predicted_ms=predicted_ms,
            candidates=dict(candidates or {}),
            **counters,
        )

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
        if self.coalesced_hits or self.merged_rounds:
            out["coalesce"] = {
                "hits": self.coalesced_hits,
                "bytes_saved": _num(self.coalesced_bytes_saved),
                "merged_rounds": self.merged_rounds,
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
