"""Cross-query fetch coalescing: single-flight dedup + round merging.

Overlapping independent plans *in time* alone never merges their work:
two plans touching the same micro-delta keys pay for every byte twice
and issue twice the requests.  This module is the layer between
:meth:`PlanExecutor.execute_many` and :meth:`Cluster.multiget` — the one
pipelined schedule, whether one plan is in flight or many — that makes N
overlapping queries cost close to one, with three composed mechanisms:

1. **Single-flight key dedup** — a per-execution in-flight table keyed by
   store key.  The first plan to request a key in a scheduling window
   *owns* the fetch; every other plan that asks for the same key (in the
   same window or any later one) receives the already-fetched row and is
   counted as a ``coalesced_hit`` — distinct from a cache hit, because
   the row *was* fetched during this execution, just only once.
2. **Machine-level round merging** — all keys registered in one
   scheduling window (one round-robin turn over the in-flight plans)
   are issued as a single merged multiget, so requests from different
   plans routed to the same machine share one round.
3. **Fair attribution** — every fetched row remembers its beneficiaries;
   :meth:`CoalesceScope.report` splits each row's request and bytes
   evenly across them so that batched per-query stats sum to the true
   totals instead of charging the whole row to whichever plan happened
   to own the flight.

Isolation follows the delta-cache discipline already in force: decoded
*rows* are shared across consumers (they are treated as immutable
everywhere).  Replayed query *state* is shared too, read-only, between
the k-hop plans of one execution (their
:class:`~repro.index.tgi.query.ReplayShare`: first fold wins, nothing
folded in is replayed further, and a plan reads it only inside its own
covered scope), while *results* — graphs, histories — are always built
per plan, so mutating one plan's returned value never leaks into
another's.

If a merged fetch fails (machine down, stale replica with no live
holder), every not-yet-completed flight of that window is deregistered
before the error propagates: waiters never observe a partial row, and a
retry after recovery re-registers the flights cleanly instead of joining
a dangling entry.
"""

from __future__ import annotations

from contextlib import nullcontext as _null_ctx
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.exec.cache import DeltaCache
from repro.exec.plan import FetchStage, KeyTuple
from repro.kvstore.cluster import Cluster
from repro.kvstore.cost import (
    RESILIENCE_COUNTERS,
    CostModel,
    ExecutionTimeline,
    RequestRecord,
    simulate_plan,
)
from repro.obs.trace import current_span, use_span


# ----------------------------------------------------------------------
# what both schedules (sequential ``execute`` and the coalesced windows)
# do with a stage's rows
# ----------------------------------------------------------------------
def _replay_items(value: Any) -> int:
    """How many components/events applying a decoded row replays: delta
    cardinality or event count; 1 for opaque scalar rows (pointers)."""
    try:
        return len(value)
    except TypeError:
        events = getattr(value, "events", None)
        return len(events) if events is not None else 1


def serve_cached(
    cache: Optional[DeltaCache],
    model: CostModel,
    keys: List[KeyTuple],
    result: Any,
) -> Tuple[List[KeyTuple], float]:
    """Answer what the delta cache holds of a stage's ``keys`` into
    ``result`` (a ``PlanResult``: values plus hit/miss counters).
    Returns the keys still missing and the apply cost of the rows served
    — cached rows are already decoded, so only their replay remains."""
    if cache is None:
        return keys, 0.0
    costed = model.costs_apply
    stats = result.stats
    missing: List[KeyTuple] = []
    apply_ms = 0.0
    for key in keys:
        row = cache.lookup(key)
        if row is None:
            missing.append(key)
            continue
        result.values[key] = row.value
        stats.cache_hits += 1
        stats.cache_bytes_saved += row.stored_bytes
        if costed:
            apply_ms += model.apply_time(
                row.raw_bytes, _replay_items(row.value), decoded=True
            )
    stats.cache_misses += len(missing)
    return missing, apply_ms


def admit_fetched(
    cache: Optional[DeltaCache],
    records: Sequence[RequestRecord],
    values: Dict[KeyTuple, Any],
) -> None:
    """Offer freshly fetched rows to the delta cache."""
    if cache is not None:
        for record in records:
            cache.admit(
                record.key, values[record.key],
                record.stored_bytes, record.raw_bytes,
            )


@dataclass
class _Flight:
    """One key's single-flight entry: who fetches it, who consumed it."""

    key: KeyTuple
    owner: int  # plan index that issues the store request
    beneficiaries: Set[int] = field(default_factory=set)
    value: Any = None
    stored_bytes: int = 0
    raw_bytes: int = 0
    completed_ms: float = 0.0
    done: bool = False


@dataclass
class _Participation:
    """One cursor's stake in the current scheduling window."""

    cursor: Any
    owned: List[KeyTuple] = field(default_factory=list)
    waiting: List[_Flight] = field(default_factory=list)
    #: latest completion among already-done flights this stage consumed
    dep_ms: float = 0.0
    #: replay cost accrued before the flush (cache hits, done flights)
    apply_ms: float = 0.0


@dataclass
class _Window:
    """One scheduling window: the flights registered and the cursors
    participating during one round-robin turn over the plans."""

    pending: List[_Flight] = field(default_factory=list)
    parts: List[_Participation] = field(default_factory=list)


@dataclass
class CoalesceReport:
    """Execution-level coalescing summary with fair per-plan attribution.

    ``fair_requests[i]`` / ``fair_bytes[i]`` are plan ``i``'s share of
    the store work: each fetched row contributes ``1/n`` of a request
    and ``stored_bytes/n`` bytes to each of its ``n`` beneficiaries, so
    the per-plan shares sum exactly to the deduplicated totals.
    """

    rounds_issued: int
    merged_rounds: int
    unique_keys: int
    coalesced_hits: int
    fair_requests: List[float]
    fair_bytes: List[float]


class CoalesceScope:
    """Single-flight table + merged-round issue for one ``execute_many``.

    The executor drives the protocol: per scheduling window it calls
    :meth:`admit_stage` once for each advancing cursor (cache lookups,
    flight registration/joining), then :meth:`flush_window` once, which
    issues the window's merged multiget, settles every participant's
    values/stats/timing, and marks the flights done.
    """

    def __init__(
        self, cluster: Cluster, cache: Optional[DeltaCache], num_plans: int
    ) -> None:
        self.cluster = cluster
        self.cache = cache
        self.model = cluster.config.cost_model
        #: merged rounds run in a client namespace past every plan's own,
        #: modeling one shared async fetch pool for coalesced traffic
        self.client_offset_plans = num_plans
        self.flights: Dict[KeyTuple, _Flight] = {}
        self.rounds_issued = 0
        self.merged_rounds = 0
        self.coalesced_hits = 0

    # ------------------------------------------------------------------
    def begin_window(self) -> _Window:
        return _Window()

    def admit_stage(
        self, window: _Window, cursor: Any, stage: FetchStage
    ) -> None:
        """Register one cursor's resolved stage into the window: serve
        cache hits and already-done flights immediately, join in-window
        flights as a waiter, own the rest."""
        model = self.model
        costed = model.costs_apply
        stats = cursor.result.stats
        missing, cached_ms = serve_cached(
            self.cache, model, stage.keys(), cursor.result
        )
        part = _Participation(cursor=cursor, apply_ms=cached_ms)
        for key in missing:
            flight = self.flights.get(key)
            if flight is None:
                flight = _Flight(key=key, owner=cursor.index)
                flight.beneficiaries.add(cursor.index)
                self.flights[key] = flight
                window.pending.append(flight)
                part.owned.append(key)
                continue
            flight.beneficiaries.add(cursor.index)
            stats.coalesced_hits += 1
            self.coalesced_hits += 1
            if flight.done:
                # fetched in an earlier window: the row is available the
                # instant that round completed
                cursor.result.values[key] = flight.value
                stats.coalesced_bytes_saved += flight.stored_bytes
                part.dep_ms = max(part.dep_ms, flight.completed_ms)
                if costed:
                    part.apply_ms += model.apply_time(
                        flight.raw_bytes, _replay_items(flight.value),
                        decoded=True,
                    )
            else:
                # registered earlier this window by another plan: the
                # value lands at the flush
                part.waiting.append(flight)
        window.parts.append(part)

    def flush_window(
        self, window: _Window, clients: int, timeline: ExecutionTimeline
    ) -> None:
        """Issue the window's merged round and settle every participant."""
        model = self.model
        costed = model.costs_apply
        pending = window.pending
        #: the merged round on the timeline, and whether its rows went to
        #: more than one plan
        timing = None
        merged = 0
        values: Dict[KeyTuple, Any] = {}
        rec_by_key: Dict[KeyTuple, Any] = {}
        if pending:
            # the merged round is released once every owning plan has its
            # previous round's data in hand (waiters never gate it)
            release = max(
                (p.cursor.ready_at for p in window.parts if p.owned),
                default=0.0,
            )
            merged_keys = [f.key for f in pending]
            window_span = None
            parent = current_span()
            if parent is not None:
                window_span = parent.child(
                    "coalesce.window",
                    keys=len(merged_keys),
                    participants=len(window.parts),
                    owners=sum(1 for p in window.parts if p.owned),
                )
            try:
                # nest the merged round's store spans under the window
                with use_span(window_span) if window_span is not None \
                        else _null_ctx():
                    values, stats = self.cluster.multiget(
                        merged_keys,
                        clients=clients,
                        timeline=timeline,
                        at=release,
                        client_offset=self.client_offset_plans * clients,
                    )
            except Exception:
                # never leave waiters joined to a fetch that will not
                # complete: deregister so a retry re-registers cleanly
                for flight in pending:
                    if not flight.done:
                        self.flights.pop(flight.key, None)
                raise
            # resilient retries issue extra rounds: every flight settles
            # at the window's final completion (conservative)
            timing = timeline.rounds[-1] if stats.rounds else None
            plans: Set[int] = set()
            rec_by_key = {r.key: r for r in stats.requests}
            for flight in pending:
                if flight.key not in values:
                    # degraded fetch dropped this key: deregister the
                    # flight so owners and waiters alike see it missing
                    # (their finalizers degrade or raise typed) and a
                    # later window can retry it cleanly
                    self.flights.pop(flight.key, None)
                    continue
                record = rec_by_key[flight.key]
                flight.value = values[flight.key]
                flight.stored_bytes = record.stored_bytes
                flight.raw_bytes = record.raw_bytes
                flight.completed_ms = timing.completed_ms
                flight.done = True
                plans |= flight.beneficiaries
            merged = int(len(plans) > 1)
            self.rounds_issued += stats.rounds
            self.merged_rounds += merged
            if window_span is not None:
                if timing is not None:
                    window_span.set_sim(
                        timing.released_ms, timing.completed_ms
                    )
                window_span.set(
                    requests=len(stats.requests),
                    rounds=stats.rounds,
                    merged=merged,
                ).end()
            if any(getattr(stats, name) for name in RESILIENCE_COUNTERS):
                # resilience counters of the merged round: attributed to
                # the first owning participant so the batch aggregate
                # (which sums per-plan stats) counts each event once
                first_owner = next(
                    (p for p in window.parts if p.owned), window.parts[0]
                )
                first_owner.cursor.result.stats.add(
                    stats, RESILIENCE_COUNTERS
                )

        for part in window.parts:
            cursor = part.cursor
            cstats = cursor.result.stats
            apply_ms = part.apply_ms
            arrive = part.dep_ms
            owned_records = []
            for key in part.owned:
                record = rec_by_key.get(key)
                if record is None:
                    continue  # degraded fetch dropped this key
                owned_records.append(record)
                cursor.result.values[key] = values[key]
                if costed:
                    apply_ms += model.apply_time(
                        record.raw_bytes, _replay_items(values[key])
                    )
            for flight in part.waiting:
                if not flight.done:
                    continue  # degraded fetch dropped the owner's key
                cursor.result.values[flight.key] = flight.value
                cstats.coalesced_bytes_saved += flight.stored_bytes
                arrive = max(arrive, flight.completed_ms)
                if costed:
                    apply_ms += model.apply_time(
                        flight.raw_bytes, _replay_items(flight.value),
                        decoded=True,
                    )
            cstats.requests.extend(owned_records)
            if owned_records:
                cstats.rounds += 1
                cstats.merged_rounds += merged
                arrive = max(arrive, timing.completed_ms)
            if arrive:
                cursor.ready_at = max(cursor.ready_at, arrive)
            if owned_records:
                # the plan's standalone share: what its own keys would
                # have cost as one round of its own
                cursor.standalone_ms += simulate_plan(owned_records, model)
            if apply_ms > 0.0:
                cstats.apply_ms += apply_ms
                # the stage's replay runs on this plan's apply lane,
                # released when its payload arrived: it overlaps the
                # plan's next fetch round (key resolution needs only the
                # decoded rows) and every other plan's in-flight work,
                # and serializes against the plan's own earlier stages
                lane = f"plan-{cursor.index}"
                work = timeline.submit_local(
                    apply_ms, at=cursor.ready_at, lane=lane
                )
                cursor.apply_done = max(cursor.apply_done, work.completed_ms)
                cursor.standalone_ms += apply_ms
                span = current_span()
                if span is not None:
                    span.child(
                        "apply", lane=lane, plan=cursor.index,
                        apply_ms=round(apply_ms, 6),
                    ).set_sim(
                        work.completed_ms - work.standalone_ms,
                        work.completed_ms,
                    ).end()
            admit_fetched(self.cache, owned_records, values)

    # ------------------------------------------------------------------
    def report(self, num_plans: int) -> CoalesceReport:
        """Fair per-plan attribution over every completed flight."""
        fair_requests = [0.0] * num_plans
        fair_bytes = [0.0] * num_plans
        unique = 0
        for flight in self.flights.values():
            if not flight.done:
                continue
            unique += 1
            share = len(flight.beneficiaries)
            for index in flight.beneficiaries:
                fair_requests[index] += 1.0 / share
                fair_bytes[index] += flight.stored_bytes / share
        return CoalesceReport(
            rounds_issued=self.rounds_issued,
            merged_rounds=self.merged_rounds,
            unique_keys=unique,
            coalesced_hits=self.coalesced_hits,
            fair_requests=fair_requests,
            fair_bytes=fair_bytes,
        )
