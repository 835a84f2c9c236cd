"""Coalesced windows: the one schedule every plan runs on.

:meth:`PlanExecutor.execute_many` advances its plans in *scheduling
windows* — one round-robin turn over the unfinished plans, each
resolving its next stage — and this module turns each window into at
most one :meth:`Cluster.multiget` round.  A lone query is a window
sequence of one plan; a batch or a TAF chunk fetch is the same loop with
more plans in it.  Three mechanisms compose:

1. **Single-flight key dedup** — a per-execution in-flight table keyed by
   store key.  The first stage to ask for a key in a window *owns* the
   fetch; every later ask — another plan's, in the same window or any
   later one, or a later stage of the same plan — receives the
   already-fetched row and is counted as a ``coalesced_hit``: distinct
   from a cache hit, because the row *was* fetched during this
   execution, just only once.
2. **Machine-level round merging** — all keys owned in one window are
   issued as a single merged multiget, so requests from different plans
   routed to the same machine share one round, released on the shared
   :class:`~repro.kvstore.cost.ExecutionTimeline` as soon as every owner
   has its previous round's data in hand.
3. **Fair attribution** — every fetched row remembers the plans it
   served; :meth:`CoalesceScope.report` splits each row's request and
   bytes evenly across them so that batched per-query stats sum to the
   true totals instead of charging the whole row to whichever plan
   happened to own the flight.

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
holder), every flight of that window is deregistered before the error
propagates: waiters never observe a partial row, and a retry after
recovery re-registers the flights cleanly instead of joining a dangling
entry.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.exec.cache import DeltaCache
from repro.exec.plan import FetchStage, KeyTuple
from repro.kvstore.cluster import Cluster
from repro.kvstore.cost import (
    RESILIENCE_COUNTERS,
    ExecutionTimeline,
    FetchStats,
    RequestRecord,
    simulate_plan,
)
from repro.obs.trace import current_span, use_span

_resilience_counts = attrgetter(*RESILIENCE_COUNTERS)


class _Window:
    """One scheduling window: its participants and, once flushed, the
    merged round's rows, records and completion instant."""

    __slots__ = (
        "parts", "stages", "cache_hits", "cache_misses",
        "values", "requests", "_by_key", "completed_ms",
    )

    def __init__(self) -> None:
        self.parts: List[_Stake] = []
        self.stages: List[str] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.values: Dict[KeyTuple, Any] = {}
        #: the merged round's store requests, one per fetched key
        self.requests: List[RequestRecord] = []
        self._by_key: Optional[Dict[KeyTuple, RequestRecord]] = None
        self.completed_ms = 0.0

    def by_key(self) -> Dict[KeyTuple, RequestRecord]:
        """The store request that fetched each key — indexed on first
        ask, since a window whose rows only its owner reads never asks."""
        if self._by_key is None:
            self._by_key = {r.key: r for r in self.requests}
        return self._by_key


class _Stake:
    """One plan's stake in one window.  A key's flight *is* its owner's
    stake: the in-flight table maps each key to the stake that fetches
    it, so a flight costs a dict entry, and it is done once the stake's
    window has been flushed."""

    __slots__ = ("cursor", "window", "owned", "waiting", "dep_ms", "apply_ms")

    def __init__(self, cursor: Any, window: _Window) -> None:
        self.cursor = cursor
        self.window = window
        #: keys this plan fetches in the window, for itself and any joiner
        self.owned: List[KeyTuple] = []
        #: keys another plan owns in the same window: they land at the flush
        self.waiting: List[KeyTuple] = []
        #: latest completion among already-done flights this stage consumed
        self.dep_ms = 0.0
        #: replay cost accrued before the flush (cache hits, done flights)
        self.apply_ms = 0.0


@dataclass
class CoalesceReport:
    """Execution-level coalescing summary with fair per-plan attribution.

    ``fair_requests[i]`` / ``fair_bytes[i]`` are plan ``i``'s share of
    the store work: each fetched row contributes ``1/n`` of a request
    and ``stored_bytes/n`` bytes to each of the ``n`` plans it served, so
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
    values/stats/timing, and admits the fetched rows to the cache.
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
        #: key -> the stake that fetches (or fetched) it
        self.flights: Dict[KeyTuple, _Stake] = {}
        #: key -> plans other than its owner that consumed it (only keys
        #: that served a second plan have an entry)
        self.joiners: Dict[KeyTuple, Set[int]] = {}
        self.rounds_issued = 0
        self.merged_rounds = 0
        self.coalesced_hits = 0

    @staticmethod
    def _replay_items(value: Any) -> int:
        """How many components/events applying a decoded row replays:
        delta cardinality or event count; 1 for opaque scalar rows
        (pointers)."""
        try:
            return len(value)
        except TypeError:
            events = getattr(value, "events", None)
            return len(events) if events is not None else 1

    # ------------------------------------------------------------------
    def begin_window(self) -> _Window:
        return _Window()

    def admit_stage(
        self, window: _Window, cursor: Any, stage: FetchStage
    ) -> None:
        """Register one cursor's resolved stage into the window: serve
        cache hits and already-done flights immediately, join in-window
        flights as a waiter, own the rest."""
        part = _Stake(cursor, window)
        window.stages.append(stage.label)
        flights = self.flights
        missing = self._serve_cached(stage.keys(), part)
        if flights.keys().isdisjoint(missing):
            # nothing this stage asks for is in flight: it owns them all
            flights.update(dict.fromkeys(missing, part))
            part.owned = missing
        else:
            owned = part.owned
            stats = cursor.result.stats
            values = cursor.result.values
            for key in missing:
                owner = flights.setdefault(key, part)
                if owner is part:
                    owned.append(key)
                    continue
                # asked before, by another plan or an earlier stage of
                # this one: a coalesced hit
                stats.coalesced_hits += 1
                self.coalesced_hits += 1
                if owner.cursor is not cursor:
                    self.joiners.setdefault(key, set()).add(cursor.index)
                done = owner.window
                if done is window:
                    part.waiting.append(key)  # lands at the flush
                    continue
                # fetched in an earlier window: the row is available the
                # instant that round completed
                value = values[key] = done.values[key]
                record = done.by_key()[key]
                stats.coalesced_bytes_saved += record.stored_bytes
                part.dep_ms = max(part.dep_ms, done.completed_ms)
                if self.model.costs_apply:
                    part.apply_ms += self.model.apply_time(
                        record.raw_bytes, self._replay_items(value),
                        decoded=True,
                    )
        window.parts.append(part)

    def _serve_cached(
        self, keys: List[KeyTuple], part: _Stake
    ) -> List[KeyTuple]:
        """Answer what the delta cache holds of a stage's ``keys``;
        return the keys still missing.  Cached rows are already decoded,
        so only their replay is charged."""
        cache = self.cache
        if cache is None:
            return keys
        model = self.model
        costed = model.costs_apply
        result = part.cursor.result
        stats = result.stats
        missing: List[KeyTuple] = []
        for key in keys:
            row = cache.lookup(key)
            if row is None:
                missing.append(key)
                continue
            result.values[key] = row.value
            stats.cache_hits += 1
            stats.cache_bytes_saved += row.stored_bytes
            if costed:
                part.apply_ms += model.apply_time(
                    row.raw_bytes, self._replay_items(row.value), decoded=True
                )
        stats.cache_misses += len(missing)
        window = part.window
        window.cache_hits += len(keys) - len(missing)
        window.cache_misses += len(missing)
        return missing

    def flush_window(
        self, window: _Window, clients: int, timeline: ExecutionTimeline
    ) -> None:
        """Issue the window's merged round and settle every participant."""
        parts = window.parts
        if not parts:
            return  # every factory of the window declined
        owners = [p for p in parts if p.owned]
        span = None
        parent = current_span()
        if parent is not None:
            span = parent.child(
                "coalesce.window",
                stages=window.stages,
                participants=len(parts),
                owners=len(owners),
                keys=sum(len(p.owned) for p in owners),
            )
            if self.cache is not None:
                span.set(
                    cache_hits=window.cache_hits,
                    cache_misses=window.cache_misses,
                )
        stats = None
        merged = 0
        if owners:
            stats = self._fetch(window, owners, clients, timeline, span)
            if len(parts) > 1:
                # merged: the round's rows reached more than one plan
                values = window.values
                served = {
                    p.cursor.index for p in parts
                    if any(k in values for k in p.owned)
                    or any(k in values for k in p.waiting)
                }
                merged = int(len(served) > 1)
            self.rounds_issued += stats.rounds
            self.merged_rounds += merged
            if span is not None:
                span.set(
                    requests=len(stats.requests),
                    bytes=stats.bytes_read,
                    rounds=stats.rounds,
                    merged=merged,
                )
            if any(_resilience_counts(stats)):
                # resilience counters of the merged round: attributed to
                # the first owner so the batch aggregate (which sums
                # per-plan stats) counts each event once
                owners[0].cursor.result.stats.add(stats, RESILIENCE_COUNTERS)
        for part in parts:
            self._settle(part, stats, merged, len(owners) == 1, timeline)
        # stakes point at their window: drop the window's list of them so
        # no reference cycle holds its rows past the execution
        window.parts = []
        if span is not None:
            span.end()

    def _fetch(
        self,
        window: _Window,
        owners: List[_Stake],
        clients: int,
        timeline: ExecutionTimeline,
        span: Any,
    ) -> FetchStats:
        """Issue the window's owned keys as one multiget; record its rows
        on the window and drop the flights of keys it could not serve."""
        # released once every owner has its previous round's data in hand
        # (waiters never gate it)
        release = max(p.cursor.ready_at for p in owners)
        keys = (
            owners[0].owned if len(owners) == 1
            else [key for p in owners for key in p.owned]
        )
        try:
            # nest the merged round's store spans under the window
            with nullcontext() if span is None else use_span(span):
                values, stats = self.cluster.multiget(
                    keys,
                    clients=clients,
                    timeline=timeline,
                    at=release,
                    client_offset=self.client_offset_plans * clients,
                )
        except Exception:
            # never leave waiters joined to a fetch that will not
            # complete: deregister so a retry re-registers cleanly
            self._deregister(keys)
            raise
        if len(values) < len(keys):
            # a degraded fetch dropped these keys: owners and waiters alike
            # see them missing (their finalizers degrade or raise typed)
            # and a later window can retry them cleanly
            self._deregister([key for key in keys if key not in values])
        window.values = values
        window.requests = stats.requests
        if stats.rounds:
            # resilient retries issue extra rounds: every flight settles
            # at the window's final completion (conservative)
            timing = timeline.rounds[-1]
            window.completed_ms = timing.completed_ms
            if span is not None:
                span.set_sim(timing.released_ms, timing.completed_ms)
        return stats

    def _deregister(self, keys: Sequence[KeyTuple]) -> None:
        for key in keys:
            self.flights.pop(key, None)
            self.joiners.pop(key, None)

    def _settle(
        self,
        part: _Stake,
        stats: Optional[FetchStats],
        merged: int,
        sole_owner: bool,
        timeline: ExecutionTimeline,
    ) -> None:
        """Hand one participant its rows, counters, timing and apply."""
        model = self.model
        costed = model.costs_apply
        window = part.window
        values = window.values
        cursor = part.cursor
        result = cursor.result
        cstats = result.stats
        apply_ms = part.apply_ms
        arrive = part.dep_ms
        records: List[RequestRecord] = []
        if part.owned:
            if sole_owner:
                # the whole round is this plan's: its rows, its records,
                # and the round's own standalone cost
                records = stats.requests
                result.values.update(values)
                standalone = stats.sim_time_ms
            else:
                by_key = window.by_key()
                for key in part.owned:
                    record = by_key.get(key)
                    if record is not None:  # else: a degraded fetch dropped it
                        records.append(record)
                        result.values[key] = values[key]
                # the plan's standalone share: what its own keys would
                # have cost as one round of its own
                standalone = simulate_plan(records, model)
            if records:
                cstats.requests.extend(records)
                cstats.rounds += 1
                cstats.merged_rounds += merged
                arrive = max(arrive, window.completed_ms)
                cursor.standalone_ms += standalone
                if costed:
                    for record in records:
                        apply_ms += model.apply_time(
                            record.raw_bytes,
                            self._replay_items(values[record.key]),
                        )
        by_key = window.by_key() if part.waiting else {}
        for key in part.waiting:
            record = by_key.get(key)
            if record is None:
                continue  # degraded fetch dropped the owner's key
            value = result.values[key] = values[key]
            cstats.coalesced_bytes_saved += record.stored_bytes
            arrive = max(arrive, window.completed_ms)
            if costed:
                apply_ms += model.apply_time(
                    record.raw_bytes, self._replay_items(value), decoded=True,
                )
        if arrive:
            cursor.ready_at = max(cursor.ready_at, arrive)
        if apply_ms > 0.0:
            cstats.apply_ms += apply_ms
            # the stage's replay runs on this plan's apply lane, released
            # when its payload arrived: it overlaps the plan's next fetch
            # round (key resolution needs only the decoded rows) and every
            # other plan's in-flight work, and serializes against the
            # plan's own earlier stages
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
                    work.completed_ms - work.standalone_ms, work.completed_ms,
                ).end()
        cache = self.cache
        if cache is not None:
            for record in records:
                cache.admit(
                    record.key, values[record.key],
                    record.stored_bytes, record.raw_bytes,
                )

    # ------------------------------------------------------------------
    def report(self, num_plans: int) -> CoalesceReport:
        """Fair per-plan attribution over every completed flight."""
        fair_requests = [0.0] * num_plans
        fair_bytes = [0.0] * num_plans
        joiners = self.joiners
        for key, owner in self.flights.items():
            stored = owner.window.by_key()[key].stored_bytes
            joined = joiners.get(key)
            if joined is None:
                fair_requests[owner.cursor.index] += 1.0
                fair_bytes[owner.cursor.index] += stored
                continue
            share = 1 + len(joined)
            for index in (owner.cursor.index, *joined):
                fair_requests[index] += 1.0 / share
                fair_bytes[index] += stored / share
        return CoalesceReport(
            rounds_issued=self.rounds_issued,
            merged_rounds=self.merged_rounds,
            unique_keys=len(self.flights),
            coalesced_hits=self.coalesced_hits,
            fair_requests=fair_requests,
            fair_bytes=fair_bytes,
        )
