"""Plan execution: minimum multiget rounds + one FetchStats thread.

The executor is the single place retrieval touches the cluster.  Each
resolved stage becomes at most one ``multiget`` round (keys a cache can
answer never reach the store), so a plan's round count equals its number
of non-empty stages — independent of how many logical consumers (nodes,
partitions) contributed keys to a stage.

There is one schedule.  :meth:`PlanExecutor.execute_many` advances its
plans on one :class:`~repro.kvstore.cost.ExecutionTimeline` through a
:class:`~repro.exec.coalesce.CoalesceScope`: per scheduling window every
unfinished plan resolves its next stage, a key any earlier stage already
fetched is served from that flight, and the window's keys go out as one
merged multiget released as soon as its owners' previous rounds
completed — so one plan's fetch overlaps the others' rounds and apply
work, the simulated analogue of Cassandra's async client drivers.
:meth:`PlanExecutor.execute` is that loop over a plan of its own; with
nothing to overlap, its ``sim_time_ms`` is the sum of its rounds.

When the cost model carries nonzero apply constants
(:attr:`~repro.kvstore.cost.CostModel.costs_apply`), each stage is charged
a client-side *apply* cost — payload decode per fetched row plus replay
per delta component / event — reported as ``FetchStats.apply_ms``.  A
stage's apply runs on a per-plan local lane of the timeline, released the
instant the stage's payload arrived, so it overlaps the *next* fetch
round of the same plan (resolving the next stage's keys needs only the
decoded rows, not the fully replayed state) as well as the other plans'
rounds.  With apply constants at 0 (the default) every number is
bit-identical to fetch-only accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence

from repro.cancellation import check_cancelled
from repro.exec.cache import DeltaCache
from repro.exec.coalesce import CoalesceReport, CoalesceScope
from repro.exec.plan import FetchPlan, FetchStage, KeyGroup, KeyTuple
from repro.kvstore.cluster import Cluster
from repro.kvstore.cost import ExecutionTimeline, FetchStats


@dataclass
class PlanResult:
    """Outcome of one executed plan (values, merged stats, and the
    stages that actually ran — factory stages resolved)."""

    values: Dict[KeyTuple, Any] = field(default_factory=dict)
    stats: FetchStats = field(default_factory=FetchStats)
    stages: List[FetchStage] = field(default_factory=list)


@dataclass
class PipelineResult:
    """Outcome of :meth:`PlanExecutor.execute_many`.

    ``results`` holds one :class:`PlanResult` per input plan, with
    per-plan attribution: its ``sim_time_ms`` is when *that plan's* last
    round (or apply) completed on the timeline, its ``overlap_saved_ms``
    that plan's standalone cost minus its completion time, and its
    ``rounds`` the rounds it owned keys in.

    ``timeline`` and ``scope`` are the one shared schedule.  The
    aggregates are derived on first read, so a caller that wants one
    plan's result (:meth:`PlanExecutor.execute`) never pays for them:
    ``stats`` sums every plan — its ``sim_time_ms`` is the makespan and
    its ``rounds`` counts rounds actually *issued* (a merged round once);
    ``coalesce`` is the :class:`~repro.exec.coalesce.CoalesceReport`
    (merged-round counts and fair per-plan request/byte attribution).
    """

    results: List[PlanResult]
    timeline: ExecutionTimeline
    scope: CoalesceScope = field(repr=False)

    @cached_property
    def stats(self) -> FetchStats:
        total = FetchStats()
        makespan = self.timeline.makespan_ms
        for result in self.results:
            total.merge_concurrent(result.stats, makespan)
        # per-plan attributions are signed and don't sum to the schedule-
        # level win; the aggregate reports the timeline's
        total.overlap_saved_ms = self.timeline.overlap_saved_ms
        # per-plan rounds count participation; the aggregate counts what
        # actually hit the store (a merged round exactly once)
        total.rounds = self.scope.rounds_issued
        total.merged_rounds = self.scope.merged_rounds
        return total

    @cached_property
    def coalesce(self) -> CoalesceReport:
        return self.scope.report(len(self.results))


class _PlanCursor:
    """Progress of one plan inside an execution."""

    __slots__ = (
        "plan", "index", "result", "pos", "ready_at", "apply_done",
        "standalone_ms",
    )

    def __init__(self, plan: FetchPlan, index: int) -> None:
        self.plan = plan
        self.index = index  # position among the in-flight plans
        self.result = PlanResult()
        self.pos = 0  # next entry in plan.stages
        self.ready_at = 0.0  # timeline instant the last round completed
        self.apply_done = 0.0  # timeline instant the apply lane drains
        self.standalone_ms = 0.0  # cost of its rounds + apply run alone


class PlanExecutor:
    """Runs :class:`FetchPlan` objects against a cluster, optionally
    short-circuiting reads through a :class:`DeltaCache`.

    Without a cache the executor issues each key the plans name once;
    with a cache, hits are served locally and show up in the returned
    stats as ``cache_hits`` / ``cache_bytes_saved``.
    """

    def __init__(
        self, cluster: Cluster, cache: Optional[DeltaCache] = None
    ) -> None:
        self.cluster = cluster
        self.cache = cache

    def execute(self, plan: FetchPlan, clients: int = 1) -> PlanResult:
        return self.execute_many([plan], clients).results[0]

    def execute_many(
        self,
        plans: Sequence[FetchPlan],
        clients: int = 1,
    ) -> PipelineResult:
        """Execute independent plans together on one timeline.

        The plans advance in scheduling windows, one stage each per
        window: keys several stages name — across plans, or in two stages
        of one — are fetched once (single-flight dedup,
        ``coalesced_hits``), and the window's keys are issued as one
        merged multiget, released on the shared timeline at the instant
        its owning plans' previous rounds completed, so it overlaps the
        other plans' in-flight rounds and apply work (factory resolution
        costs no simulated time).  Values are those of running each plan
        through :meth:`execute`, back to back; the fetched key set is the
        *union* of the plans' key sets instead of their concatenation.
        With a *bounded* cache the interleaved schedule changes the LRU
        lookup/eviction order, so hit counts — and, past capacity, which
        keys reach the store — can differ from that serial loop.
        """
        timeline = ExecutionTimeline(self.cluster.config.cost_model)
        cursors = [_PlanCursor(plan, i) for i, plan in enumerate(plans)]
        scope = CoalesceScope(self.cluster, self.cache, len(plans))
        live = [c for c in cursors if c.plan.stages]
        while live:
            check_cancelled()
            window = scope.begin_window()
            for cursor in live:
                # factories resolve against the plan's own values
                entry = cursor.plan.stages[cursor.pos]
                cursor.pos += 1
                stage = entry if isinstance(entry, FetchStage) else entry(
                    cursor.result.values
                )
                if stage is not None:
                    cursor.result.stages.append(stage)
                    scope.admit_stage(window, cursor, stage)
            scope.flush_window(window, clients, timeline)
            # index-based: a factory may append further entries to its
            # plan while it runs (a BFS whose depth is data-dependent)
            live = [c for c in live if c.pos < len(c.plan.stages)]
        for cursor in cursors:
            stats = cursor.result.stats
            done = max(cursor.ready_at, cursor.apply_done)
            stats.overlap_saved_ms = cursor.standalone_ms - done
            stats.sim_time_ms = done
        return PipelineResult([c.result for c in cursors], timeline, scope)

    def fetch(
        self,
        keys: Sequence[KeyTuple],
        clients: int = 1,
        label: str = "fetch",
        role: str = "rows",
    ) -> PlanResult:
        """Convenience: execute a single-stage plan over ``keys``."""
        plan = FetchPlan(label)
        plan.add_stage(label, KeyGroup(role, tuple(keys)))
        return self.execute(plan, clients=clients)
