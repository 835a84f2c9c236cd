"""Plan execution: minimum multiget rounds + one FetchStats thread.

The executor is the single place retrieval touches the cluster.  Each
resolved stage becomes at most one ``multiget`` round (keys a cache can
answer never reach the store), so a plan's round count equals its number
of non-empty stages — independent of how many logical consumers (nodes,
partitions) contributed keys to a stage.

Two schedules, and no others:

- :meth:`PlanExecutor.execute` runs one plan's stages strictly in
  sequence; the plan's ``sim_time_ms`` is the sum of its rounds (plus the
  apply cost of each stage, when the cost model prices apply work).
- :meth:`PlanExecutor.execute_many` runs *independent* plans — one or
  many — pipelined on one shared
  :class:`~repro.kvstore.cost.ExecutionTimeline` through a
  :class:`~repro.exec.coalesce.CoalesceScope`: per scheduling window every
  unfinished plan resolves its next stage, keys several stages name are
  fetched once, and the window's keys go out as one merged multiget
  released as soon as its owners' previous rounds completed — so one
  plan's fetch overlaps the others' rounds and apply work, the simulated
  analogue of Cassandra's async client drivers.

When the cost model carries nonzero apply constants
(:attr:`~repro.kvstore.cost.CostModel.costs_apply`), each stage is charged
a client-side *apply* cost — payload decode per fetched row plus replay
per delta component / event — reported as ``FetchStats.apply_ms``.  In
pipelined mode a stage's apply runs on a per-plan local lane of the shared
timeline, released the instant the stage's payload arrived, so it overlaps
the *next* fetch round of the same plan (resolving the next stage's keys
needs only the decoded rows, not the fully replayed state) as well as the
other plans' rounds.  With apply constants at 0 (the default) every number
is bit-identical to fetch-only accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.cancellation import check_cancelled
from repro.exec.cache import DeltaCache
from repro.exec.coalesce import (
    CoalesceReport,
    CoalesceScope,
    admit_fetched,
    _replay_items,
    serve_cached,
)
from repro.exec.plan import FetchPlan, FetchStage, KeyGroup, KeyTuple
from repro.kvstore.cluster import Cluster
from repro.kvstore.cost import ExecutionTimeline, FetchStats
from repro.obs.trace import current_span, use_span


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
    round completed on the shared timeline, and its ``overlap_saved_ms``
    is that plan's sequential cost minus its completion time.  ``stats``
    aggregates all plans — its ``sim_time_ms`` is the timeline makespan.

    A pipelined execution carries its ``timeline`` and the
    :class:`~repro.exec.coalesce.CoalesceReport` (merged-round counts and
    fair per-plan request/byte attribution); the aggregate ``stats``'
    ``rounds`` then counts rounds actually *issued* (a merged round once),
    while each per-plan ``rounds`` counts the rounds that plan
    participated in.  Both are ``None`` when the plans ran sequentially.
    """

    results: List[PlanResult]
    stats: FetchStats
    timeline: Optional[ExecutionTimeline] = None
    coalesce: Optional[CoalesceReport] = None


class _PlanCursor:
    """Progress of one plan inside a pipelined execution."""

    def __init__(self, plan: FetchPlan, index: int) -> None:
        self.plan = plan
        self.index = index  # position among the in-flight plans
        self.result = PlanResult()
        self.pos = 0  # next entry in plan.stages
        self.ready_at = 0.0  # timeline instant the last round completed
        self.apply_done = 0.0  # timeline instant the apply lane drains
        self.standalone_ms = 0.0  # sequential cost (rounds + apply) so far

    @property
    def done(self) -> bool:
        return self.pos >= len(self.plan.stages)


class PlanExecutor:
    """Runs :class:`FetchPlan` objects against a cluster, optionally
    short-circuiting reads through a :class:`DeltaCache`.

    Without a cache the executor issues exactly the plan's keys (stage by
    stage), reproducing the uncached fetch counts of the inline code it
    replaced; with a cache, hits are served locally and show up in the
    returned stats as ``cache_hits`` / ``cache_bytes_saved``.
    """

    def __init__(
        self, cluster: Cluster, cache: Optional[DeltaCache] = None
    ) -> None:
        self.cluster = cluster
        self.cache = cache

    def execute(self, plan: FetchPlan, clients: int = 1) -> PlanResult:
        result = PlanResult()
        pos = 0
        # index-based so a factory may append further entries to the plan
        # while it runs (dynamic plans: e.g. a BFS whose depth is data-
        # dependent)
        while pos < len(plan.stages):
            check_cancelled()
            entry = plan.stages[pos]
            pos += 1
            stage = entry if isinstance(entry, FetchStage) else entry(
                result.values
            )
            if stage is None:
                continue
            result.stages.append(stage)
            apply_ms = self._run_stage(stage, clients, result)
            # sequential execution replays each stage before fetching the
            # next, so apply time adds to the completion time
            result.stats.sim_time_ms += apply_ms
        return result

    def execute_many(
        self,
        plans: Sequence[FetchPlan],
        clients: int = 1,
        pipelined: bool = True,
    ) -> PipelineResult:
        """Execute independent plans, overlapped or sequentially.

        Pipelined mode advances the plans in scheduling windows, one
        stage each per window: keys several stages name — across plans,
        or in two stages of one — are fetched once (single-flight dedup,
        ``coalesced_hits``), and the window's keys are issued as one
        merged multiget, released on the shared timeline at the instant
        its owning plans' previous rounds completed, so it overlaps the
        other plans' in-flight rounds and apply work (factory resolution
        costs no simulated time).  All values are identical to sequential
        execution; the fetched key set is the *union* of the plans' key
        sets instead of their concatenation.  With a *bounded* cache the
        interleaved schedule changes the LRU lookup/eviction order, so
        hit counts — and, past capacity, which keys reach the store — can
        differ between the two modes.
        """
        if not pipelined:
            results = [self.execute(plan, clients) for plan in plans]
            total = FetchStats()
            for r in results:
                total.merge(r.stats)
            return PipelineResult(results, total)

        timeline = ExecutionTimeline(self.cluster.config.cost_model)
        cursors = [_PlanCursor(plan, i) for i, plan in enumerate(plans)]
        scope = CoalesceScope(self.cluster, self.cache, len(plans))
        while any(not c.done for c in cursors):
            check_cancelled()
            window = scope.begin_window()
            for cursor in cursors:
                if cursor.done:
                    continue
                stage = self._resolve_entry(cursor)
                if stage is not None:
                    scope.admit_stage(window, cursor, stage)
            scope.flush_window(window, clients, timeline)

        total = FetchStats()
        for cursor in cursors:
            stats = cursor.result.stats
            done = max(cursor.ready_at, cursor.apply_done)
            stats.overlap_saved_ms = cursor.standalone_ms - done
            stats.sim_time_ms = done
            total.merge_concurrent(stats, timeline.makespan_ms)
        # per-plan attributions are signed and don't sum to the schedule-
        # level win; the aggregate reports the timeline's
        total.overlap_saved_ms = timeline.overlap_saved_ms
        # per-plan rounds count participation; the aggregate counts what
        # actually hit the store (a merged round exactly once)
        total.rounds = scope.rounds_issued
        total.merged_rounds = scope.merged_rounds
        return PipelineResult(
            [c.result for c in cursors], total, timeline,
            scope.report(len(plans)),
        )

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

    # ------------------------------------------------------------------
    def _resolve_entry(self, cursor: _PlanCursor) -> Optional[FetchStage]:
        """Resolve one plan entry (factories against the plan's own
        values) and record it; ``None`` for a factory that declined."""
        entry = cursor.plan.stages[cursor.pos]
        cursor.pos += 1
        stage = entry if isinstance(entry, FetchStage) else entry(
            cursor.result.values
        )
        if stage is not None:
            cursor.result.stages.append(stage)
        return stage

    def _run_stage(
        self, stage: FetchStage, clients: int, result: PlanResult
    ) -> float:
        """Run one stage of a sequential plan into ``result``; returns
        the stage's client-side apply cost (0 under a fetch-only model)."""
        model = self.cluster.config.cost_model
        keys = stage.keys()
        parent = current_span()
        stage_span = None
        if parent is not None:
            stage_span = parent.child(
                "stage", label=getattr(stage, "label", None), keys=len(keys),
            )
        missing, apply_ms = serve_cached(self.cache, model, keys, result)
        if stage_span is not None and self.cache is not None:
            stage_span.set(
                cache_hits=len(keys) - len(missing),
                cache_misses=len(missing),
            )
        if not missing:
            result.stats.apply_ms += apply_ms
            if stage_span is not None:
                stage_span.set(
                    served_from="cache", apply_ms=round(apply_ms, 6)
                ).end()
            return apply_ms
        if stage_span is None:
            values, stats = self.cluster.multiget(missing, clients=clients)
        else:
            # nest this stage's store rounds under the stage span
            with use_span(stage_span):
                values, stats = self.cluster.multiget(missing, clients=clients)
        result.values.update(values)
        result.stats.merge(stats)
        if model.costs_apply:
            for record in stats.requests:
                apply_ms += model.apply_time(
                    record.raw_bytes, _replay_items(values[record.key])
                )
        result.stats.apply_ms += apply_ms
        admit_fetched(self.cache, stats.requests, values)
        if stage_span is not None:
            stage_span.set(
                requests=len(stats.requests),
                bytes=stats.bytes_read,
                rounds=stats.rounds,
                apply_ms=round(apply_ms, 6),
            ).end()
        return apply_ms
