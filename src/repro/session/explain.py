"""EXPLAIN, a mixin base of :class:`~repro.session.GraphSession`: the
planner's dry plan and its estimate, without fetching or touching a
cache counter.  Reads the session's ``tgi`` and ``planner``."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api import QueryRequest
from repro.errors import StorageError
from repro.exec import FetchPlan
from repro.index.tgi import price_plan
from repro.kvstore.cost import ExecutionTimeline
from repro.session.pricing import history_window


class SessionExplain:
    """Mixin base of ``GraphSession``: EXPLAIN."""

    def _plan_for(self, request: QueryRequest) -> FetchPlan:
        """The dry plan EXPLAIN prints for a non-k-hop request (execution
        prices the plan it compiles instead): its executed plan's stages
        as the planner lists them from metadata — a lone subject's
        Algorithm 2 plan (a ``khop_history`` is its center's), else the
        deduplicated batched plan of the population."""
        if request.kind == "snapshot":
            return self.planner.plan_snapshot(request.t)
        ts, te = history_window(request)
        if request.single or request.kind != "node_histories":
            return self.planner.plan_node_history(request.nodes[0], ts, te)
        return self.planner.plan_node_histories(request.nodes, ts, te)

    def explain(self, request: QueryRequest) -> str:
        """The retrieval plan and its cost estimate, without fetching.

        The plan printed (``FetchPlan.describe``) is the one pricing
        used: the planner's :class:`~repro.exec.plan.FetchPlan`, whose
        stages are those the executed plan resolves to.  For k-hop
        requests the output also lists every priced candidate's
        predicted cost and which one ``auto`` would pick (snapshot-first
        alone, with a note saying why, when it reads no store row); the
        executor's round timeline, one round per stage, closes the
        report.
        """
        chosen: Optional[str] = None
        candidates: Dict[str, float] = {}
        candidate_notes: Dict[str, List[str]] = {}
        if request.kind == "khop":
            # the pricing pass planned every candidate: print its choice
            chosen, candidates, candidate_notes, plan = (
                self._choose_khop(request)
            )
            if plan is None:
                # a lone center unknown at t: the planner says so
                plan = self.planner.plan_khop(
                    request.nodes[0], request.t, k=request.k
                )
        else:
            plan = self._plan_for(request)

        lines = [plan.describe()]
        keys = plan.pricing_keys()
        timeline: List[str] = []
        try:
            est = price_plan(self.tgi.cluster, keys, clients=request.clients)
            timeline.append(self._timeline_estimate(plan, request.clients))
            lines.append(
                f"estimate: {len(keys)} requests, "
                f"~{est:.2f} sim-ms as one sequential round"
            )
        except StorageError as exc:
            # a placement with no live replica: execution settles that at
            # fetch time (see _safe_price), so the plan still explains
            lines.append(f"estimate: unpriceable ({exc})")
        if candidates:
            ranked = ", ".join(
                f"{name}={ms:.2f} sim-ms"
                for name, ms in sorted(candidates.items(),
                                       key=lambda kv: kv[1])
            )
            lines.append(f"candidates: {ranked} -> {chosen}")
            # per-candidate verdicts: why each plan priced as it did and,
            # for the losers, the margin it was rejected on
            best = candidates.get(chosen)
            for name, ms in sorted(candidates.items(),
                                   key=lambda kv: kv[1]):
                if name == chosen:
                    verdict = "chosen"
                elif best is not None:
                    verdict = f"rejected (+{ms - best:.2f} sim-ms vs {chosen})"
                else:
                    verdict = "rejected"
                lines.append(f"  - {name}: {ms:.2f} sim-ms — {verdict}")
                for note in candidate_notes.get(name, []):
                    lines.append(f"      note: {note}")
        return "\n".join(lines + timeline)

    def _timeline_estimate(self, plan: FetchPlan, clients: int) -> str:
        """Lay the plan's stages on an :class:`ExecutionTimeline`, one
        multiget round per stage (a later stage depends on the earlier
        ones' data) — overlap accrues only across concurrent plans, never
        within one query's dependency chain.  A round holds the stage's
        priced keys that no earlier round fetched, so the timeline agrees
        with the printed estimate: over a statistics-backed expected key
        set rather than the worst-case sound bound, and with a key two
        stages name fetched once, as the executor does."""
        unfetched = dict.fromkeys(plan.pricing_keys())
        timeline = ExecutionTimeline(self.tgi.cluster.config.cost_model)
        at = 0.0
        for stage in plan.stages:
            keys = [key for key in stage.keys() if key in unfetched]
            if not keys:
                continue
            for key in keys:
                del unfetched[key]
            timing = timeline.submit(
                self.tgi.cluster.plan_records(keys, clients=clients), at=at
            )
            at = timing.completed_ms
        return timeline.describe()
