"""Pricing, a mixin base of :class:`~repro.session.GraphSession`: a
k-hop's two candidates priced on the planner's plans, every other kind
on the plan it compiled.  Reads the session's ``tgi`` and ``planner``."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.api import ALGO_AUTO, ALGO_KHOP, ALGO_SNAPSHOT_FIRST, QueryRequest
from repro.errors import IndexError_, StorageError
from repro.exec import FetchPlan
from repro.index.tgi import price_plan
from repro.obs.trace import current_span
from repro.types import TimePoint

#: Candidate preference on predicted-cost ties: the targeted algorithms'
#: bounds are conservative (the fetch loads partitions lazily and may
#: touch fewer), while snapshot-first's estimate is exact — so a tie goes
#: to the targeted plan.  A snapshot-first plan that names no key never
#: reaches this order: it touches no row, so nothing can touch fewer, and
#: ``auto`` takes it unpriced against Algorithm 4 (see ``_choose_khop``).
_TIE_ORDER = {ALGO_KHOP: 0, ALGO_SNAPSHOT_FIRST: 1}

#: EXPLAIN's note on a snapshot-first plan ``auto`` took without pricing
#: Algorithm 4.
FREE_SNAPSHOT_NOTE = (
    "Algorithm 4 not priced: snapshot-first reads no store row"
)


def history_window(request: QueryRequest) -> Tuple[TimePoint, TimePoint]:
    """The ``[ts, te]`` a node-state or node-history request reads: a
    node state is its node's history over ``[t, t]``."""
    if request.kind == "node_state":
        return request.t, request.t
    return request.ts, request.te


class SessionPricing:
    """Mixin base of ``GraphSession``: pricing and k-hop selection."""

    def _safe_price(
        self, plan_or_keys, clients: int,
        shared_keys: Optional[Set] = None,
    ) -> Optional[float]:
        """Price a plan, or ``None`` when the cluster cannot route it.

        Pricing walks every replica set at the cluster clock; with
        machines crashed then (fault injection, real failover) a
        placement may have no live replica and :meth:`Cluster.price`
        raises.  That must not kill the query at plan time — the fetch
        decides at fetch time whether the key recovers, reroutes,
        degrades, or fails typed — so dead placements simply make the
        candidate unpriceable."""
        try:
            return price_plan(
                self.tgi.cluster, plan_or_keys, clients=clients,
                shared_keys=shared_keys,
            )
        except StorageError:
            return None

    def _compiled_keys(
        self, request: QueryRequest, plan: FetchPlan
    ) -> List:
        """The keys a compiled snapshot or node-history plan is priced
        on, once each and in the planner's order: its static stages and,
        for a history, the pointer round its factory will resolve, read
        off the chains' metadata here rather than by the plan builder."""
        keys = plan.pricing_keys()
        if request.kind == "snapshot":
            return keys
        pointers = self.planner.pointer_round(
            request.nodes, *history_window(request)
        )
        if pointers is None:
            return keys
        return list(dict.fromkeys([*keys, *pointers.keys()]))

    def _choose_khop(
        self, request: QueryRequest,
        shared_keys: Optional[Set] = None,
    ) -> Tuple[
        str, Dict[str, float], Dict[str, List[str]], Optional[FetchPlan],
    ]:
        """Price the two k-hop candidates and resolve the algorithm.

        ``snapshot-first`` is priced on the snapshot plan, ``khop`` on the
        targeted bound: a lone center's plan, or for several centers the
        union of every alive one's (the shared frontier fetches it once;
        of no alive center, an empty plan, as ``get_khops`` answers).
        ``shared_keys`` is the batched-execution shared-context discount
        (see :func:`~repro.index.tgi.planner.price_plan`): keys an
        already-chosen concurrent plan will fetch anyway price at zero.

        Forced choices pass through; ``auto`` takes the cheapest priced
        candidate (ties break toward the targeted bound, see
        :data:`_TIE_ORDER`) on the model prices alone, so the choice
        depends on the index, the cache state and the request, not on
        what ran before.  The snapshot is planned first: under ``auto``, a
        snapshot plan that names no key (an exact materialized-snapshot
        checkpoint) reads no store row, so no Algorithm-4 plan can beat
        or tie it, and it is chosen at 0.0 with Algorithm 4 neither
        planned nor priced — the one candidate reported.  With no alive
        center to bound, or no priceable candidate (dead placements under
        fault injection), it runs Algorithm 4, which raises (or degrades)
        without fetching a full snapshot.  Returns the choice, the
        candidate prices (what callers report), each candidate's planner
        notes (why a plan prices the way it does: stats bounds,
        checkpoint seedings, warm snapshots), and the chosen candidate's
        plan — what it was priced on, what the batch discounts for later
        members and what EXPLAIN prints (``None`` for a lone center
        unknown at ``t``)."""
        snap_plan = self.planner.plan_snapshot(request.t)
        notes = {ALGO_SNAPSHOT_FIRST: list(snap_plan.notes)}
        if request.algorithm == ALGO_AUTO and snap_plan.num_keys == 0:
            notes[ALGO_SNAPSHOT_FIRST].append(FREE_SNAPSHOT_NOTE)
            candidates = {ALGO_SNAPSHOT_FIRST: 0.0}
            self._trace_pricing(ALGO_SNAPSHOT_FIRST, candidates)
            return ALGO_SNAPSHOT_FIRST, candidates, notes, snap_plan
        plans = {ALGO_SNAPSHOT_FIRST: snap_plan}
        subs: List[FetchPlan] = []
        khop_notes: List[str] = []
        for center in dict.fromkeys(request.nodes):
            try:
                sub = self.planner.plan_khop(center, request.t, k=request.k)
            except IndexError_:
                continue
            subs.append(sub)
            if sub.expected_keys is not None:
                khop_notes.append(
                    f"center {center}: expected "
                    f"{len(sub.expected_keys)}/{sub.num_keys} keys"
                )
            for note in sub.notes:
                if note not in khop_notes:
                    khop_notes.append(note)
        if not request.single:
            plans[ALGO_KHOP] = self.planner.union_khops(
                request.nodes, request.t, request.k, subs
            )
        elif subs:
            plans[ALGO_KHOP] = subs[0]
        if subs:
            notes[ALGO_KHOP] = khop_notes
        candidates: Dict[str, float] = {}
        for name in notes:
            price = self._safe_price(
                plans[name], request.clients, shared_keys=shared_keys
            )
            if price is not None:
                candidates[name] = price
        if request.algorithm != ALGO_AUTO:
            chosen = request.algorithm
        elif not subs or not candidates:
            chosen = ALGO_KHOP
        else:
            chosen = min(
                candidates,
                key=lambda name: (candidates[name], _TIE_ORDER[name]),
            )
        self._trace_pricing(chosen, candidates)
        return chosen, candidates, notes, plans.get(chosen)

    def _trace_pricing(
        self, chosen: str, candidates: Dict[str, float]
    ) -> None:
        """Attach a ``pricing`` span recording the candidate table and
        the choice (no-op unless this query is being traced)."""
        span = current_span()
        if span is not None:
            span.child(
                "pricing",
                chosen=chosen,
                candidates={k: round(v, 6) for k, v in candidates.items()},
            ).end()
