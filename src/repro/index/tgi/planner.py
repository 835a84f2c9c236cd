"""Query planning and pricing for TGI retrievals.

The paper's Query Manager "translates instructions into an optimal
retrieval plan" before touching the store (Sec. 5.2, Data Fetch).  The
plans here are :class:`~repro.exec.plan.FetchPlan` objects assembled, off
the index's metadata and without perturbing any cache, by the helpers
the executable builders call:
:func:`~repro.index.tgi.states.partition_stage` over the same
:func:`~repro.index.tgi.states.triage`, ``TGI._snapshot_fetch`` and
:func:`~repro.index.tgi.history.pointer_stage`.
A dry plan has the stage labels, group roles and keys its executed plan
resolves to; only what execution learns from data is listed from
metadata here — the version-pointer round (from the stored chains) and a
k-hop's bound with the statistics' expected subset.  A session prices a
k-hop's candidates on them; EXPLAIN prints them.  :func:`price_plan`
prices a plan; ``FetchPlan.describe`` renders it for EXPLAIN.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Union

from repro.errors import IndexError_
from repro.exec import FetchPlan, FetchStage, KeyGroup
from repro.index.tgi.history import history_head, pointer_stage
from repro.index.tgi.layout import DeltaKey
from repro.index.tgi.states import (
    _state_key,
    near_seed_candidate,
    partition_stage,
    triage,
)
from repro.types import NodeId, TimePoint

#: Label of a k-hop plan's one stage: the bound on what its frontier
#: stages may fetch.
KHOP_BOUND = "khop-bound"


def price_plan(cluster, plan: Union[FetchPlan, Sequence[DeltaKey]],
               clients: int = 1,
               shared_keys: Optional[Set[DeltaKey]] = None) -> float:
    """Cost-model estimate (sim-ms) of fetching a plan's keys in one
    sequential round, without reading any data.

    ``Cluster.price`` routes every key as ``multiget`` would at the
    cluster's clock and applies the two-sided client/server bound of
    :func:`~repro.kvstore.cost.simulate_plan` to the routed rows' cards,
    building no request record.  A plan is priced on its
    :meth:`~FetchPlan.pricing_keys`: each distinct key once, as the
    executor fetches it, or the statistics-backed expected set.  Later
    stages' extra rounds only add latency, not service time, so such
    plans price slightly low — fine for *comparing* candidates.  When
    the cost model prices client-side apply work, each key's
    decode-plus-replay time (proxied from its raw payload size) is
    charged too, as execution will report it.

    ``shared_keys`` is the batched-execution shared-context discount:
    keys an already-chosen concurrent plan will fetch anyway are priced
    at zero, because coalesced execution fetches them exactly once — so
    ``auto`` selection can anticipate the dedup when choosing per-request
    algorithms for a multi-center batch.
    """
    keys = plan.pricing_keys() if isinstance(plan, FetchPlan) else list(plan)
    if shared_keys:
        keys = [key for key in keys if key not in shared_keys]
    return cluster.price(keys, clients=clients)


class TGIPlanner:
    """Builds priced :class:`FetchPlan` objects against a built
    :class:`TGI`."""

    def __init__(self, tgi) -> None:
        self.tgi = tgi

    # ------------------------------------------------------------------
    def _state_stage(
        self, plan: FetchPlan, span, pids: Set[int], t: TimePoint,
        include_aux: bool, label: str,
    ) -> Optional[FetchStage]:
        """The partition stage fetching the states of ``pids`` at ``t``
        — the triage an executing plan runs, read without perturbing the
        checkpoint cache (pricing must not touch hit counters) — noting
        on ``plan`` how many partitions checkpoints seed."""
        warm, near, cold = triage(self.tgi, span, pids, t, include_aux)
        if warm:
            plan.notes.append(f"{len(warm)} partitions checkpoint-seeded")
        if near:
            plan.notes.append(
                f"{len(near)} partitions near-seeded from earlier "
                f"checkpoints (gap replay only)"
            )
        return partition_stage(
            self.tgi, span, t, include_aux, label, near, cold
        )[0]

    def plan_snapshot(self, t: TimePoint) -> FetchPlan:
        """Plan Algorithm 1 (GetSnapshot).

        A warm materialized-snapshot checkpoint answers the query without
        any fetch, so the plan is empty and prices zero.  No Algorithm-4
        plan can beat or tie that, so under ``auto`` a k-hop takes an
        empty snapshot plan without planning Algorithm 4
        (``SessionPricing._choose_khop``)."""
        tgi = self.tgi
        span = tgi._span_at(t)
        cp = tgi.checkpoints
        if cp is not None and cp.peek(_state_key(span.tsid, None, t, False)):
            return FetchPlan(
                f"snapshot(t={t})",
                notes=["materialized snapshot checkpoint is warm: no fetch"],
            )
        seed = near_seed_candidate(tgi, span, None, t, False)
        plan = tgi._snapshot_fetch(span, t, seed)[0]
        if seed is not None:
            plan.notes.append(
                f"snapshot near-seeded from materialized checkpoint at "
                f"t0={seed[0]}: gap replay ({seed[0]}, {t}] only"
            )
        return plan

    def plan_node_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint
    ) -> FetchPlan:
        """Plan Algorithm 2 (GetNodeHistory): targeted micros for the
        state at ``ts`` plus version-chain-resolved eventlist rows —
        :meth:`plan_node_histories` over one node."""
        plan = self.plan_node_histories([node], ts, te)
        plan.query = f"node_history(node={node}, ts={ts}, te={te})"
        return plan

    def plan_node_histories(
        self, nodes: Sequence[NodeId], ts: TimePoint, te: TimePoint
    ) -> FetchPlan:
        """Plan the batched Algorithm 2
        (:meth:`~repro.index.tgi.index.TGI.get_node_histories`): the
        stages its executed plan resolves to, the pointer round read off
        the chains' metadata.  Nodes sharing a micro-partition or an
        eventlist row contribute its keys once, which is exactly what the
        batched fetch reads."""
        tgi = self.tgi
        span = tgi._span_at(ts)
        plan = FetchPlan(
            f"node_histories({len(nodes)} nodes, ts={ts}, te={te})"
        )
        distinct = list(dict.fromkeys(nodes))
        state = self._state_stage(
            plan, span, {span.pid_of(n) for n in distinct} - {None}, ts,
            False, "micros+chains",
        )
        plan.stages.append(
            history_head(state, tgi._chain_keys(distinct).values())
        )
        pointers = self.pointer_round(distinct, ts, te)
        if pointers is not None:
            plan.stages.append(pointers)
        return plan

    def pointer_round(
        self, nodes: Sequence[NodeId], ts: TimePoint, te: TimePoint
    ) -> Optional[FetchStage]:
        """The version-pointer round of ``nodes``' histories over
        ``[ts, te]``, read off the chains' metadata — the stage an
        executing history plan's factory resolves from the fetched chain
        rows (``None`` when their pointers select no row)."""
        return pointer_stage(map(self.tgi._vc.chain, nodes), ts, te)

    def plan_khop(self, node: NodeId, t: TimePoint, k: int = 1) -> FetchPlan:
        """Plan Algorithm 4 (targeted k-hop): one stage, the partition
        stage of every partition the frontier could reach — the superset
        of what the executed plan's stages fetch (its static stage is the
        center's own partition).

        With boundary replication hop ``h``'s neighbors live in the
        auxiliaries of hop ``h - 1``'s partitions and the bound follows
        the boundary metadata.  Without it the bound is the partitions
        within ``k`` levels of the start partition in the statistics'
        boundary-cut adjacency, and the frontier-growth model picks the
        *expected* subset (:attr:`FetchPlan.expected_keys`) pricing
        uses."""
        tgi = self.tgi
        span = tgi._span_at(t)
        pid0 = span.pid_of(node)
        if pid0 is None:
            raise IndexError_(f"node {node} unknown in timespan {span.tsid}")
        include_aux = tgi.config.replicate_boundary
        plan = FetchPlan(f"khop(node={node}, t={t}, k={k})")

        pids: Set[int] = {pid0}
        expected_pids: Optional[Set[int]] = None
        stats_bound = tgi._stats_frontier(span, pid0, k)
        if stats_bound is None:  # boundary replication
            frontier_pids = {pid0}
            for _ in range(max(0, k - 1)):
                nxt: Set[int] = set()
                for pid in frontier_pids:
                    for n in span.boundary.get(pid, frozenset()):
                        p = span.pid_of(n)
                        if p is not None:
                            nxt.add(p)
                nxt -= pids
                if not nxt:
                    break
                pids |= nxt
                frontier_pids = nxt
        else:
            # sound bound: partitions within k cut-adjacency levels; the
            # frontier-growth model then selects the expected subset
            pids, est = stats_bound
            expected_pids = set(est.pids)
            plan.notes.append(
                f"stats bound: expected {len(est.pids)}/{len(pids)} "
                f"partitions (frontier model reaches "
                f"~{est.reached_nodes:.0f} nodes)"
            )
        stage = self._state_stage(plan, span, pids, t, include_aux, KHOP_BOUND)
        if stage is not None:
            plan.stages.append(stage)
        if expected_pids is not None:
            # warm partitions contribute no keys to either set
            plan.expected_keys = tuple(
                key for group in (stage.groups if stage else ())
                for key in group.keys if key[3] in expected_pids
            )
        return plan

    def plan_khops(
        self, centers: Sequence[NodeId], t: TimePoint, k: int = 1
    ) -> FetchPlan:
        """Plan the shared-frontier batched k-hop
        (:meth:`~repro.index.tgi.index.TGI.get_khops`).

        The bound is the deduplicated union of every alive center's
        Algorithm-4 bound: partitions shared between neighborhoods appear
        once, which is exactly the saving the shared frontier realizes at
        fetch time.  Centers unknown in the timespan contribute nothing;
        if *no* center is alive the plan is empty rather than an error
        (``get_khops`` returns ``None`` per dead center).
        """
        subs: List[FetchPlan] = []
        for center in dict.fromkeys(centers):
            try:
                subs.append(self.plan_khop(center, t, k=k))
            except IndexError_:
                continue
        return self.union_khops(centers, t, k, subs)

    @staticmethod
    def union_khops(
        centers: Sequence[NodeId], t: TimePoint, k: int,
        subs: Sequence[FetchPlan],
    ) -> FetchPlan:
        """The :meth:`plan_khops` plan of ``centers`` from the
        :meth:`plan_khop` plans of its distinct alive ones (``subs``) —
        for a caller that planned each center already, to price it.

        Groups of one role merge in first-seen order of the non-empty
        ones, and a key an earlier group already holds is dropped; the
        expected key set is the union of every sub's, or ``None`` unless
        all of them (and at least one) carry one; notes merge in order,
        each once."""
        plan = FetchPlan(f"khops({len(centers)} centers, t={t}, k={k})")
        merged: Dict[str, List[DeltaKey]] = {}
        seen: Set[DeltaKey] = set()
        expected: Dict[DeltaKey, None] = {}
        for sub in subs:
            for stage in sub.stages:
                for group in stage.groups:
                    if not group.keys:
                        continue
                    bucket = merged.setdefault(group.role, [])
                    for key in group.keys:
                        if key not in seen:
                            seen.add(key)
                            bucket.append(key)
            expected.update(dict.fromkeys(sub.expected_keys or ()))
            for note in sub.notes:
                if note not in plan.notes:
                    plan.notes.append(note)
        if merged:
            plan.add_stage(KHOP_BOUND, *(
                KeyGroup(role, tuple(keys)) for role, keys in merged.items()
            ))
        if subs and all(sub.expected_keys is not None for sub in subs):
            plan.expected_keys = tuple(expected)
        return plan
