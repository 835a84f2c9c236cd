"""Query planning and EXPLAIN for TGI retrievals.

The paper's Query Manager "translates instructions into an optimal
retrieval plan" before touching the store (Sec. 5.2, Data Fetch).  This
module makes those plans first-class and inspectable: given a query, it
produces the exact delta keys that would be fetched, grouped by purpose
(tree path, eventlists, version chains, auxiliaries), with a cost estimate
from the cluster's cost model — without reading any data.

Useful for regression-testing access paths (the benchmarks assert on
fetched-delta counts) and for understanding why a query is cheap or
expensive, exactly like a relational EXPLAIN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import IndexError_
from repro.index.tgi.layout import DeltaKey, version_chain_key
from repro.index.tgi.states import _state_key, near_seed_candidate, triage
from repro.index.tgi.version_chain import pointers_in_range
from repro.kvstore.cost import simulate_plan
from repro.types import NodeId, TimePoint


@dataclass(frozen=True)
class PlanStep:
    """One group of keys fetched for one purpose.

    ``chained`` marks a step whose keys depend on data from the preceding
    steps (e.g. version-pointed eventlists resolved from the chain row),
    so the executor must issue it as a separate, later multiget round;
    unchained steps all coalesce into the first round.
    """

    purpose: str
    keys: Tuple[DeltaKey, ...]
    chained: bool = False

    @property
    def num_keys(self) -> int:
        return len(self.keys)


@dataclass
class QueryPlan:
    """An inspectable retrieval plan.

    ``notes`` carries planner remarks that are not key groups — e.g. how
    many partitions a warm :class:`~repro.exec.cache.StateCheckpointCache`
    seeds without fetching.

    ``expected_keys``, when set, is the *expected-cost* key set derived
    from the build-time statistics (the frontier-growth model of
    :func:`repro.stats.model.expected_khop_pids`): a subset of the sound
    bound in ``steps`` that pricing and cost-based selection use.  The
    steps stay the safe superset — what the fetch may read in the worst
    case — while ``expected_keys`` is what it is *expected* to read."""

    query: str
    steps: List[PlanStep] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    expected_keys: Optional[Tuple[DeltaKey, ...]] = None

    @property
    def num_keys(self) -> int:
        return sum(step.num_keys for step in self.steps)

    def add_step(
        self, purpose: str, keys: Iterable[DeltaKey], chained: bool = False
    ) -> None:
        """Append a step fetching ``keys`` (none: no step)."""
        keys = tuple(keys)
        if keys:
            self.steps.append(PlanStep(purpose, keys, chained))

    def all_keys(self) -> List[DeltaKey]:
        return [k for step in self.steps for k in step.keys]

    def pricing_keys(self) -> List[DeltaKey]:
        """Keys cost estimation should price: the statistics-backed
        expected set when one exists, else the full (sound) bound."""
        if self.expected_keys is not None:
            return list(self.expected_keys)
        return self.all_keys()

    @classmethod
    def union(cls, query: str, subs: Sequence["QueryPlan"]) -> "QueryPlan":
        """The deduplicated union of ``subs`` — what one fetch shared by
        all of them reads.  Steps of one purpose (and chaining) merge in
        first-seen order and a key an earlier step already holds is
        dropped; the expected key set is the union of every sub's, or
        ``None`` unless all of them (and at least one) carry one.  Notes
        are the caller's to carry over."""
        plan = cls(query=query)
        merged: Dict[Tuple[str, bool], List[DeltaKey]] = {}
        seen: Set[DeltaKey] = set()
        expected: Dict[DeltaKey, None] = {}
        for sub in subs:
            for step in sub.steps:
                bucket = merged.setdefault((step.purpose, step.chained), [])
                for key in step.keys:
                    if key not in seen:
                        seen.add(key)
                        bucket.append(key)
            expected.update(dict.fromkeys(sub.expected_keys or ()))
        plan.steps = [
            PlanStep(purpose, tuple(keys), chained=chained)
            for (purpose, chained), keys in merged.items()
        ]
        if subs and all(sub.expected_keys is not None for sub in subs):
            plan.expected_keys = tuple(expected)
        return plan

    def placements(self) -> Set[Tuple]:
        """Distinct placement keys the plan touches (parallelism bound)."""
        return {k[:2] for k in self.all_keys()}

    def explain(self) -> str:
        """Human-readable plan summary."""
        lines = [f"QueryPlan[{self.query}]  "
                 f"({self.num_keys} deltas, {len(self.placements())} placements)"]
        for step in self.steps:
            lines.append(f"  - {step.purpose}: {step.num_keys} deltas")
            preview = ", ".join(repr(k) for k in step.keys[:3])
            if step.keys:
                suffix = ", ..." if step.num_keys > 3 else ""
                lines.append(f"      {preview}{suffix}")
        if self.expected_keys is not None:
            lines.append(
                f"  expected: {len(self.expected_keys)} of "
                f"{self.num_keys} deltas (stats frontier bound; "
                f"pricing uses the expected set)"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def price_plan(cluster, plan: Union[QueryPlan, Sequence[DeltaKey]],
               clients: int = 1,
               shared_keys: Optional[Set[DeltaKey]] = None) -> float:
    """Cost-model estimate (sim-ms) of fetching a plan's keys in one
    sequential round, without reading any data.

    This is the store-side half of an EXPLAIN — ``Cluster.plan_records``
    routes and prices every key exactly as ``multiget`` would, and
    :func:`~repro.kvstore.cost.simulate_plan` applies the two-sided
    client/server bound.  Plans whose chained steps force extra rounds are
    priced slightly low (round boundaries don't change total service
    time, only add latency), which is fine for *comparing* candidates.

    When the cost model prices client-side apply work, the estimate also
    charges each key's decode-plus-replay time (replay volume proxied
    from the raw payload size, since nothing has been decoded yet), so
    candidate comparison sees the same apply costs execution will report.

    Plans carrying a statistics-backed expected key set are priced on
    that set (the expected cost), not the sound worst-case bound — see
    :attr:`QueryPlan.expected_keys`.

    ``shared_keys`` is the batched-execution shared-context discount:
    keys an already-chosen concurrent plan will fetch anyway are priced
    at zero, because coalesced execution fetches them exactly once — so
    ``auto`` selection can anticipate the dedup when choosing per-request
    algorithms for a multi-center batch.
    """
    keys = plan.pricing_keys() if isinstance(plan, QueryPlan) else list(plan)
    if shared_keys:
        keys = [key for key in keys if key not in shared_keys]
    records = cluster.plan_records(keys, clients=clients)
    model = cluster.config.cost_model
    estimate = simulate_plan(records, model)
    if model.costs_apply:
        estimate += sum(
            model.estimated_apply_time(r.raw_bytes) for r in records
        )
    return estimate


class TGIPlanner:
    """Builds :class:`QueryPlan` objects against a built :class:`TGI`."""

    def __init__(self, tgi) -> None:
        self.tgi = tgi

    # ------------------------------------------------------------------
    def _state_steps(
        self, plan: QueryPlan, span, pids: Set[int], t: TimePoint,
        include_aux: bool,
    ) -> None:
        """Append to ``plan`` the steps fetching the states of ``pids``
        at ``t`` — the triage an executing plan runs, read without
        perturbing the checkpoint cache (pricing must not touch hit
        counters), so plans match what execution does: nothing for a
        checkpointed partition, the gap eventlists for a near-seeded
        one, the root→leaf micro path and trailing eventlists for the
        rest."""
        warm, near, cold = triage(self.tgi, span, pids, t, include_aux)
        if warm:
            plan.notes.append(
                f"{len(warm)} partitions checkpoint-seeded"
            )
        path_groups, ekeys = self.tgi._snapshot_plan(
            span, t, pids=set(cold), include_aux=include_aux
        )
        plan.add_step(
            "partition micro paths",
            (key for group in path_groups for key in group),
        )
        plan.add_step("partition eventlists", ekeys)
        plan.add_step(
            "near-gap eventlists",
            (key for seed in near.values() for key in seed[1]),
        )
        if near:
            plan.notes.append(
                f"{len(near)} partitions near-seeded from earlier "
                f"checkpoints (gap replay only)"
            )

    def plan_snapshot(self, t: TimePoint) -> QueryPlan:
        """Plan Algorithm 1 (GetSnapshot).

        A warm materialized-snapshot checkpoint answers the query without
        any fetch, so the plan prices (near) zero — which is exactly what
        cost-based selection should see for the warm path."""
        span = self.tgi._span_at(t)
        plan = QueryPlan(query=f"snapshot(t={t})")
        cp = self.tgi.checkpoints
        if cp is not None and cp.peek(_state_key(span.tsid, None, t, False)):
            plan.notes.append(
                "materialized snapshot checkpoint is warm: no fetch"
            )
            return plan
        seed = near_seed_candidate(self.tgi, span, None, t, False)
        if seed is not None:
            t0, gap_keys = seed
            plan.steps.append(
                PlanStep("snapshot near-gap eventlists", tuple(gap_keys))
            )
            plan.notes.append(
                f"snapshot near-seeded from materialized checkpoint at "
                f"t0={t0}: gap replay ({t0}, {t}] only"
            )
            return plan
        path_groups, ekeys = self.tgi._snapshot_plan(span, t)
        path_keys = tuple(k for group in path_groups for k in group)
        plan.steps.append(PlanStep("derived-snapshot path", path_keys))
        plan.steps.append(PlanStep("trailing eventlists", tuple(ekeys)))
        return plan

    def plan_node_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint
    ) -> QueryPlan:
        """Plan Algorithm 2 (GetNodeHistory): targeted micros for the
        state at ``ts`` plus version-chain-resolved eventlist rows —
        :meth:`plan_node_histories` over one node."""
        plan = self.plan_node_histories([node], ts, te)
        plan.query = f"node_history(node={node}, ts={ts}, te={te})"
        return plan

    def plan_node_histories(
        self, nodes: Sequence[NodeId], ts: TimePoint, te: TimePoint
    ) -> QueryPlan:
        """Plan the batched Algorithm 2
        (:meth:`~repro.index.tgi.index.TGI.get_node_histories`): nodes
        sharing a micro-partition or an eventlist row contribute its
        keys once, which is exactly what the batched fetch reads."""
        tgi = self.tgi
        span = tgi._span_at(ts)
        plan = QueryPlan(
            query=f"node_histories({len(nodes)} nodes, ts={ts}, te={te})"
        )
        distinct = list(dict.fromkeys(nodes))
        self._state_steps(
            plan, span, {span.pid_of(n) for n in distinct} - {None}, ts, False
        )
        chained = [n for n in distinct if tgi._vc.has_chain(n)]
        plan.add_step("version chain", (
            version_chain_key(n, tgi.config.placement_groups)
            for n in chained
        ))
        plan.add_step(
            "version-pointed eventlists",
            dict.fromkeys(
                key for n in chained
                for key in pointers_in_range(tgi._vc.chain(n), ts, te)
            ),
            chained=True,
        )
        return plan

    def plan_khop(self, node: NodeId, t: TimePoint, k: int = 1) -> QueryPlan:
        """Plan Algorithm 4 (targeted k-hop).

        Planning a k-hop requires knowing the neighbors, which requires
        data; the planner uses the span's *collapsed* adjacency (the
        micro-partition map plus boundary metadata) to bound the partitions
        that could be touched, which is exactly the superset the fetch may
        read.

        Without boundary replication the node-level adjacency is not in
        the metadata, but the build-time statistics are: the sound bound
        becomes the partitions within ``k`` levels of the start partition
        in the boundary-cut adjacency graph, and on top of it the
        frontier-growth model picks an *expected* partition set
        (:attr:`QueryPlan.expected_keys`) that pricing uses — a real
        expected-cost estimate instead of the whole-span fallback.
        """
        span = self.tgi._span_at(t)
        pid0 = span.pid_of(node)
        if pid0 is None:
            raise IndexError_(f"node {node} unknown in timespan {span.tsid}")
        include_aux = self.tgi.config.replicate_boundary
        plan = QueryPlan(query=f"khop(node={node}, t={t}, k={k})")

        # bound the partitions that could be touched using metadata only
        pids: Set[int] = {pid0}
        expected_pids: Optional[Set[int]] = None
        stats_bound = self.tgi._stats_frontier(span, pid0, k)
        if include_aux:
            # with replication, hop h's neighbors live in the auxiliaries of
            # hop h-1's partitions; further pids come from boundary metadata
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
        elif stats_bound is not None:
            # sound bound: partitions within k cut-adjacency levels; the
            # frontier-growth model then selects the expected subset
            pids, est = stats_bound
            expected_pids = set(est.pids)
            note = (
                f"stats bound: expected {len(est.pids)}/{len(pids)} "
                f"partitions (frontier model reaches "
                f"~{est.reached_nodes:.0f} nodes)"
            )
            scale = self.tgi.frontier_margin_scale(k)
            if scale != 1.0:
                note += f"; learned margin x{scale:.2f}"
            plan.notes.append(note)
        else:
            # no statistics (pre-stats index object): the only safe bound
            # is every partition present in the span — the actual fetch
            # loads lazily and typically touches far fewer
            pids = set(range(span.num_pids))
        self._state_steps(plan, span, pids, t, include_aux)
        if expected_pids is not None:
            # warm partitions contribute no keys to either set
            plan.expected_keys = tuple(
                key for key in plan.all_keys() if key[3] in expected_pids
            )
        return plan

    def plan_khops(
        self, centers: Sequence[NodeId], t: TimePoint, k: int = 1
    ) -> QueryPlan:
        """Plan the shared-frontier batched k-hop
        (:meth:`~repro.index.tgi.index.TGI.get_khops`).

        The bound is the deduplicated union of every alive center's
        Algorithm-4 bound: partitions shared between neighborhoods appear
        once, which is exactly the saving the shared frontier realizes at
        fetch time.  Centers unknown in the timespan contribute nothing;
        if *no* center is alive the plan is empty rather than an error
        (``get_khops`` returns ``None`` per dead center).
        """
        subs: List[QueryPlan] = []
        for center in dict.fromkeys(centers):
            try:
                subs.append(self.plan_khop(center, t, k=k))
            except IndexError_:
                continue
        return self.union_khops(centers, t, k, subs)

    @staticmethod
    def union_khops(
        centers: Sequence[NodeId], t: TimePoint, k: int,
        subs: Sequence[QueryPlan],
    ) -> QueryPlan:
        """The :meth:`plan_khops` plan of ``centers`` from the
        :meth:`plan_khop` plans of its distinct alive ones (``subs``) —
        for a caller that planned each center already, to price it."""
        plan = QueryPlan.union(
            f"khops({len(centers)} centers, t={t}, k={k})", subs
        )
        for sub in subs:
            for note in sub.notes:
                if note not in plan.notes:
                    plan.notes.append(note)
        return plan
