"""K-hop plans of the Temporal Graph Index (Algorithm 4).

:class:`KHopPlans` is a mixin base of :class:`~repro.index.tgi.index.TGI`
holding the shared-frontier k-hop plan builder, the statistics' frontier
bound the planner prices it with, and the error for a dead center.  It
reads the index's ``config``, ``stats`` and ``_span_at``.  The frontier
bound is a function of the build's statistics alone, so it does not
depend on which queries ran before it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import IndexError_, PartitionUnavailable
from repro.exec import FetchPlan, FetchStage
from repro.graph.static import Graph
from repro.index.tgi.layout import DeltaKey, TimespanInfo
from repro.index.tgi.query import ReplayShare
from repro.index.tgi.states import (
    Compiled,
    PartitionStates,
    _charge_dropped,
)
from repro.kvstore.cost import Counters
from repro.kvstore.degrade import active_partial
from repro.stats.model import KhopEstimate, expected_khop_pids
from repro.types import NodeId, TimePoint


class KHopPlans:
    """Mixin base of ``TGI``: Algorithm-4 plans and their frontier bound."""

    def _stats_frontier(
        self, span: TimespanInfo, pid0: int, k: int
    ) -> Optional[Tuple[Set[int], KhopEstimate]]:
        """The statistics' bound on a ``k``-hop starting in ``pid0``: the
        sound partition set (within ``k`` levels of ``pid0`` in the
        boundary-cut adjacency) and the frontier model's expected subset
        of it.  ``None`` under boundary replication, which changes the
        fetch shape."""
        if self.config.replicate_boundary:
            return None
        span_stats = self.stats.spans[span.tsid]
        bound = {
            pid for pid in span_stats.reachable_pids(pid0, k)
            if pid < span.num_pids
        }
        return bound, expected_khop_pids(span_stats, pid0, k, bound)

    def _dead_center(self, node: NodeId, t: TimePoint) -> Exception:
        """The error for a k-hop center without a state at ``t``: the
        node is not alive — unless the active partial scope dropped the
        center's own partition, which is an availability failure, not a
        missing node."""
        span = self._span_at(t)
        collector = active_partial()
        label = f"ts{span.tsid}:p{span.pid_of(node)}"
        if collector is not None and label in collector.partitions:
            return PartitionUnavailable(
                f"partition of node {node} unavailable at t={t}",
                partitions=(label,),
            )
        return IndexError_(f"node {node} not alive at t={t}")

    def _khops_plan(
        self,
        centers: Sequence[NodeId],
        t: TimePoint,
        k: int,
        share: Optional[ReplayShare] = None,
    ) -> Compiled:
        """Build the shared-frontier k-hop plan plus a finalizer mapping
        the executed values to one graph per input center.

        The plan has one static stage (the centers' own partitions) and
        ``k`` factory stages; factory ``h`` applies the rows hop ``h - 1``
        fetched, advances every center's frontier, and emits one stage
        with the union of the still-missing micro-partition keys across
        all centers.  Checkpointed partitions are seeded directly into the
        merged state and never reach the plan; the returned counters
        record those hits (and the cold misses) for the caller's stats.

        ``share`` is the execution's :class:`ReplayShare`, handed to the
        plan's :class:`PartitionStates` loader: a stage replays only the
        partitions no batchmate has replayed yet and counts the rest as
        ``coalesced_replays``.  Members and frontiers stay the plan's
        own, like the loader's ``loaded`` / ``covered`` / ``dropped``, so
        it declares and fetches exactly the keys it would alone and
        reads the shared state only inside its *own* covered scope.
        Without a ``share`` the plan makes its own (same code, nothing to
        skip).

        The loader's ``only`` is what the plan reads: the alive centers,
        then every center's candidates at each hop, covered or not.  A
        loader nobody checkpoints or shares — this plan alone on its
        ``share``'s state, checkpoints off — replays only those nodes,
        growing stage by stage; a shared or checkpointing loader replays
        whole partitions."""
        span = self._span_at(t)
        order = list(dict.fromkeys(centers))
        alive0 = [c for c in order if span.pid_of(c) is not None]
        plan = FetchPlan(f"khops({len(order)} centers, t={t}, k={k})")
        extra = Counters()

        # the loader's ``only``; ``advance`` widens it in place
        reads = set(alive0)
        states = PartitionStates(
            self, span, t, self.config.replicate_boundary, extra, share,
            only=reads,
        )
        merged, covered = states.merged, states.covered
        members: Dict[NodeId, Set[NodeId]] = {}
        frontier: Dict[NodeId, Set[NodeId]] = {}
        # per center, frontier candidates awaiting the alive-at-t filter
        candidates: Dict[NodeId, Set[NodeId]] = {}
        started = [False]
        hop = [0]

        def settle(values: Dict[DeltaKey, object]) -> None:
            """Fold the fetched partitions into the merged state, then
            resolve which of the last hop's candidates are alive at
            ``t``."""
            states.settle(values)
            nodes = merged.nodes
            if not started[0]:
                started[0] = True
                for c in alive0:
                    if c in covered and c in nodes:
                        members[c] = {c}
                        frontier[c] = {c}
            else:
                for c, cand in candidates.items():
                    alive = {
                        n for n in cand if n in covered and n in nodes
                    }
                    members[c] |= alive
                    frontier[c] = alive
                candidates.clear()

        def advance(values: Dict[DeltaKey, object]) -> Optional[FetchStage]:
            settle(values)
            hop[0] += 1
            nodes = merged.nodes
            needed: Set[NodeId] = set()
            for c, front in frontier.items():
                cand: Set[NodeId] = set()
                for n in front:
                    cand |= nodes[n].E
                cand -= members[c]
                candidates[c] = cand
                reads.update(cand)
                needed |= cand - covered
            pids = {span.pid_of(n) for n in needed}
            pids.discard(None)
            return states.stage(pids, f"khop-frontier-{hop[0]}")

        init = states.stage(
            {span.pid_of(c) for c in alive0}, "khop-frontier-0"
        )
        if init is not None:
            plan.stages.append(init)
        for _ in range(k):
            plan.add_factory(advance)

        def finalize(
            values: Dict[DeltaKey, object],
        ) -> List[Optional[Graph]]:
            settle(values)
            # factory stages settle mid-execution — under a *batch*
            # window scope when coalesced — so a degraded fetch's drop
            # already happened silently: fail a strict request typed
            # here (a k-hop with a lost frontier partition would
            # otherwise return a smaller graph with no error) and charge
            # an allow_partial one
            _charge_dropped(states.dropped, "k-hop expansion")
            graphs = {
                c: merged.to_graph(members[c]) for c in members
            }
            return [graphs.get(c) for c in centers]

        return plan, finalize, extra
