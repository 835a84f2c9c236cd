"""TGIHandler: the bridge between TAF and the TGI cluster (paper Fig. 10).

The handler owns a TGI connection plus a Spark context and implements the
parallel-fetch protocol: the node universe is split across the analytics
cluster's partitions, each partition fetches its share of temporal nodes
directly from the store (no aggregation bottleneck at the query manager),
and the simulated fetch time is the makespan over the analytics workers.
Both sets read node histories only: a SoN partition its nodes', a SoTS
partition its centers' members, level by level (the edge attributes at
``ts`` come from the same history plans' replayed partition states).
A fetch is accounted in :class:`ParallelFetchStats`: the store's
:class:`~repro.kvstore.cost.Counters` folded in per chunk fetch, plus
that schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exec import FetchPlan, collector_paused
from repro.index.interface import neighbor_intervals
from repro.index.tgi.index import TGI
from repro.kvstore.cost import Counters, FetchStats
from repro.spark.rdd import SparkContext, lpt_makespan
from repro.taf.node_t import NodeT, SubgraphT
from repro.types import NodeId, TimePoint


@dataclass
class ParallelFetchStats(Counters):
    """Accounting for one parallel SoN/SoTS fetch: the
    :class:`~repro.kvstore.cost.Counters` plus the fetch's store volume
    and its schedule over the analytics workers.

    ``partition_sim_ms`` holds the simulated store-side latency incurred by
    each analytics partition; the fetch completes at the LPT makespan over
    the Spark workers (plus nothing else — the direct worker↔store protocol
    avoids a master bottleneck, Fig. 10).  When the partitions' plans ran
    on one shared execution timeline (the SoN path), ``pipelined_ms``
    carries the timeline makespan and overrides the LPT schedule (the
    per-plan completion times in ``partition_sim_ms`` already overlap)."""

    partition_sim_ms: List[float] = field(default_factory=list)
    num_workers: int = 1
    requests: int = 0
    bytes_read: int = 0
    pipelined_ms: Optional[float] = None

    @property
    def sim_time_ms(self) -> float:
        if self.pipelined_ms is not None:
            return self.pipelined_ms
        return lpt_makespan(self.partition_sim_ms, self.num_workers)

    def absorb(self, fetch: FetchStats) -> None:
        """Fold one store-side fetch into the aggregate: its counters and
        its volume.  Completion time is not a counter (callers place it
        on ``partition_sim_ms`` / ``pipelined_ms``)."""
        self.add(fetch)
        self.requests += fetch.num_requests
        self.bytes_read += fetch.bytes_read


class TGIHandler:
    """Connection handle used by SoN/SoTS (``TGIHandler(tgiconf, name, sc)``
    in the paper's listings; here it wraps a built :class:`TGI` directly).

    .. deprecated::
        Direct construction is the legacy wiring path.  Prefer
        :class:`repro.session.GraphSession` / ``open_graph``, which owns
        the handler, shares the cross-index delta cache, and prices plans
        before fetching.

    ``retrieve_*`` return ``(result, ParallelFetchStats)`` and are what
    ``SON`` / ``SOTS`` call; ``fetch_*`` is ``retrieve_*(...)[0]``.

    Args:
        tgi: the temporal graph index to fetch from.
        spark_context: analytics cluster (worker count drives the
            simulated parallel-fetch makespan).
        clients_per_partition: TGI fetch clients each partition uses.
    """

    def __init__(
        self,
        tgi: TGI,
        spark_context: Optional[SparkContext] = None,
        clients_per_partition: int = 1,
    ) -> None:
        self.tgi = tgi
        self.sc = spark_context or SparkContext()
        self.clients_per_partition = clients_per_partition

    # ------------------------------------------------------------------
    def known_nodes(
        self, ts: TimePoint, te: TimePoint
    ) -> List[NodeId]:
        """All node ids alive at any point overlapping ``[ts, te]``."""
        out: Set[NodeId] = set()
        for span in self.tgi._spans:
            if span.t_end <= ts or span.t_start > te:
                continue
            out.update(span.node_pid)
        return sorted(out)

    def history_range(self) -> Tuple[TimePoint, TimePoint]:
        if self.tgi._t_min is None or self.tgi._t_max is None:
            raise ValueError("TGI is empty")
        return self.tgi._t_min, self.tgi._t_max

    def _chunks(self, ids: Sequence[NodeId]) -> List[List[NodeId]]:
        """``ids`` dealt round-robin over the analytics partitions (the
        non-empty ones)."""
        parts = self.sc.parallelize(ids).num_partitions
        chunks: List[List[NodeId]] = [[] for _ in range(parts)]
        for i, nid in enumerate(ids):
            chunks[i % parts].append(nid)
        return [chunk for chunk in chunks if chunk]

    # ------------------------------------------------------------------
    def fetch_node_histories(
        self, node_ids: Sequence[NodeId], ts: TimePoint, te: TimePoint
    ) -> List[NodeT]:
        return self.retrieve_node_histories(node_ids, ts, te)[0]

    @collector_paused
    def retrieve_node_histories(
        self, node_ids: Sequence[NodeId], ts: TimePoint, te: TimePoint
    ) -> Tuple[List[NodeT], ParallelFetchStats]:
        """Parallel fetch of temporal nodes (the SoN data path).

        Each analytics partition issues one *batched* history fetch for
        its whole chunk (:meth:`TGI._node_histories_plan`), so a partition
        costs O(1) store rounds instead of O(nodes), and all chunk plans
        go through a single :meth:`PlanExecutor.execute_many` call: the
        chunks' 2-round plans overlap on one shared execution timeline —
        the async-client model of Fig. 10 — instead of running strictly
        one after another."""
        tgi = self.tgi
        stats = ParallelFetchStats(num_workers=self.sc.num_workers)
        compiled = [
            tgi._node_histories_plan(chunk, ts, te)
            for chunk in self._chunks(node_ids)
        ]
        pipelined = tgi.executor.execute_many(
            [plan for plan, _finalize, _extra in compiled],
            clients=self.clients_per_partition,
        )
        out: List[NodeT] = []
        for one, result in zip(compiled, pipelined.results):
            out.extend(
                NodeT(h)
                for h in tgi._finish(one, result.values, pipelined.stats)
            )
            # per-plan attribution: when this chunk's plan completed
            # on the shared timeline
            stats.partition_sim_ms.append(result.stats.sim_time_ms)
        stats.absorb(pipelined.stats)
        stats.pipelined_ms = pipelined.stats.sim_time_ms
        return out, stats

    # ------------------------------------------------------------------
    def fetch_subgraph(
        self, center: NodeId, k: int, ts: TimePoint, te: TimePoint
    ) -> Optional[SubgraphT]:
        """One temporal k-hop subgraph — the batch of one (``None`` for
        a center that exists at no point of ``[ts, te]``; fetching its
        history still cost a fetch)."""
        out = self.fetch_subgraphs([center], k, ts, te)
        return out[0] if out else None

    def fetch_subgraphs(
        self,
        centers: Sequence[NodeId],
        k: int,
        ts: TimePoint,
        te: TimePoint,
    ) -> List[SubgraphT]:
        return self.retrieve_subgraphs(centers, k, ts, te)[0]

    @collector_paused
    def retrieve_subgraphs(
        self,
        centers: Sequence[NodeId],
        k: int,
        ts: TimePoint,
        te: TimePoint,
    ) -> Tuple[List[SubgraphT], ParallelFetchStats]:
        """Parallel fetch of temporal subgraphs (the SoTS data path).

        Each analytics chunk is driven through the shared-frontier
        batched path (:meth:`_fetch_subgraph_batch`): one plan per chunk,
        whose every BFS level fetches the whole chunk's frontier in one
        batched history plan, so the chunk costs O(levels) rounds instead
        of O(centers · levels).
        """
        total = ParallelFetchStats(num_workers=self.sc.num_workers)
        out: List[SubgraphT] = []
        for chunk in self._chunks(centers):
            subgraphs, fetch = self._fetch_subgraph_batch(chunk, k, ts, te)
            total.absorb(fetch)
            total.partition_sim_ms.append(fetch.sim_time_ms)
            out.extend(sg for sg in subgraphs if sg is not None)
        return out, total

    def _fetch_subgraph_batch(
        self,
        centers: Sequence[NodeId],
        k: int,
        ts: TimePoint,
        te: TimePoint,
    ) -> Tuple[List[Optional[SubgraphT]], FetchStats]:
        """Whole-chunk SoTS fetch on the shared frontier: one plan, the
        temporal-member BFS.  Each hop fetches the union of every
        center's new frontier nodes in one batched history plan (levels
        grow the plan dynamically via factories).  The levels' replayed
        partition states at ``ts`` hold the attributes of every edge
        touching a fetched node, which gives each subgraph the
        attributed edges among its members alive at ``ts``.

        Member discovery is level-wise *over time*: starting from the
        center, each hop adds every node that is a neighbor at any point
        during ``[ts, te]`` (Algorithm 5's step,
        :func:`~repro.index.interface.neighbor_intervals`), so the
        SubgraphT covers the neighborhood as it evolves;
        ``get_version_at`` prunes back to the exact k-hop members at
        each queried time.
        """
        tgi = self.tgi
        order = list(dict.fromkeys(centers))
        histories: Dict[NodeId, NodeT] = {}
        edge_attrs: Dict[Tuple[NodeId, NodeId], dict] = {}
        members: Dict[NodeId, Set[NodeId]] = {c: {c} for c in order}
        frontier: Dict[NodeId, Set[NodeId]] = {c: {c} for c in order}

        plan = FetchPlan(
            f"subgraph-histories({len(order)} centers, k={k}, "
            f"ts={ts}, te={te})"
        )

        extra = Counters()  # what the level finalizers add to the fetch

        def add_level(nodes: List[NodeId], hops_done: int) -> None:
            """Append one batched history fetch for ``nodes`` plus the
            factory that records the results and expands further hops."""
            level = tgi._node_histories_plan(nodes, ts, te, edge_attrs)
            plan.stages.extend(level[0].stages)

            def expand(values: Dict) -> None:
                for nid, history in zip(
                    nodes, tgi._finish(level, values, extra)
                ):
                    histories[nid] = NodeT(history)
                hop = hops_done
                while hop < k:
                    hop += 1
                    fetch: Set[NodeId] = set()
                    for c in order:
                        nbrs: Set[NodeId] = set()
                        for nid in frontier[c]:
                            nbrs.update(n for n, _s, _e in neighbor_intervals(
                                histories[nid].history
                            ))
                        cand = nbrs - members[c]
                        members[c] |= cand
                        frontier[c] = cand
                        fetch |= cand
                    new = sorted(n for n in fetch if n not in histories)
                    if new:
                        add_level(new, hop)
                        return None
                    if not any(frontier.values()):
                        return None
                return None

            plan.add_factory(expand)

        add_level(list(order), 0)
        pipelined = tgi.executor.execute_many(
            [plan], clients=self.clients_per_partition
        )
        pipelined.stats.add(extra)

        subgraphs: Dict[NodeId, Optional[SubgraphT]] = {}
        for center in order:
            hood = {nid: histories[nid] for nid in members[center]}
            alive = {
                nid: nt.history.initial for nid, nt in hood.items()
                if nt.history.initial is not None
            }
            if center not in alive and not hood[center].events:
                subgraphs[center] = None
                continue
            subgraphs[center] = SubgraphT(center, k, hood, {
                (u, v): dict(attrs) for (u, v), attrs in edge_attrs.items()
                if u in alive and v in alive and v in alive[u].E
            })
        return [subgraphs[c] for c in centers], pipelined.stats
