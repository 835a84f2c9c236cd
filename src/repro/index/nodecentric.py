"""The vertex-centric baseline index (paper Sec. 4.2).

One row per node holding that node's complete chronological change list,
with edge events replicated to both endpoints.  Version retrieval is
optimal (one delta, ``|C|`` cost in Table 1); snapshot retrieval must read
every node's row (``2|G|`` size, ``|N|`` deltas).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import IndexError_, TimeRangeError
from repro.graph.events import Event, dedup_sorted
from repro.graph.static import Graph
from repro.index.interface import HistoricalGraphIndex, NodeHistory
from repro.index.interface import evolve_node_state, _fold_node_history
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.cost import FetchStats
from repro.partitioning.random_part import hash_partition
from repro.types import NodeId, TimePoint


class NodeCentricIndex(HistoricalGraphIndex):
    """Per-node history rows over the simulated cluster."""

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        placement_groups: int = 4,
    ) -> None:
        self.cluster = Cluster(cluster_config)
        self.placement_groups = placement_groups
        self._nodes: List[NodeId] = []
        self._t_max: Optional[TimePoint] = None

    def _key(self, node: NodeId) -> tuple:
        return (0, hash_partition(node, self.placement_groups), ("V", node), 0)

    def build(self, events: Sequence[Event]) -> None:
        per_node: Dict[NodeId, List[Event]] = {}
        for ev in events:
            for entity in set(ev.entities):
                per_node.setdefault(entity, []).append(ev)
        for node, evs in per_node.items():
            self.cluster.put(self._key(node), tuple(evs))
        self._nodes = sorted(per_node)
        if events:
            self._t_max = events[-1].time

    def _check_time(self, t: TimePoint) -> None:
        if self._t_max is None:
            raise TimeRangeError("index is empty")
        if t > self._t_max:
            raise TimeRangeError(f"time {t} beyond indexed history ({self._t_max})")

    def retrieve_snapshot(
        self, t: TimePoint, clients: int = 1
    ) -> Tuple[Graph, FetchStats]:
        self._check_time(t)
        keys = [self._key(n) for n in self._nodes]
        values, stats = self.cluster.multiget(keys, clients=clients)
        merged = dedup_sorted(
            ev for evs in values.values() for ev in evs if ev.time <= t
        )
        return Graph.replay(merged, until=t), stats

    def retrieve_node_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint, clients: int = 1
    ) -> Tuple[NodeHistory, FetchStats]:
        self._check_time(te)
        key = self._key(node)
        values, stats = self.cluster.multiget([key], clients=clients)
        return _fold_node_history(node, ts, te, values[key]), stats

    def retrieve_khop(
        self, node: NodeId, t: TimePoint, k: int = 1, clients: int = 1
    ) -> Tuple[Graph, FetchStats]:
        """Targeted k-hop: fetch the root's row, then expand frontier rows
        (the natural vertex-centric analogue of paper Algorithm 4)."""
        self._check_time(t)
        fetched: Dict[NodeId, Tuple[Event, ...]] = {}
        total = FetchStats()

        def fetch(nodes: List[NodeId]) -> None:
            keys = [self._key(n) for n in nodes if n not in fetched]
            if not keys:
                return
            values, stats = self.cluster.multiget(keys, clients=clients)
            total.merge(stats)
            for key, evs in values.items():
                fetched[key[2][1]] = evs

        def state_of(n: NodeId):
            state = None
            for ev in fetched.get(n, ()):
                if ev.time > t:
                    break
                state = evolve_node_state(state, ev, n)
            return state

        fetch([node])
        root_state = state_of(node)
        if root_state is None:
            raise IndexError_(f"node {node} not alive at t={t}")
        members: Set[NodeId] = {node}
        frontier = set(root_state.E)
        for _ in range(k):
            frontier -= members
            if not frontier:
                break
            fetch(sorted(frontier))
            members |= frontier
            nxt: Set[NodeId] = set()
            for n in frontier:
                st = state_of(n)
                if st is not None:
                    nxt |= st.E
            frontier = nxt

        merged = dedup_sorted(
            ev
            for n in members
            for ev in fetched.get(n, ())
            if ev.time <= t
        )
        full = Graph.replay(merged, until=t)
        return full.subgraph(members & set(full.nodes())), total
