"""Snapshot deltas and partitioned snapshots (paper Examples 4-5).

A snapshot delta is the state of the whole graph at a time point expressed
as a delta from the empty set.  A partitioned snapshot is the restriction of
a snapshot to a node partition, together with all edges incident on that
partition.  TGI never stores full snapshots — it stores *derived*
(differenced) partitioned snapshots — but the plain forms are needed by the
Copy and Copy+Log baselines and as intermediate values during construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List

from repro.deltas.base import Delta, StaticEdge, StaticNode
from repro.graph.static import Graph
from repro.types import NodeId, TimePoint


@dataclass(frozen=True)
class SnapshotDelta:
    """The full graph state at ``time`` as a delta from the empty graph."""

    time: TimePoint
    delta: Delta

    @staticmethod
    def of(g: Graph, time: TimePoint, node_centric: bool = False) -> "SnapshotDelta":
        return SnapshotDelta(time, Delta.from_graph(g, node_centric=node_centric))

    def to_graph(self, directed: bool = False) -> Graph:
        return self.delta.to_graph(directed=directed)

    @property
    def size(self) -> int:
        return self.delta.size


@dataclass(frozen=True)
class PartitionedSnapshot:
    """Restriction of a snapshot to partition ``partition_id``.

    Per paper Example 5, it contains the state of all nodes mapped to the
    partition at ``time`` plus every edge with at least one endpoint in the
    partition.
    """

    time: TimePoint
    partition_id: int
    delta: Delta

    @property
    def size(self) -> int:
        return self.delta.size


def partition_snapshot(
    snap: SnapshotDelta,
    assign: Callable[[NodeId], int],
    num_partitions: int,
) -> List[PartitionedSnapshot]:
    """Split a snapshot delta into per-partition snapshots.

    Node components go to their assigned partition; edge components are
    placed in the partitions of *both* endpoints (so each partition is
    self-contained for 1-hop structure, per Example 5).
    """
    node_buckets: List[List[StaticNode]] = [[] for _ in range(num_partitions)]
    edge_buckets: List[List[StaticEdge]] = [[] for _ in range(num_partitions)]
    for comp in snap.delta:
        if isinstance(comp, StaticNode):
            node_buckets[assign(comp.I)].append(comp)
        else:
            pids = {assign(comp.u), assign(comp.v)}
            for pid in pids:
                edge_buckets[pid].append(comp)
    out: List[PartitionedSnapshot] = []
    for pid in range(num_partitions):
        d = Delta(node_buckets[pid])
        for e in edge_buckets[pid]:
            d.put(e)
        out.append(PartitionedSnapshot(snap.time, pid, d))
    return out


def merge_partitioned_snapshots(
    parts: Iterable[PartitionedSnapshot], directed: bool = False
) -> Graph:
    """Reassemble a full snapshot graph from partitioned snapshots."""
    return Delta.sum(p.delta for p in parts).to_graph(directed=directed)


def split_delta(
    delta: Delta, max_nodes: int
) -> List[Delta]:
    """Split a delta into micro-deltas of at most ``max_nodes`` node
    components each (TGI parameter ``ps``); edges travel with the micro
    holding their lower-id endpoint (or either endpoint if only one is
    present).

    Micro-deltas are the unit of fetch in TGI: a node-centric query reads
    one micro-delta instead of a whole partitioned snapshot.
    """
    if max_nodes <= 0:
        raise ValueError("micro-delta size must be positive")
    nodes = sorted(
        (c for c in delta if isinstance(c, StaticNode)), key=lambda c: c.I
    )
    micros: List[Delta] = []
    owner: Dict[NodeId, int] = {}
    for i in range(0, len(nodes), max_nodes):
        chunk = nodes[i : i + max_nodes]
        micros.append(Delta(chunk))
        for c in chunk:
            owner[c.I] = len(micros) - 1
    if not micros:
        micros.append(Delta())
    for comp in delta:
        if isinstance(comp, StaticEdge):
            idx = owner.get(min(comp.u, comp.v))
            if idx is None:
                idx = owner.get(max(comp.u, comp.v), 0)
            micros[idx].put(comp)
    return micros
