"""Partitioner interface and partitioning quality measures."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple

from repro.errors import PartitioningError
from repro.types import NodeId


@dataclass(frozen=True)
class Partitioning:
    """An assignment of node ids to ``k`` partitions."""

    num_partitions: int
    assignment: Mapping[NodeId, int]

    def __post_init__(self) -> None:
        for node, pid in self.assignment.items():
            if not (0 <= pid < self.num_partitions):
                raise PartitioningError(
                    f"node {node} assigned to invalid partition {pid}"
                )


def edge_cut(
    partitioning: Partitioning,
    edges: Iterable[Tuple[NodeId, NodeId]],
    weights: Optional[Mapping[Tuple[NodeId, NodeId], float]] = None,
) -> float:
    """Total (weighted) count of edges with endpoints in different
    partitions — the objective the paper's min-cut partitioner minimizes."""
    total = 0.0
    assign = partitioning.assignment
    for (u, v) in edges:
        pu, pv = assign.get(u), assign.get(v)
        if pu is None or pv is None or pu == pv:
            continue
        total += weights.get((u, v), 1.0) if weights else 1.0
    return total


class Partitioner(abc.ABC):
    """Strategy object producing a :class:`Partitioning` for a node set."""

    @abc.abstractmethod
    def partition(
        self,
        nodes: Iterable[NodeId],
        edges: Iterable[Tuple[NodeId, NodeId]],
        num_partitions: int,
        edge_weights: Optional[Mapping[Tuple[NodeId, NodeId], float]] = None,
        node_weights: Optional[Mapping[NodeId, float]] = None,
    ) -> Partitioning:
        """Assign each node to one of ``num_partitions`` partitions."""
