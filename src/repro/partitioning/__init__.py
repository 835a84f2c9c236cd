"""Graph partitioning: random hash, multilevel min-cut, temporal collapse.
(Edge-cut replication of a partition's boundary is done where the rows
are written: ``repro.index.tgi.build``.)"""

from repro.partitioning.base import Partitioner, Partitioning, edge_cut
from repro.partitioning.mincut import MinCutPartitioner
from repro.partitioning.random_part import RandomPartitioner, hash_partition
from repro.partitioning.temporal import (
    CollapseFunction,
    CollapsedGraph,
    NodeWeighting,
    collapse,
    partition_timespan,
    timespan_boundaries,
)

__all__ = [
    "Partitioner",
    "Partitioning",
    "edge_cut",
    "MinCutPartitioner",
    "RandomPartitioner",
    "hash_partition",
    "CollapseFunction",
    "CollapsedGraph",
    "NodeWeighting",
    "collapse",
    "partition_timespan",
    "timespan_boundaries",
]
