"""TGI construction parameters (paper Sec. 4.4, "Construction and Update").

The paper names these: timespan length ``ts`` (in events), number of
horizontal partitions ``ns``, likely datastore node count ``m``, eventlist
size ``l``, and micro-delta partition size ``psize``; plus the dynamic
partitioning strategy of Sec. 4.5 (random vs. locality-aware, with a
time-collapse function and optional 1-hop edge-cut replication).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import IndexError_
from repro.kvstore.cluster import ClusterConfig
from repro.partitioning.temporal import CollapseFunction, NodeWeighting


class PartitioningStrategy(enum.Enum):
    """Micro-delta partitioning strategy (paper Sec. 4.5)."""

    RANDOM = "random"
    MINCUT = "mincut"


@dataclass(frozen=True)
class TGIConfig:
    """Tunable parameters of a Temporal Graph Index.

    Attributes:
        events_per_timespan: target number of events per timespan; the
            locality partitioning is recomputed at every span boundary.
        eventlist_size: events per eventlist (``l``); checkpoints (tree
            leaves) are taken at eventlist boundaries.
        micro_partition_size: target node count per micro-delta (``ps``).
        arity: fan-out of the temporal-compression tree.
        placement_groups: number of horizontal placement groups (``ns``).
        partitioning: random hash vs. locality-aware min-cut micro-deltas.
        replicate_boundary: store auxiliary micro-deltas replicating each
            partition's cut neighbors (speeds up 1-hop fetches, Fig. 5d).
        collapse: time-collapse function Ω for dynamic partitioning.
        node_weighting: node-weight option for dynamic partitioning.
        delta_cache_entries: capacity of the query manager's LRU cache of
            decoded rows (0 disables caching, reproducing uncached fetch
            counts exactly; cached fetches report hit/miss counters in
            their ``FetchStats``).
        checkpoint_entries: capacity of the materialized-state checkpoint
            cache — fully-replayed partition states / snapshot graphs
            keyed ``(timespan, partition, time)`` and shared between
            readers (immutable once admitted), so warm queries skip the
            delta/event replay entirely (0 disables
            checkpoints, reproducing replay-from-root accounting exactly).
        cluster: shape of the backing key-value cluster (``m``, ``r``,
            compression, cost model, row checksums).
    """

    events_per_timespan: int = 4000
    eventlist_size: int = 250
    micro_partition_size: int = 100
    arity: int = 2
    placement_groups: int = 4
    partitioning: PartitioningStrategy = PartitioningStrategy.RANDOM
    replicate_boundary: bool = False
    collapse: CollapseFunction = CollapseFunction.UNION_MAX
    node_weighting: NodeWeighting = NodeWeighting.UNIFORM
    delta_cache_entries: int = 0
    checkpoint_entries: int = 0
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    def __post_init__(self) -> None:
        if self.events_per_timespan < 1:
            raise IndexError_("events_per_timespan must be positive")
        if self.eventlist_size < 1:
            raise IndexError_("eventlist_size must be positive")
        if self.eventlist_size > self.events_per_timespan:
            raise IndexError_(
                "eventlist_size cannot exceed events_per_timespan"
            )
        if self.micro_partition_size < 1:
            raise IndexError_("micro_partition_size must be positive")
        if self.arity < 2:
            raise IndexError_("tree arity must be at least 2")
        if self.placement_groups < 1:
            raise IndexError_("placement_groups must be positive")
        if self.delta_cache_entries < 0:
            raise IndexError_("delta_cache_entries cannot be negative")
        if self.checkpoint_entries < 0:
            raise IndexError_("checkpoint_entries cannot be negative")
