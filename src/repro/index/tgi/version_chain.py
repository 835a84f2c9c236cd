"""Version chains (paper Sec. 4.3c): per-node chronological pointers to the
eventlist rows holding that node's changes.

A node's chain is one row in the cluster (the ``Versions`` table), keyed
``(-1, hash(nid), ("V", nid), 0)``.  Each entry records the time range of
the node's events inside one eventlist partition plus that partition's
delta key, so a version query fetches exactly the rows it needs — the
``∑1 = |V| + 1`` cost of Table 1 (the ``+1`` is the chain row itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.kvstore.cluster import Cluster
from repro.index.tgi.layout import DeltaKey, version_chain_key
from repro.types import NodeId, TimePoint


@dataclass(frozen=True)
class VersionPointer:
    """One chain entry: the node has events in ``[t_min, t_max]`` inside
    the eventlist row at ``key``."""

    t_min: TimePoint
    t_max: TimePoint
    key: DeltaKey


class VersionChainStore:
    """Builder + accessor for version-chain rows."""

    def __init__(self, cluster: Cluster, placement_groups: int) -> None:
        self._cluster = cluster
        self._placement_groups = placement_groups
        self._pending: Dict[NodeId, List[VersionPointer]] = {}
        self._flushed: Dict[NodeId, int] = {}  # entries already persisted

    # -- build side ------------------------------------------------------
    def record(
        self, node: NodeId, t_min: TimePoint, t_max: TimePoint, key: DeltaKey
    ) -> None:
        """Append a pointer for ``node`` (build-time accumulation)."""
        self._pending.setdefault(node, []).append(
            VersionPointer(t_min, t_max, key)
        )

    def flush(self) -> List[DeltaKey]:
        """Write/rewrite the chain rows that gained pointers since the
        last flush (used both at initial build and on batch update).

        Returns the keys whose stored content actually changed, so the
        index can invalidate exactly those cached rows instead of
        clearing the whole delta cache — a chain without new pointers is
        skipped (its row is already stored with identical content)."""
        changed: List[DeltaKey] = []
        for node, entries in self._pending.items():
            if self._flushed.get(node) == len(entries):
                continue
            entries.sort(key=lambda p: (p.t_min, p.t_max))
            key = version_chain_key(node, self._placement_groups)
            self._cluster.put(key, tuple(entries))
            self._flushed[node] = len(entries)
            changed.append(key)
        # pending doubles as the authoritative in-memory copy so updates
        # can extend chains without re-reading rows
        return changed

    # -- query side --------------------------------------------------------
    def has_chain(self, node: NodeId) -> bool:
        """Whether a chain row for ``node`` exists in the store."""
        return node in self._flushed

    def pointers_in_range(
        self,
        chain: Tuple[VersionPointer, ...],
        ts: TimePoint,
        te: TimePoint,
    ) -> List[DeltaKey]:
        """Delta keys whose entries overlap the query interval ``(ts, te]``,
        deduplicated, in chain order."""
        seen = set()
        keys: List[DeltaKey] = []
        for ptr in chain:
            if ptr.t_max <= ts or ptr.t_min > te:
                continue
            if ptr.key not in seen:
                seen.add(ptr.key)
                keys.append(ptr.key)
        return keys
