"""The *Copy* baseline index (paper Sec. 2 / 4.2).

Stores a full snapshot at every distinct change time: direct access to any
snapshot (one delta read), at the cost of quadratic storage (``|G|²`` in
Table 1).  Version queries must read a whole snapshot per change point.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from repro.deltas.base import Delta
from repro.errors import TimeRangeError
from repro.graph.events import Event
from repro.graph.static import Graph
from repro.index.common import (
    advance_snapshot_delta,
    diff_states_to_events,
    static_node_from_graph,
)
from repro.index.interface import HistoricalGraphIndex, NodeHistory
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.cost import FetchStats
from repro.types import NodeId, TimePoint


class CopyIndex(HistoricalGraphIndex):
    """Snapshot-per-change-point index over the simulated cluster."""

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        placement_groups: int = 4,
    ) -> None:
        self.cluster = Cluster(cluster_config)
        self.placement_groups = placement_groups
        self._times: List[TimePoint] = []  # snapshot times, sorted
        self._keys: List[tuple] = []

    def build(self, events: Sequence[Event]) -> None:
        g = Graph()
        snap = Delta()  # the empty graph's
        idx = 0
        i = 0
        n = len(events)
        while i < n:
            t = events[i].time
            j = i
            while j < n and events[j].time == t:
                j += 1
            snap = advance_snapshot_delta(g, snap, events[i:j])
            i = j
            key = (0, idx % self.placement_groups, ("S", idx), 0)
            self.cluster.put(key, snap)
            self._times.append(t)
            self._keys.append(key)
            idx += 1

    def _index_at(self, t: TimePoint) -> int:
        if not self._times:
            raise TimeRangeError("index is empty")
        if t > self._times[-1]:
            raise TimeRangeError(
                f"time {t} beyond indexed history ({self._times[-1]})"
            )
        pos = bisect.bisect_right(self._times, t) - 1
        if pos < 0:
            raise TimeRangeError(f"time {t} precedes indexed history")
        return pos

    def retrieve_snapshot(
        self, t: TimePoint, clients: int = 1
    ) -> Tuple[Graph, FetchStats]:
        pos = self._index_at(t)
        values, stats = self.cluster.multiget([self._keys[pos]], clients=clients)
        delta: Delta = values[self._keys[pos]]
        return delta.to_graph(), stats

    def retrieve_node_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint, clients: int = 1
    ) -> Tuple[NodeHistory, FetchStats]:
        start = self._index_at(ts)
        end = self._index_at(te)
        keys = self._keys[start : end + 1]
        values, stats = self.cluster.multiget(keys, clients=clients)
        state = static_node_from_graph(values[keys[0]].to_graph(), node)
        events: List[Event] = []
        prev = state
        seq = 1 << 40  # synthetic seq space, disjoint from real events
        for pos in range(start + 1, end + 1):
            snap_graph = values[self._keys[pos]].to_graph()
            cur = static_node_from_graph(snap_graph, node)
            diff = diff_states_to_events(node, self._times[pos], prev, cur, seq)
            events.extend(diff)
            seq += len(diff) + 1
            prev = cur
        return NodeHistory(node, ts, te, state, tuple(events)), stats
