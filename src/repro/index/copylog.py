"""The *Copy+Log* baseline index (paper Sec. 2 / 4.2).

Full snapshots at periodic checkpoints plus eventlists covering the gaps:
snapshot retrieval reads one snapshot and the trailing eventlists
(``|S| + |E|`` in Table 1); storage is ``|G|²/|E|``.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from repro.deltas.base import Delta
from repro.deltas.columnar import (
    ColumnarEventList,
    check_packable,
    pack_eventlist,
)
from repro.deltas.eventlist import split_events_into_lists
from repro.errors import TimeRangeError
from repro.graph.events import Event, check_sorted
from repro.graph.static import Graph
from repro.index.common import advance_snapshot_delta, static_node_from_graph
from repro.index.interface import HistoricalGraphIndex, NodeHistory, _fold_node_history
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.cost import FetchStats
from repro.types import NodeId, TimePoint


class CopyLogIndex(HistoricalGraphIndex):
    """Checkpointed snapshots + eventlists over the simulated cluster.

    Args:
        eventlist_size: events per eventlist row (``l``).
        lists_per_checkpoint: how many eventlists between materialized
            snapshots (controls the copy/log trade-off).
    """

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        eventlist_size: int = 1000,
        lists_per_checkpoint: int = 4,
        placement_groups: int = 4,
    ) -> None:
        self.cluster = Cluster(cluster_config)
        self.eventlist_size = eventlist_size
        self.lists_per_checkpoint = lists_per_checkpoint
        self.placement_groups = placement_groups
        # checkpoint i: snapshot taken *before* eventlist i*k
        self._checkpoint_times: List[TimePoint] = []
        self._checkpoint_keys: List[tuple] = []
        self._list_meta: List[Tuple[TimePoint, TimePoint, tuple]] = []
        self._t_max: Optional[TimePoint] = None

    def build(self, events: Sequence[Event]) -> None:
        check_sorted(events)
        check_packable(events)
        lists = split_events_into_lists(list(events), self.eventlist_size)
        g = Graph()
        snap = Delta()  # the empty graph's
        since: List[Event] = []  # events after the last checkpoint
        t0 = events[0].time - 1 if events else 0
        for i, (ts, te, evs) in enumerate(lists):
            if i % self.lists_per_checkpoint == 0:
                cp_idx = len(self._checkpoint_times)
                cp_time = ts if i else t0
                key = (0, cp_idx % self.placement_groups, ("S", cp_idx), 0)
                snap = advance_snapshot_delta(g, snap, since)
                since = []
                self.cluster.put(key, snap)
                self._checkpoint_times.append(cp_time)
                self._checkpoint_keys.append(key)
            ekey = (0, i % self.placement_groups, ("E", i), 0)
            self.cluster.put(ekey, ColumnarEventList(pack_eventlist(ts, te, evs)))
            self._list_meta.append((ts, te, ekey))
            since.extend(evs)
        if events:
            self._t_max = events[-1].time

    def _checkpoint_at(self, t: TimePoint) -> int:
        if self._t_max is None:
            raise TimeRangeError("index is empty")
        if t > self._t_max:
            raise TimeRangeError(f"time {t} beyond indexed history ({self._t_max})")
        pos = bisect.bisect_right(self._checkpoint_times, t) - 1
        if pos < 0:
            raise TimeRangeError(f"time {t} precedes indexed history")
        return pos

    def _plan_snapshot_keys(self, t: TimePoint) -> Tuple[tuple, List[tuple]]:
        cp = self._checkpoint_at(t)
        cp_time = self._checkpoint_times[cp]
        ekeys = [
            key
            for (ts, _te, key) in self._list_meta
            if ts >= cp_time and ts < t
        ]
        return self._checkpoint_keys[cp], ekeys

    def retrieve_snapshot(
        self, t: TimePoint, clients: int = 1
    ) -> Tuple[Graph, FetchStats]:
        skey, ekeys = self._plan_snapshot_keys(t)
        values, stats = self.cluster.multiget([skey, *ekeys], clients=clients)
        delta: Delta = values[skey]
        g = delta.to_graph()
        for key in ekeys:
            el: ColumnarEventList = values[key]
            for ev in el:
                if ev.time > t:
                    break
                g.apply_event(ev)
        return g, stats

    def retrieve_node_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint, clients: int = 1
    ) -> Tuple[NodeHistory, FetchStats]:
        skey, ekeys_init = self._plan_snapshot_keys(ts)
        cp_time = self._checkpoint_times[self._checkpoint_at(ts)]
        ekeys_range = [
            key
            for (lts, lte, key) in self._list_meta
            if lte > ts and lts < te and key not in set(ekeys_init)
        ]
        keys = [skey, *ekeys_init, *ekeys_range]
        values, stats = self.cluster.multiget(keys, clients=clients)

        snap: Delta = values[skey]
        state = static_node_from_graph(snap.to_graph(), node)
        events = (
            ev for key in [*ekeys_init, *ekeys_range] for ev in values[key]
        )
        return _fold_node_history(
            node, ts, te, events, state, after=cp_time
        ), stats
