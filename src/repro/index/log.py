"""The *Log* baseline index (paper Sec. 2 / 4.2).

Stores nothing but eventlists: minimal space (``|G|`` in Table 1), but
every retrieval replays history from the beginning — snapshot cost
``Σ|∆| = |G|``, i.e. proportional to the number of changes ever made.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.deltas.columnar import (
    ColumnarEventList,
    check_packable,
    pack_eventlist,
)
from repro.deltas.eventlist import split_events_into_lists
from repro.errors import TimeRangeError
from repro.graph.events import Event, check_sorted
from repro.graph.static import Graph
from repro.index.interface import HistoricalGraphIndex, NodeHistory, _fold_node_history
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.cost import FetchStats
from repro.types import NodeId, TimePoint


class LogIndex(HistoricalGraphIndex):
    """Pure event-log index over the simulated key-value cluster.

    Args:
        cluster_config: shape of the backing store.
        eventlist_size: events per stored eventlist row (``l``).
        placement_groups: how many placement keys to spread rows over
          (``ns`` in the paper's notation).
    """

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        eventlist_size: int = 1000,
        placement_groups: int = 4,
    ) -> None:
        self.cluster = Cluster(cluster_config)
        self.eventlist_size = eventlist_size
        self.placement_groups = placement_groups
        # metadata: (ts, te, key) per eventlist, chronological
        self._lists: List[Tuple[TimePoint, TimePoint, tuple]] = []
        self._t_min: Optional[TimePoint] = None
        self._t_max: Optional[TimePoint] = None

    def build(self, events: Sequence[Event]) -> None:
        check_sorted(events)
        check_packable(events)
        lists = split_events_into_lists(list(events), self.eventlist_size)
        for i, (ts, te, evs) in enumerate(lists):
            key = (0, i % self.placement_groups, ("E", i), 0)
            self.cluster.put(key, ColumnarEventList(pack_eventlist(ts, te, evs)))
            self._lists.append((ts, te, key))
        if events:
            self._t_min = events[0].time
            self._t_max = events[-1].time

    def _check_time(self, t: TimePoint) -> None:
        if self._t_max is None:
            raise TimeRangeError("index is empty")
        if t > self._t_max:
            raise TimeRangeError(f"time {t} beyond indexed history ({self._t_max})")

    def _fetch_lists_until(
        self, t: TimePoint, clients: int
    ) -> Tuple[List[ColumnarEventList], FetchStats]:
        keys = [key for (ts, _te, key) in self._lists if ts < t]
        values, stats = self.cluster.multiget(keys, clients=clients)
        return [values[k] for k in keys], stats

    def retrieve_snapshot(
        self, t: TimePoint, clients: int = 1
    ) -> Tuple[Graph, FetchStats]:
        self._check_time(t)
        g = Graph()
        lists, stats = self._fetch_lists_until(t, clients)
        for el in lists:
            for ev in el:
                if ev.time > t:
                    break
                g.apply_event(ev)
        return g, stats

    def retrieve_node_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint, clients: int = 1
    ) -> Tuple[NodeHistory, FetchStats]:
        self._check_time(te)
        lists, stats = self._fetch_lists_until(te + 1, clients)
        events = (ev for el in lists for ev in el)
        return _fold_node_history(node, ts, te, events), stats
