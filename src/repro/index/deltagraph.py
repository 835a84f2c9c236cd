"""DeltaGraph (Khurana & Deshpande, ICDE 2013) — the authors' prior index.

A hierarchical temporal-compression tree over periodic checkpoints plus
eventlists, stored as *monolithic* deltas (no partitioning, no version
chains).  Snapshot retrieval reads one root→leaf path plus trailing
eventlists (``h·|S| + |E|`` in Table 1); node-version queries degrade to
scanning whole eventlists, which is precisely the gap TGI closes.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.index.delta_tree import DeltaTree, build_delta_tree
from repro.index.interface import HistoricalGraphIndex, NodeHistory, _fold_node_history
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.cost import FetchStats
from repro.types import NodeId, TimePoint


class DeltaGraphIndex(HistoricalGraphIndex):
    """Hierarchical snapshot-difference index over the simulated cluster.

    Args:
        eventlist_size: events per eventlist (``l``); checkpoints are taken
            at every eventlist boundary.
        arity: fan-out ``k`` of the compression tree.
    """

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        eventlist_size: int = 1000,
        arity: int = 2,
        placement_groups: int = 4,
    ) -> None:
        self.cluster = Cluster(cluster_config)
        self.eventlist_size = eventlist_size
        self.arity = arity
        self.placement_groups = placement_groups
        self._tree: Optional[DeltaTree] = None
        self._checkpoint_times: List[TimePoint] = []
        self._list_meta: List[Tuple[TimePoint, TimePoint, tuple]] = []
        self._t_max: Optional[TimePoint] = None

    # ------------------------------------------------------------------
    def _delta_key(self, did: int) -> tuple:
        return (0, did % self.placement_groups, ("S", did), 0)

    def _list_key(self, idx: int) -> tuple:
        return (0, idx % self.placement_groups, ("E", idx), 0)

    def build(self, events: Sequence[Event]) -> None:
        if not events:
            raise TimeRangeError("cannot build an index over an empty history")
        check_sorted(events)
        check_packable(events)
        lists = split_events_into_lists(list(events), self.eventlist_size)
        g = Graph()
        # checkpoint 0 is the (empty) state before the first eventlist
        self._checkpoint_times.append(events[0].time - 1)
        leaf_deltas: List[Delta] = [Delta()]  # the empty graph's
        for i, (ts, te, evs) in enumerate(lists):
            ekey = self._list_key(i)
            self.cluster.put(ekey, ColumnarEventList(pack_eventlist(ts, te, evs)))
            self._list_meta.append((ts, te, ekey))
            self._checkpoint_times.append(te)
            leaf_deltas.append(advance_snapshot_delta(g, leaf_deltas[-1], evs))
        tree, stored = build_delta_tree(leaf_deltas, self.arity)
        self._tree = tree
        for did, delta in stored.items():
            self.cluster.put(self._delta_key(did), delta)
        self._t_max = events[-1].time

    # ------------------------------------------------------------------
    def _leaf_at(self, t: TimePoint) -> int:
        if self._t_max is None or self._tree is None:
            raise TimeRangeError("index is empty")
        if t > self._t_max:
            raise TimeRangeError(f"time {t} beyond indexed history ({self._t_max})")
        pos = bisect.bisect_right(self._checkpoint_times, t) - 1
        if pos < 0:
            raise TimeRangeError(f"time {t} precedes indexed history")
        return pos

    def _plan_keys(self, t: TimePoint) -> Tuple[List[tuple], List[tuple], TimePoint]:
        """Root→leaf delta keys plus eventlist keys covering (leaf, t]."""
        assert self._tree is not None
        leaf = self._leaf_at(t)
        path_keys = [self._delta_key(d) for d in self._tree.path_to_leaf(leaf)]
        cp_time = self._checkpoint_times[leaf]
        ekeys = [
            key for (lts, _lte, key) in self._list_meta if lts >= cp_time and lts < t
        ]
        return path_keys, ekeys, cp_time

    def _reconstruct(self, values: Dict[tuple, object], path_keys: List[tuple]) -> Delta:
        return Delta.sum(values[key] for key in path_keys)  # type: ignore[misc]

    def retrieve_snapshot(
        self, t: TimePoint, clients: int = 1
    ) -> Tuple[Graph, FetchStats]:
        path_keys, ekeys, _cp = self._plan_keys(t)
        values, stats = self.cluster.multiget([*path_keys, *ekeys], clients=clients)
        g = self._reconstruct(values, path_keys).to_graph()
        for key in ekeys:
            el: ColumnarEventList = values[key]  # type: ignore[assignment]
            for ev in el:
                if ev.time > t:
                    break
                g.apply_event(ev)
        return g, stats

    def retrieve_node_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint, clients: int = 1
    ) -> Tuple[NodeHistory, FetchStats]:
        path_keys, ekeys_init, cp_time = self._plan_keys(ts)
        init_set = set(ekeys_init)
        ekeys_range = [
            key
            for (lts, lte, key) in self._list_meta
            if lte > ts and lts < te and key not in init_set
        ]
        keys = [*path_keys, *ekeys_init, *ekeys_range]
        values, stats = self.cluster.multiget(keys, clients=clients)

        base = self._reconstruct(values, path_keys).to_graph()
        state = static_node_from_graph(base, node)
        events = (
            ev for key in [*ekeys_init, *ekeys_range] for ev in values[key]
        )
        return _fold_node_history(
            node, ts, te, events, state, after=cp_time
        ), stats

    @property
    def tree_height(self) -> int:
        return self._tree.height if self._tree else 0
