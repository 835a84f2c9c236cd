"""TGI construction (paper Sec. 4.4, "Construction and Update").

Construction proceeds a timespan at a time (Fig. 4):

1. the span's evolving graph is collapsed with Ω and partitioned into
   micro-partitions (random hash or locality-aware min-cut, Sec. 4.5);
2. the span's events are chopped into eventlists (size ``l``), defining the
   checkpoint times;
3. a temporal-compression tree is built over the checkpoint snapshots and
   every stored delta is micro-partitioned (size ``ps``) before being
   written to the cluster, together with partitioned eventlists, optional
   auxiliary (boundary-replica) micros, and version-chain records.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.deltas.base import Delta, StaticEdge, StaticNode
from repro.deltas.columnar import ColumnarEventList, pack_eventlist
from repro.deltas.eventlist import split_events_into_lists
from repro.graph.events import Event
from repro.graph.static import Graph
from repro.index.common import advance_snapshot_delta, snapshot_delta_of_graph
from repro.index.delta_tree import build_delta_tree
from repro.index.tgi.config import PartitioningStrategy, TGIConfig
from repro.index.tgi.layout import (
    TAG_AUX_EVENTLIST,
    TAG_AUX_SNAPSHOT,
    TAG_EVENTLIST,
    TAG_SNAPSHOT,
    TimespanInfo,
    delta_key,
    sid_of_pid,
)
from repro.index.tgi.version_chain import VersionChainStore
from repro.kvstore.cluster import Cluster
from repro.partitioning.mincut import MinCutPartitioner
from repro.partitioning.random_part import hash_partition
from repro.partitioning.temporal import collapse
from repro.stats.collect import collect_timespan_stats
from repro.stats.model import GraphStatistics
from repro.types import EdgeId, NodeId, TimePoint


def _split_delta_by_pid(
    delta: Delta, pid_of: Dict[NodeId, int]
) -> Dict[int, Delta]:
    """Primary micro-partitioning: static nodes go to their pid; attributed
    static edges go to both endpoints' pids (paper Example 5).  Each
    micro keeps ``delta``'s component order."""
    nodes: Dict[int, Dict[NodeId, StaticNode]] = {}
    for n, comp in delta.static_nodes().items():
        pid = pid_of.get(n)
        if pid is not None:
            bucket = nodes.get(pid)
            if bucket is None:
                bucket = nodes[pid] = {}
            bucket[n] = comp
    edges: Dict[int, Dict[EdgeId, StaticEdge]] = {}
    for comp in delta.static_edges().values():
        for pid in {pid_of.get(comp.u), pid_of.get(comp.v)} - {None}:
            edges.setdefault(pid, {})[(comp.u, comp.v)] = comp
    return {
        pid: Delta.from_static(nodes.get(pid, {}), edges.get(pid, {}))
        for pid in nodes.keys() | edges.keys()
    }


def _split_aux_by_pid(
    delta: Delta, boundary: Dict[int, FrozenSet[NodeId]]
) -> Dict[int, Delta]:
    """Auxiliary micros: for each pid, replicas of its boundary nodes plus
    *every* attributed edge touching one of them — the either-endpoint
    rule of the primary split, so a partition's primary+aux rows hold the
    complete attribute dict of each edge its scope touches, wherever the
    other endpoint lives (the auxiliary eventlists carry every event
    touching a boundary node; replaying one onto a missing dict would
    invent a partial one)."""
    out: Dict[int, Delta] = {}
    for pid, bnd in boundary.items():
        if not bnd:
            continue
        aux = Delta()
        for comp in delta:
            if isinstance(comp, StaticNode):
                if comp.I in bnd:
                    aux.put(comp)
            elif comp.u in bnd or comp.v in bnd:
                aux.put(comp)
        if len(aux):
            out[pid] = aux
    return out


def build_timespan(
    tsid: int,
    initial: Graph,
    span_events: Sequence[Event],
    t_start: TimePoint,
    t_end: TimePoint,
    config: TGIConfig,
    cluster: Cluster,
    vc_store: VersionChainStore,
    stats: GraphStatistics,
    first_leaf: Optional[Delta] = None,
) -> Tuple[TimespanInfo, Delta]:
    """Construct and persist one timespan; mutates ``initial`` to the state
    at the end of the span (so spans chain during a full build and an
    update).  Returns the span's metadata and its last leaf: the
    snapshot delta of ``initial`` at the end of the span.

    The leaves of the span's delta tree are its checkpoint snapshots, one
    eventlist apart.  The first is ``first_leaf`` — the previous span's
    last leaf, which must equal ``snapshot_delta_of_graph(initial)`` —
    or, when none is passed, built from the whole graph; each later one
    is derived from the one before it
    (:func:`~repro.index.common.advance_snapshot_delta`): the static nodes
    its eventlist touched are rebuilt and every other node is the same
    object as in the previous leaf, so building the tree compares those
    by identity.  The stored rows are byte-for-byte what whole-graph
    snapshots give.

    The span's statistics (partition summaries, boundary-cut weights,
    event-rate histogram) are collected into ``stats`` from what the
    build already has — the collapsed graph and the per-partition event
    times the eventlist routing produced — with no extra store reads."""
    # ---- dynamic partitioning (Sec. 4.5) -----------------------------
    collapsed = collapse(
        initial, span_events, t_start, t_end,
        config.collapse, config.node_weighting,
    )
    alive = list(collapsed.nodes)
    num_pids = max(1, math.ceil(len(alive) / config.micro_partition_size))
    if config.partitioning is PartitioningStrategy.MINCUT and num_pids > 1:
        partitioning = MinCutPartitioner(seed=tsid + 7).partition(
            collapsed.nodes,
            collapsed.edges,
            num_pids,
            edge_weights=collapsed.edge_weights,
            node_weights=collapsed.node_weights,
        )
        node_pid = dict(partitioning.assignment)
    else:
        node_pid = {
            n: hash_partition(n, num_pids, salt=1000 + tsid) for n in alive
        }
    ns = config.placement_groups
    sids = [sid_of_pid(pid, ns) for pid in range(num_pids)]

    boundary: Dict[int, FrozenSet[NodeId]] = {}
    if config.replicate_boundary:
        raw: Dict[int, Set[NodeId]] = {pid: set() for pid in range(num_pids)}
        for (u, v) in collapsed.edges:
            pu, pv = node_pid.get(u), node_pid.get(v)
            if pu is None or pv is None or pu == pv:
                continue
            raw[pu].add(v)
            raw[pv].add(u)
        boundary = {pid: frozenset(nodes) for pid, nodes in raw.items()}

    # ---- eventlists and checkpoints -----------------------------------
    lists = split_events_into_lists(list(span_events), config.eventlist_size)
    checkpoints: List[TimePoint] = [t_start - 1]
    eventlist_ranges: List[Tuple[TimePoint, TimePoint]] = []
    leaf_deltas: List[Delta] = [
        snapshot_delta_of_graph(initial) if first_leaf is None else first_leaf
    ]
    for _ts, te, evs in lists:
        eventlist_ranges.append((checkpoints[-1], te))  # align scopes
        checkpoints.append(te)
        leaf_deltas.append(
            advance_snapshot_delta(initial, leaf_deltas[-1], evs)
        )

    tree, stored = build_delta_tree(leaf_deltas, config.arity)

    info = TimespanInfo(
        tsid=tsid,
        t_start=t_start,
        t_end=t_end,
        checkpoints=checkpoints,
        eventlist_ranges=eventlist_ranges,
        tree=tree,
        num_pids=num_pids,
        node_pid=node_pid,
        boundary=boundary,
    )

    # ---- persist tree deltas as micros ---------------------------------
    for did, delta in stored.items():
        micros = _split_delta_by_pid(delta, node_pid)
        pids = sorted(micros)
        info.snapshot_pids[did] = pids
        for pid in pids:
            cluster.put(
                delta_key(tsid, sids[pid], TAG_SNAPSHOT, did, pid),
                micros[pid],
            )
        if config.replicate_boundary:
            aux = _split_aux_by_pid(delta, boundary)
            apids = sorted(aux)
            info.aux_snapshot_pids[did] = apids
            for pid in apids:
                cluster.put(
                    delta_key(tsid, sids[pid], TAG_AUX_SNAPSHOT, did, pid),
                    aux[pid],
                )

    # ---- persist partitioned eventlists + version chains ----------------
    # an event goes to every partition it touches; the times it lands at,
    # per partition, are what the statistics count
    pid_times: Dict[int, List[TimePoint]] = {}
    for j, ((ts, te), (_ts, _te, run)) in enumerate(
        zip(eventlist_ranges, lists)
    ):
        primary: Dict[int, List[Event]] = {}
        auxiliary: Dict[int, List[Event]] = {}
        node_span: Dict[Tuple[int, NodeId], Tuple[TimePoint, TimePoint]] = {}
        for ev in run:
            t = ev.time
            touched_pids: Set[int] = set()
            for entity in set(ev.entities):
                pid = node_pid.get(entity)
                if pid is None:
                    continue
                touched_pids.add(pid)
                # events run in time order: the first sets lo, the last hi
                lo = node_span.get((pid, entity), (t,))[0]
                node_span[(pid, entity)] = (lo, t)
            for pid in touched_pids:
                primary.setdefault(pid, []).append(ev)
                pid_times.setdefault(pid, []).append(t)
            if config.replicate_boundary:
                for pid, bnd in boundary.items():
                    if pid in touched_pids:
                        continue
                    if any(entity in bnd for entity in ev.entities):
                        auxiliary.setdefault(pid, []).append(ev)

        info.eventlist_pids[j] = sorted(primary)
        for pid, evs in primary.items():
            key = delta_key(tsid, sids[pid], TAG_EVENTLIST, j, pid)
            cluster.put(key, ColumnarEventList(pack_eventlist(ts, te, evs)))
        info.aux_eventlist_pids[j] = sorted(auxiliary)
        for pid, evs in auxiliary.items():
            cluster.put(
                delta_key(tsid, sids[pid], TAG_AUX_EVENTLIST, j, pid),
                ColumnarEventList(pack_eventlist(ts, te, evs)),
            )
        for (pid, node), (lo, hi) in node_span.items():
            key = delta_key(tsid, sids[pid], TAG_EVENTLIST, j, pid)
            vc_store.record(node, lo, hi, key)

    stats.spans[tsid] = collect_timespan_stats(
        tsid,
        t_start,
        t_end,
        collapsed.nodes,
        collapsed.edges,
        node_pid,
        num_pids,
        pid_times,
        len(span_events),
    )
    return info, leaf_deltas[-1]
