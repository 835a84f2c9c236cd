"""The Temporal Graph Index — the paper's core contribution (Sec. 4).

``TGI`` composes the timespan builder, the version-chain store and the
partial-state query machinery into the full retrieval API:

- :meth:`retrieve_snapshot` — Algorithm 1 (path of derived partitioned
  snapshots + trailing partitioned eventlists, fetched in parallel);
- :meth:`retrieve_node_history` — Algorithm 2 (targeted micro-delta fetch
  for the state at ``ts``, version chain for the changes in ``(ts, te]``);
- :meth:`retrieve_khop` — Algorithm 4 (expand outward from the node's
  micro-partition; with boundary replication a 1-hop fetch touches a
  single partition's rows — Fig. 5d);
- :meth:`retrieve_khop_snapshot_first` — Algorithm 3 (snapshot, filter);
- :meth:`retrieve_khop_history` — Algorithm 5 (center history plus
  neighbor histories, as one plan);
- :meth:`retrieve_node_histories` / :meth:`retrieve_khops` — batched
  Algorithms 2 and 4 over a node population (one fetch round per
  dependency level instead of per node);
- :meth:`update` — batch append of new events as fresh timespans.

All retrieval goes through the fetch-plan execution layer
(:mod:`repro.exec`): methods declare *plans* — stages of role-tagged key
groups — and the shared :class:`~repro.exec.executor.PlanExecutor`
coalesces each stage into one ``multiget`` round, optionally short-
circuiting repeated rows through the index's
:class:`~repro.exec.cache.DeltaCache`.

With ``TGIConfig.checkpoint_entries`` set, the index additionally
memoizes *fully-replayed* states in a
:class:`~repro.exec.cache.StateCheckpointCache`: per-partition partial
states keyed ``(timespan, partition, time, aux)`` and whole snapshot
graphs keyed ``(timespan, time)``.  Warm queries read the memoized state
in place, or seed their replay from a copy of the nearest checkpoint,
instead of re-fetching and re-applying the root deltas — GraphPool's
overlap-sharing of materialized states ("Efficient Snapshot Retrieval
over Historical Graph Data"), applied at micro-partition granularity.
Both rest on the self-containment invariant the build keeps (stated in
:mod:`repro.index.tgi.states`, which owns the partition-state half):
a partition's primary — or primary plus auxiliary — rows replay to the
complete state of everything in its scope.

The class is assembled from three modules: this one (construction and
update, span navigation, running a compiled query, the snapshot plan and
the ``retrieve_*`` entry points), :mod:`repro.index.tgi.khop` (k-hop
plans and their statistics' frontier bound) and
:mod:`repro.index.tgi.history` (node- and neighborhood-history plans),
the latter two as mixin bases.
"""

from __future__ import annotations

import bisect
from dataclasses import replace as _dc_replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.deltas.base import Delta
from repro.deltas.columnar import check_packable, count_decoded
from repro.errors import IndexError_, TimeRangeError
from repro.exec import (
    DeltaCache,
    FetchPlan,
    FetchStage,
    KeyGroup,
    PlanExecutor,
    StateCheckpointCache,
    collector_paused,
)
from repro.graph.events import Event, check_sorted
from repro.graph.static import Graph
from repro.index.interface import (
    HistoricalGraphIndex,
    NeighborhoodHistory,
    NodeHistory,
    value_only,
)
from repro.index.tgi.build import build_timespan
from repro.index.tgi.config import TGIConfig
from repro.index.tgi.history import HistoryPlans
from repro.index.tgi.khop import KHopPlans
from repro.index.tgi.layout import (
    DeltaKey,
    TAG_AUX_EVENTLIST,
    TAG_AUX_SNAPSHOT,
    TAG_EVENTLIST,
    TAG_SNAPSHOT,
    TimespanInfo,
)
from repro.index.tgi.states import (
    Compiled,
    _degraded_pids,
    _state_key,
    _state_series,
    capture_near_seed,
)
from repro.index.tgi.version_chain import VersionChainStore
from repro.kvstore.cluster import Cluster
from repro.kvstore.cost import CostModel, Counters, FetchStats
from repro.partitioning.temporal import timespan_boundaries
from repro.stats.calibrate import calibrate_apply_costs
from repro.stats.model import GraphStatistics
from repro.types import NodeId, TimePoint


class TGI(KHopPlans, HistoryPlans, HistoricalGraphIndex):
    """Temporal Graph Index over the simulated key-value cluster."""

    def __init__(self, config: Optional[TGIConfig] = None) -> None:
        self.config = config or TGIConfig()
        self.cluster = Cluster(self.config.cluster)
        self._open_readers()
        self.stats = GraphStatistics()
        self._vc = VersionChainStore(self.cluster, self.config.placement_groups)
        self._spans: List[TimespanInfo] = []
        self._span_starts: List[TimePoint] = []  # t_start per span
        self._running = Graph()  # state at the end of indexed history
        #: snapshot delta of ``_running``: the last span's last leaf, the
        #: next span's first (``None`` after a load or a failed span)
        self._running_leaf: Optional[Delta] = None
        self._t_min: Optional[TimePoint] = None
        self._t_max: Optional[TimePoint] = None

    def __getstate__(self):
        # ``_span_starts`` is derived from ``_spans`` and rebuilt on
        # load, so files do not carry it; nor ``_running_leaf``, which
        # the next update rebuilds once from ``_running``; nor the
        # reader state, so reading an index never changes its file
        state = dict(self.__dict__)
        for name in (
            "_span_starts", "_running_leaf",
            "delta_cache", "checkpoints", "executor",
        ):
            state.pop(name, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._span_starts = [span.t_start for span in self._spans]
        self._running_leaf = None
        self._open_readers()

    def _open_readers(self) -> None:
        """Empty caches sized by ``config`` and an executor over them."""
        self.delta_cache = (
            DeltaCache(self.config.delta_cache_entries)
            if self.config.delta_cache_entries > 0
            else None
        )
        self.checkpoints = (
            StateCheckpointCache(self.config.checkpoint_entries)
            if self.config.checkpoint_entries > 0
            else None
        )
        self.executor = PlanExecutor(self.cluster, self.delta_cache)

    # ------------------------------------------------------------------
    # construction + batch update
    # ------------------------------------------------------------------
    def build(self, events: Sequence[Event]) -> None:
        if self._spans:
            raise IndexError_("index already built; use update() to append")
        if not events:
            raise TimeRangeError("cannot build an index over an empty history")
        self._append_spans(events)
        self._t_min = events[0].time
        # measure the machine's actual decode/replay constants against
        # the rows this build just wrote (a few ms; persisted with the
        # index so apply-cost accounting predicts real Python-side cost)
        self.stats.calibration = calibrate_apply_costs(self.cluster)

    def update(self, events: Sequence[Event]) -> None:
        """Append a batch of new events (paper: updates are accepted in
        batches of timespan length and merged as new timespans).

        The whole batch is checked before anything is written: a batch
        out of ``(time, seq)`` order, or one a stored row could not hold
        (a time or seq that is not an int64, an endpoint equal to the
        no-endpoint sentinel), raises :class:`EventError`, one that does
        not start after the indexed history :class:`IndexError_`, and
        each leaves the index as it was.

        A batch costs what it changes, not what the graph holds: its
        first checkpoint snapshot is the last one the previous batch
        built (kept beside the running graph, rebuilt once after a
        load), the nodes no event touched keep their objects from leaf
        to leaf, and each touched version chain gets its new pointers
        appended."""
        if not events:
            return
        if self._t_max is not None and events[0].time <= self._t_max:
            raise IndexError_(
                f"update events must come after t={self._t_max}"
            )
        self._append_spans(events)
        if self._t_min is None:
            self._t_min = events[0].time

    def _append_spans(self, events: Sequence[Event]) -> None:
        # refuse a disordered batch, or one a row could not store,
        # before its first span is written
        check_sorted(events)
        check_packable(events)
        spans = timespan_boundaries(events, self.config.events_per_timespan)
        cursor = 0
        for (t_start, t_end) in spans:
            span_events = []
            while cursor < len(events) and events[cursor].time < t_end:
                span_events.append(events[cursor])
                cursor += 1
            # cleared while the span builds: one that raises must not
            # leave a leaf that no longer matches ``_running``
            leaf, self._running_leaf = self._running_leaf, None
            info, leaf = build_timespan(
                len(self._spans),
                self._running,
                span_events,
                t_start,
                t_end,
                self.config,
                self.cluster,
                self._vc,
                stats=self.stats,
                first_leaf=leaf,
            )
            self._running_leaf = leaf
            self._spans.append(info)
            self._span_starts.append(info.t_start)
        changed_chains = self._vc.flush()
        self._t_max = events[-1].time
        if self.delta_cache is not None:
            # selective invalidation: timespan rows are append-only and
            # never change, and flush() reports exactly which version
            # chains gained pointers — drop those rows, keep the rest of
            # the working set warm across the batch update
            self.delta_cache.invalidate_many(changed_chains)
        # materialized-state checkpoints stay warm: timespans are
        # append-only, so a state replayed inside an existing span can
        # never be invalidated by new events (which land in new spans),
        # and checkpoints never include version-chain data

    # ------------------------------------------------------------------
    # span / time navigation
    # ------------------------------------------------------------------
    def _span_at(self, t: TimePoint) -> TimespanInfo:
        if not self._spans or self._t_max is None or self._t_min is None:
            raise TimeRangeError("index is empty")
        if t > self._t_max:
            raise TimeRangeError(f"time {t} beyond indexed history ({self._t_max})")
        if t < self._t_min:
            raise TimeRangeError(f"time {t} precedes indexed history ({self._t_min})")
        pos = bisect.bisect_right(self._span_starts, t) - 1
        return self._spans[max(pos, 0)]

    @property
    def num_timespans(self) -> int:
        return len(self._spans)

    def use_calibrated_apply(self) -> CostModel:
        """Switch the cluster's cost model to apply constants *measured*
        at build time (``stats.calibration``): actual decode ms/KiB and
        replay ms/item on the machine that built the index.  Falls back
        to the fixed defaults when no calibration exists (e.g. an index
        whose build predates statistics).  Returns the new model."""
        model = self.config.cluster.cost_model.with_apply(
            calibration=self.stats.calibration
        )
        cluster_cfg = _dc_replace(self.config.cluster, cost_model=model)
        self.config = _dc_replace(self.config, cluster=cluster_cfg)
        self.cluster.config = cluster_cfg
        return model

    # ------------------------------------------------------------------
    # running a compiled query
    # ------------------------------------------------------------------
    @collector_paused
    def _retrieve(
        self, compiled: Compiled, clients: int
    ) -> Tuple[object, FetchStats]:
        """Execute one compiled query on its own; return its value *and*
        its stats — what every ``retrieve_*`` below hands back."""
        result = self.executor.execute(compiled[0], clients=clients)
        value = self._finish(compiled, result.values, result.stats)
        return value, result.stats

    def _finish(self, compiled: Compiled, values: Dict, into) -> object:
        """Finalize an executed compiled query and fold what the executor
        could not see — checkpoint outcomes and the events finalizing
        forced to materialize — into the ``into`` stats."""
        _plan, finalize, extra = compiled
        with count_decoded() as decoded:
            value = finalize(values)
        into.add(extra)
        into.decoded_events += decoded[0]
        return value

    # ------------------------------------------------------------------
    # snapshot retrieval (Algorithm 1)
    # ------------------------------------------------------------------
    def _snapshot_plan(
        self, span: TimespanInfo, t: TimePoint,
        pids: Optional[Set[int]] = None, include_aux: bool = False,
    ) -> Tuple[List[List[DeltaKey]], List[DeltaKey]]:
        """Keys for the root→leaf path (grouped per tree node, in path
        order) and for the trailing eventlists, optionally restricted to a
        pid subset and extended with auxiliary rows."""
        keys = span.keys(self.config.placement_groups)
        want = None if pids is None else sorted(pids)
        leaf = span.leaf_at(t)
        path_groups: List[List[DeltaKey]] = []
        for did in span.tree.path_to_leaf(leaf):
            group = keys.select(TAG_SNAPSHOT, did, want)
            if include_aux:
                group += keys.select(TAG_AUX_SNAPSHOT, did, want)
            path_groups.append(group)
        ekeys: List[DeltaKey] = []
        for j in span.eventlists_between(leaf, t):
            ekeys += keys.select(TAG_EVENTLIST, j, want)
            if include_aux:
                ekeys += keys.select(TAG_AUX_EVENTLIST, j, want)
        return path_groups, ekeys

    def _snapshot_stage(
        self,
        span: TimespanInfo,
        t: TimePoint,
        label: str,
        pids: Optional[Set[int]] = None,
        include_aux: bool = False,
    ) -> Tuple[FetchStage, List[DeltaKey], List[DeltaKey]]:
        """One plan stage holding a snapshot fetch (Algorithm 1's keys are
        all independent, so they form a single round), with its root→leaf
        path keys in path order and its trailing eventlist keys."""
        path_groups, ekeys = self._snapshot_plan(
            span, t, pids=pids, include_aux=include_aux
        )
        path_keys = [key for group in path_groups for key in group]
        return FetchStage(label, (
            KeyGroup("micro-path", tuple(path_keys)),
            KeyGroup("eventlist", tuple(ekeys)),
        )), path_keys, ekeys

    def _snapshot_fetch(
        self, span: TimespanInfo, t: TimePoint, seed: Optional[tuple]
    ) -> Tuple[FetchPlan, List[DeltaKey], List[DeltaKey]]:
        """A snapshot's fetch plan when no checkpoint holds ``t`` exactly:
        the global eventlist gap ``(t0, t]`` after a near ``seed``
        (``(t0, gap_keys, ...)``), else Algorithm 1 cold, with the cold
        stage's path and eventlist keys.  The planner's probe
        (:func:`near_seed_candidate`) or an executing plan's
        (:func:`capture_near_seed`) decides the seed."""
        if seed is not None:
            plan = FetchPlan(f"snapshot(t={t})~seed(t0={seed[0]})")
            plan.add_stage(
                "snapshot-gap", KeyGroup("near-gap", tuple(seed[1]))
            )
            return plan, [], []
        stage, path_keys, ekeys = self._snapshot_stage(span, t, "snapshot")
        return FetchPlan(f"snapshot(t={t})", [stage]), path_keys, ekeys

    def retrieve_snapshot(
        self, t: TimePoint, clients: int = 1
    ) -> Tuple[Graph, FetchStats]:
        return self._retrieve(self._snapshot_exec_plan(t), clients)

    def _snapshot_exec_plan(
        self, t: TimePoint, read_only: bool = False
    ) -> Compiled:
        """Build one snapshot query's plan plus a finalizer mapping the
        executed values to the graph at ``t`` (same plan/finalize shape
        as :meth:`_khops_plan`, so batched sessions can compose snapshot
        queries with other plans in one pipelined execution).

        Three plan forms, cheapest first: an exact whole-graph checkpoint
        hit contributes an *empty* plan; a nearest-in-time checkpoint at
        ``t0 < t`` — when the event-rate histograms price the gap replay
        under a cold build — fetches only the global eventlist gap
        ``(t0, t]`` and replays it forward (``checkpoints.near_hits``);
        otherwise the full Algorithm-1 fetch runs cold.

        By default the finalizer's graph is the caller's to keep and
        mutate (an exact hit is copied out of the cache; a replayed
        graph is kept and a copy admitted).  With ``read_only`` the
        caller only reads it and then drops it — a snapshot-first k-hop
        — so an exact hit is the cached object itself and a replayed
        graph is moved into the cache: no copy either way."""
        span = self._span_at(t)
        extra = Counters()

        def replay_and_admit(
            g: Graph,
            bad: Set[int],
            ekeys: List[DeltaKey],
            values: Dict[DeltaKey, object],
            after: Optional[TimePoint] = None,
        ) -> Graph:
            """Advance ``g`` over the fetched eventlists to ``t`` and
            checkpoint it — unless a degraded fetch dropped partitions: a
            degraded snapshot must never seed later fault-free queries,
            and holds no node of a dropped partition (lenient replay
            re-creates one an edge event names; a near seed holds its
            copy from before the fault)."""
            # bulk replay off the packed columns (dedups replicated
            # copies by seq, bounds by time via bisection)
            g.apply_columnar(
                [values[key] for key in ekeys if key[3] not in bad],
                until=t, after=after,
            )
            if not bad:
                self._admit_snapshot(span, t, g, move=read_only)
            for pid in bad:
                for node in span.members.get(pid, ()):
                    if g.has_node(node):
                        g.remove_node(node)
            return g

        if self.checkpoints is not None:
            cached = self.checkpoints.lookup(
                _state_key(span.tsid, None, t, False)
            )
            if cached is not None:
                extra.checkpoint_hits += 1
                return (
                    FetchPlan(f"snapshot(t={t})"),
                    lambda values: cached if read_only else cached.copy(),
                    extra,
                )
            seed = capture_near_seed(self, span, None, t, False)
            if seed is not None:
                t0, gap_keys, g0 = seed
                extra.checkpoint_near_hits += 1
                plan = self._snapshot_fetch(span, t, seed)[0]

                def finalize_near(values: Dict[DeltaKey, object]) -> Graph:
                    bad = _degraded_pids(gap_keys, values)
                    return replay_and_admit(g0, bad, gap_keys, values, t0)

                return plan, finalize_near, extra
            extra.checkpoint_misses += 1
        plan, path_keys, ekeys = self._snapshot_fetch(span, t, None)

        def finalize_cold(values: Dict[DeltaKey, object]) -> Graph:
            bad = _degraded_pids(path_keys + ekeys, values)
            # the path's rows in root->leaf order (later row wins per
            # node id), loaded with no mirror walk; only a degraded
            # fetch can leave edge-list entries naming no loaded node
            g = Delta.load_snapshot(
                (values[key] for key in path_keys if key[3] not in bad),
                whole=not bad,
            )
            return replay_and_admit(g, bad, ekeys, values)

        return plan, finalize_cold, extra

    def _admit_snapshot(
        self, span: TimespanInfo, t: TimePoint, g: Graph, move: bool
    ) -> None:
        """Checkpoint a materialized snapshot under its time series so
        later queries can reuse it exactly or seed from it nearest-in-
        time.  ``move`` hands ``g`` itself to the cache — for a producer
        that only reads it from here on and then drops it; otherwise the
        producer keeps ``g`` (it is the caller's result, theirs to
        mutate) and a copy is admitted."""
        if self.checkpoints is not None:
            self.checkpoints.admit(
                _state_key(span.tsid, None, t, False),
                g if move else g.copy(),
                series=_state_series(span.tsid, None, False),
                t=t,
            )

    # ------------------------------------------------------------------
    # node history (Algorithm 2)
    # ------------------------------------------------------------------
    def retrieve_node_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint, clients: int = 1
    ) -> Tuple[NodeHistory, FetchStats]:
        (one,), stats = self.retrieve_node_histories([node], ts, te, clients)
        return one, stats

    def retrieve_node_histories(
        self,
        nodes: Sequence[NodeId],
        ts: TimePoint,
        te: TimePoint,
        clients: int = 1,
    ) -> Tuple[List[NodeHistory], FetchStats]:
        """Batched Algorithm 2: histories of a whole node population in
        O(1) fetch rounds.

        One round fetches every needed micro-delta path, trailing
        eventlist and version-chain row (nodes sharing a micro-partition
        share rows, fetched once); a second round fetches the union of
        all chain-pointed eventlist rows.  Results are identical to a
        per-node :meth:`retrieve_node_history` loop — only the fetch
        schedule differs (a handful of rounds instead of O(nodes)).
        """
        return self._retrieve(
            self._node_histories_plan(nodes, ts, te), clients
        )

    # ------------------------------------------------------------------
    # k-hop neighborhood (Algorithms 3 and 4)
    # ------------------------------------------------------------------
    def retrieve_khop(
        self, node: NodeId, t: TimePoint, k: int = 1, clients: int = 1
    ) -> Tuple[Graph, FetchStats]:
        """Algorithm 4: start from the node's micro-partition and expand
        outward, loading further partitions only when the frontier leaves
        the already-covered scope — :meth:`retrieve_khops` over one
        center, raising when it is not alive."""
        (g,), stats = self.retrieve_khops([node], t, k, clients)
        if g is None:
            raise self._dead_center(node, t)
        return g, stats

    def retrieve_khops(
        self,
        centers: Sequence[NodeId],
        t: TimePoint,
        k: int = 1,
        clients: int = 1,
    ) -> Tuple[List[Optional[Graph]], FetchStats]:
        """Batched Algorithm 4 with a *shared frontier*.

        At every hop the micro-partitions needed by *any* center's
        frontier are deduplicated into one plan stage — one multiget
        round — so a whole population of k-hop queries costs at most
        ``k + 1`` rounds instead of O(centers · (k + 1)), and partitions
        shared between neighborhoods are fetched once.  Returns one graph
        per input center (input order, duplicates preserved); ``None``
        marks centers not alive at ``t``.
        """
        return self._retrieve(self._khops_plan(centers, t, k), clients)

    get_khops = value_only("retrieve_khops")

    def retrieve_khop_snapshot_first(
        self, node: NodeId, t: TimePoint, k: int = 1, clients: int = 1
    ) -> Tuple[Graph, FetchStats]:
        """Algorithm 3: fetch the whole snapshot, then filter to k hops.
        The snapshot is only read, so a warm one is used in place and a
        replayed one is left behind in the checkpoint cache."""
        g, stats = self._retrieve(
            self._snapshot_exec_plan(t, read_only=True), clients
        )
        if not g.has_node(node):
            raise IndexError_(f"node {node} not alive at t={t}")
        return g.khop_subgraph(node, k), stats

    get_khop_snapshot_first = value_only("retrieve_khop_snapshot_first")

    # ------------------------------------------------------------------
    # 1-hop neighborhood evolution (Algorithm 5)
    # ------------------------------------------------------------------
    def retrieve_khop_history(
        self, node: NodeId, ts: TimePoint, te: TimePoint, clients: int = 1
    ) -> Tuple[NeighborhoodHistory, FetchStats]:
        return self._retrieve(self._khop_history_plan(node, ts, te), clients)

