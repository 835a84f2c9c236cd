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
Seeding is exact because the build writes every event into the
eventlist of *each* partition it touches, so a partition's primary (or
primary+aux) replay is self-contained.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import replace as _dc_replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.deltas.base import Delta, StaticNode
from repro.deltas.columnar import ColumnarEventList, count_decoded
from repro.deltas.eventlist import EventList
from repro.errors import IndexError_, PartitionUnavailable, TimeRangeError
from repro.exec import (
    DeltaCache,
    FetchPlan,
    FetchStage,
    KeyGroup,
    PlanExecutor,
    StateCheckpointCache,
)
from repro.graph.events import Event, dedup_sorted
from repro.graph.static import Graph
from repro.index.interface import (
    HistoricalGraphIndex,
    NeighborhoodHistory,
    NodeHistory,
    neighbor_intervals,
    value_only,
)
from repro.index.tgi.build import build_timespan
from repro.index.tgi.config import TGIConfig
from repro.index.tgi.layout import (
    DeltaKey,
    TAG_AUX_EVENTLIST,
    TAG_AUX_SNAPSHOT,
    TAG_EVENTLIST,
    TAG_SNAPSHOT,
    TimespanInfo,
    version_chain_key,
)
from repro.index.tgi.query import PartialState, ReplayShare
from repro.index.tgi.version_chain import VersionChainStore
from repro.kvstore.cluster import Cluster
from repro.kvstore.cost import CostModel, Counters, FetchStats
from repro.kvstore.degrade import (
    PartialCollector,
    active_partial,
    partial_scope,
    partition_label,
)
from repro.obs.trace import current_span, use_span
from repro.partitioning.temporal import timespan_boundaries
from repro.stats.calibrate import calibrate_apply_costs
from repro.stats.model import (
    FRONTIER_MARGIN,
    GraphStatistics,
    expected_khop_pids,
    prefer_near_seed,
)
from repro.types import NodeId, TimePoint

#: Checkpoint payload for a replayed partition: (node states, edge attrs).
StatePayload = Tuple[Dict[NodeId, StaticNode], Dict[Tuple, dict]]
#: A nearest-in-time seeding: (private payload at t0, t0, gap keys) — the
#: payload a partition state, or the whole graph for a snapshot.
NearSeed = Tuple[Union[StatePayload, Graph], TimePoint, List[DeltaKey]]
#: A compiled retrieval — what every ``_*_plan`` builder returns: the
#: fetch plan, the closure mapping its executed values to the result, and
#: the counters resolved outside the executor (checkpoint outcomes, filled
#: in while the plan is built and while its factories run).
Compiled = Tuple[
    FetchPlan, Callable[[Dict[DeltaKey, object]], object], Counters
]


def _clone_state(payload: StatePayload) -> StatePayload:
    """A private copy of a partition-state checkpoint, for the one
    consumer that replays it forward (the near-seed capture): node states
    are immutable (fresh :class:`StaticNode` per evolution), so a shallow
    dict copy suffices; edge-attribute dicts are mutated in place by
    ``EDGE_ATTR_SET`` replay, so each gets its own copy."""
    nodes, edges = payload
    return dict(nodes), {eid: dict(attrs) for eid, attrs in edges.items()}


def _state_key(
    tsid: int, pid: Optional[int], t: TimePoint, include_aux: bool
) -> Tuple:
    """Checkpoint key of a fully-replayed state at ``t``: one partition's,
    or — ``pid=None`` — the whole materialized snapshot graph."""
    if pid is None:
        return ("snapshot", tsid, t)
    return ("pids", tsid, pid, t, include_aux)


def _state_series(tsid: int, pid: Optional[int], include_aux: bool) -> Tuple:
    """Time-series id of one partition's states, or (``pid=None``) of the
    timespan's materialized snapshots: all checkpointed ``t`` values of
    the same ``(timespan, partition, aux)`` sort together, so the cache
    can answer nearest-in-time probes."""
    if pid is None:
        return ("snapshot", tsid)
    return ("pids", tsid, pid, include_aux)


def _degraded_pids(keys, values) -> Set[int]:
    """Partitions whose rows a degraded fetch dropped from ``values``.

    A partition is never *partially* replayed — if any of its planned
    rows is missing, the whole partition is dropped (returned here) so a
    stale base is never patched with a subset of its events.  Inside an
    authorized partial scope the drops are recorded on the collector;
    without one this raises a typed :class:`PartitionUnavailable` (a
    degraded batchmate must not silently lose data)."""
    missing = [key for key in keys if key not in values]
    if not missing:
        return set()
    labels = sorted({partition_label(key) for key in missing})
    collector = active_partial()
    if collector is None:
        raise PartitionUnavailable(
            "rows unavailable for partitions: " + ", ".join(labels),
            partitions=labels,
            keys=tuple(missing),
        )
    for key in missing:
        collector.drop_key(key)
    return {key[3] for key in missing}


def _missing_chain(node) -> None:
    """A node's version-chain row was dropped by a degraded fetch:
    record it (inside a partial scope) or raise typed."""
    label = f"vc:{node}"
    collector = active_partial()
    if collector is None:
        raise PartitionUnavailable(
            f"version chain unavailable for node {node!r}",
            partitions=(label,),
        )
    collector.add_partition(label)


def _charge_dropped(labels: Set[str], what: str) -> None:
    """Settle the partitions a plan's *factories* lost mid-execution.
    Under coalesced execution they run inside the batch window's scope,
    which absorbs the drop silently; the plan's finalizer, under the
    request's own scope, calls this: a strict request fails typed (not a
    smaller result with no error), an ``allow_partial`` one is charged."""
    if not labels:
        return
    collector = active_partial()
    if collector is None:
        raise PartitionUnavailable(
            f"{what} lost partitions: " + ", ".join(sorted(labels)),
            partitions=sorted(labels),
        )
    for label in labels:
        collector.add_partition(label)


class TGI(HistoricalGraphIndex):
    """Temporal Graph Index over the simulated key-value cluster."""

    def __init__(self, config: Optional[TGIConfig] = None) -> None:
        self.config = config or TGIConfig()
        self.cluster = Cluster(self.config.cluster)
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
        self.stats = GraphStatistics()
        self._vc = VersionChainStore(self.cluster, self.config.placement_groups)
        self._spans: List[TimespanInfo] = []
        self._span_starts: List[TimePoint] = []  # t_start per span
        self._running = Graph()  # state at the end of indexed history
        self._t_min: Optional[TimePoint] = None
        self._t_max: Optional[TimePoint] = None
        # guards what concurrent queries over one served index share and
        # mutate: the frontier-margin EWMA
        self._lock = threading.Lock()
        #: Learned occupancy corrections for the k-hop frontier model,
        #: keyed by k: EWMA of observed/predicted touched-partition
        #: ratios, folded into ``expected_khop_pids``' margin (fixes the
        #: static margin's over-prediction on min-cut builds).
        self._frontier_corrections: Dict[int, float] = {}

    def __getstate__(self):
        # locks don't pickle (save_index serializes whole indexes).
        # ``_span_starts`` is derived from ``_spans`` and rebuilt on
        # load, so files do not carry it
        state = dict(self.__dict__)
        state["_lock"] = None
        state.pop("_span_starts", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._span_starts = [span.t_start for span in self._spans]

    # ------------------------------------------------------------------
    # learned frontier-occupancy corrections
    # ------------------------------------------------------------------
    #: EWMA smoothing for the frontier corrections (same constant the
    #: session uses for its per-algorithm cost corrections).
    FRONTIER_EWMA_ALPHA = 0.3
    #: Clip band for a correction: a few wild observations (tiny
    #: neighborhoods, dead centers) must not zero out or explode the
    #: margin for everyone.
    FRONTIER_SCALE_MIN = 0.25
    FRONTIER_SCALE_MAX = 4.0

    def frontier_margin_scale(self, k: int) -> float:
        """Learned multiplier on ``expected_khop_pids``' occupancy
        margin for hop count ``k`` (1.0 until observations arrive)."""
        return self._frontier_corrections.get(k, 1.0)

    @property
    def frontier_corrections(self) -> Dict[int, float]:
        """Copy of the learned per-k frontier margin scales (planner
        drift surface: ``/metrics`` and ``hgs inspect`` report these)."""
        with self._lock:
            return dict(self._frontier_corrections)

    def _observe_frontier(self, k: int, predicted: int, actual: int) -> None:
        """Fold one executed k-hop's touched-partition count back into
        the learned margin: the correction moves toward the ratio of
        actual to (already-corrected) predicted partitions, so repeated
        over-prediction — the static margin's documented behavior on
        min-cut builds — shrinks the margin toward what traversals
        really touch."""
        if predicted <= 0 or actual <= 0:
            return
        alpha = self.FRONTIER_EWMA_ALPHA
        with self._lock:  # read-modify-write from concurrent queries
            current = self._frontier_corrections.get(k, 1.0)
            updated = current * ((1.0 - alpha) + alpha * (actual / predicted))
            self._frontier_corrections[k] = min(
                self.FRONTIER_SCALE_MAX, max(self.FRONTIER_SCALE_MIN, updated)
            )

    def _predicted_frontier_pids(
        self, span: TimespanInfo, centers: Sequence[NodeId], k: int
    ) -> int:
        """What the (corrected) frontier model currently predicts the
        traversal from ``centers`` will touch — 0 when the model does not
        apply (no statistics, or boundary replication changes the fetch
        shape).  Used purely as the reference for EWMA feedback."""
        if self.config.replicate_boundary:
            return 0
        span_stats = self.stats.span(span.tsid)
        if span_stats is None:
            return 0
        margin = FRONTIER_MARGIN * self.frontier_margin_scale(k)
        predicted: Set[int] = set()
        for center in centers:
            pid0 = span.pid_of(center)
            if pid0 is None:
                continue
            cand = {
                pid for pid in span_stats.reachable_pids(pid0, k)
                if pid < span.num_pids
            }
            est = expected_khop_pids(
                span_stats, pid0, k, cand, margin=margin
            )
            predicted |= set(est.pids)
        return len(predicted)

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
        batches of timespan length and merged as new timespans)."""
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
        spans = timespan_boundaries(events, self.config.events_per_timespan)
        cursor = 0
        for (t_start, t_end) in spans:
            span_events = []
            while cursor < len(events) and events[cursor].time < t_end:
                span_events.append(events[cursor])
                cursor += 1
            info = build_timespan(
                len(self._spans),
                self._running,
                span_events,
                t_start,
                t_end,
                self.config,
                self.cluster,
                self._vc,
                stats=self.stats,
            )
            self._spans.append(info)
            self._span_starts.append(info.t_start)
        changed_chains = self._vc.flush()
        self._t_max = events[-1].time
        if self.delta_cache is not None:
            # selective invalidation: timespan rows are append-only and
            # never change, and flush() reports exactly which version
            # chains gained pointers — drop those rows, keep the rest of
            # the working set warm across the batch update
            self.delta_cache.bump_generation()
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
    ) -> Tuple[FetchStage, List[List[DeltaKey]], List[DeltaKey]]:
        """One plan stage holding a snapshot fetch (Algorithm 1's keys are
        all independent, so they form a single round).  Also returns the
        raw key structure for the apply side (path order matters)."""
        path_groups, ekeys = self._snapshot_plan(
            span, t, pids=pids, include_aux=include_aux
        )
        groups = [
            KeyGroup("micro-path", tuple(k for g in path_groups for k in g)),
            KeyGroup("eventlist", tuple(ekeys)),
        ]
        return FetchStage(label, tuple(groups)), path_groups, ekeys

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
            degraded snapshot must never seed later fault-free queries."""
            elists = [values[key] for key in ekeys if key[3] not in bad]
            if all(isinstance(el, ColumnarEventList) for el in elists):
                # bulk replay off the packed columns (dedups replicated
                # copies by seq, bounds by time via bisection)
                g.apply_columnar(elists, until=t, after=after)
            else:
                g.apply_events(dedup_sorted(
                    ev for el in elists for ev in el
                    if (after is None or after < ev.time) and ev.time <= t
                ))
            if not bad:
                self._admit_snapshot(span, t, g, move=read_only)
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
            seed = self._capture_near_seed(span, None, t, False)
            if seed is not None:
                g0, t0, gap_keys = seed
                extra.checkpoint_near_hits += 1
                plan = FetchPlan(f"snapshot(t={t})~seed(t0={t0})")
                plan.add_stage(
                    "snapshot-gap", KeyGroup("near-gap", tuple(gap_keys))
                )

                def finalize_near(values: Dict[DeltaKey, object]) -> Graph:
                    bad = _degraded_pids(gap_keys, values)
                    return replay_and_admit(g0, bad, gap_keys, values, t0)

                return plan, finalize_near, extra
            extra.checkpoint_misses += 1
        plan = FetchPlan(f"snapshot(t={t})")
        stage, path_groups, ekeys = self._snapshot_stage(span, t, "snapshot")
        plan.stages.append(stage)

        def finalize_cold(values: Dict[DeltaKey, object]) -> Graph:
            path_keys = [key for group in path_groups for key in group]
            bad = _degraded_pids(path_keys + ekeys, values)
            # one overlay of the path's rows in root->leaf order (later
            # row wins per node id), materialized once
            g = Delta.sum(
                values[key] for key in path_keys if key[3] not in bad
            ).to_graph()
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
    # partial-state loading (shared by node / k-hop retrieval)
    # ------------------------------------------------------------------
    def _replay_pid_state(
        self,
        span: TimespanInfo,
        pid: int,
        t: TimePoint,
        include_aux: bool,
        values: Dict[DeltaKey, object],
        plan: Optional[Tuple[List[List[DeltaKey]], List[DeltaKey]]] = None,
        scope: Optional[Set[NodeId]] = None,
    ) -> Optional[PartialState]:
        """Replay one partition's state at ``t`` from fetched rows (pure
        compute — no checkpoint admission).  ``plan`` takes the
        partition's already-computed
        ``(path_groups, ekeys)`` when the caller has them, avoiding a
        second tree-path walk; ``scope`` narrows the replay to some of
        the partition's nodes (a state nobody will checkpoint).  Returns
        ``None`` when a degraded fetch dropped any of the partition's
        rows (the whole partition is unavailable — never a partial
        replay)."""
        path_groups, ekeys = plan if plan is not None else (
            self._snapshot_plan(span, t, pids={pid}, include_aux=include_aux)
        )
        all_keys = [key for group in path_groups for key in group] + list(ekeys)
        if _degraded_pids(all_keys, values):
            return None
        state = PartialState(
            scope=scope if scope is not None
            else span.scope_of((pid,), include_aux)
        )
        for group in path_groups:
            for key in group:
                state.load_delta(values[key])
        state.apply_eventlists([values[key] for key in ekeys], until=t)
        return state

    def _admit_state(
        self,
        span: TimespanInfo,
        pid: int,
        t: TimePoint,
        include_aux: bool,
        state: PartialState,
    ) -> None:
        """Move one replayed partition state into the checkpoint cache
        (no-op when checkpoints are off).  The cache gets ``state``'s own
        dicts: replay is over once :meth:`_replay_pids` hands a state
        out, and its consumers only read it or ``setdefault`` *out of*
        it into a merged view (:meth:`_merge_state`)."""
        if self.checkpoints is not None:
            self.checkpoints.admit(
                _state_key(span.tsid, pid, t, include_aux),
                (state.nodes, state.edge_attrs),
                series=_state_series(span.tsid, pid, include_aux),
                t=t,
            )

    def _replay_pids(
        self,
        span: TimespanInfo,
        cold: Set[int],
        near: Dict[int, NearSeed],
        t: TimePoint,
        include_aux: bool,
        values: Dict[DeltaKey, object],
        plans: Optional[
            Dict[int, Tuple[List[List[DeltaKey]], List[DeltaKey]]]
        ] = None,
    ) -> List[Tuple[int, PartialState]]:
        """Replay all cold and near-seeded partitions of one fetch
        round, one after another; states are admitted and returned cold
        partitions sorted by pid first, then near-seeded ones."""

        def replay(pid: int) -> Optional[PartialState]:
            entry = near.get(pid)
            if entry is not None:
                payload0, t0, gap_keys = entry
                return self._seed_state(
                    span, pid, t, include_aux, payload0, t0, gap_keys, values
                )
            plan = plans.get(pid) if plans is not None else None
            return self._replay_pid_state(
                span, pid, t, include_aux, values, plan
            )

        def compute(pid: int) -> Optional[PartialState]:
            parent = current_span()
            if parent is None:
                return replay(pid)
            # one child span per partition, current while it replays so
            # events_applied (and any nested work) attributes to it
            sub = parent.child("apply.partition", pid=pid, seeded=pid in near)
            try:
                with use_span(sub):
                    return replay(pid)
            finally:
                sub.end()

        pids = sorted(cold) + sorted(near)
        states = [compute(pid) for pid in pids]
        out: List[Tuple[int, PartialState]] = []
        for pid, state in zip(pids, states):
            if state is None:
                continue  # degraded: whole partition dropped
            self._admit_state(span, pid, t, include_aux, state)
            out.append((pid, state))
        return out

    # ------------------------------------------------------------------
    # nearest-in-time checkpoint seeding
    # ------------------------------------------------------------------
    def _gap_eventlist_keys(
        self,
        span: TimespanInfo,
        pid: Optional[int],
        t0: TimePoint,
        t: TimePoint,
        include_aux: bool,
    ) -> List[DeltaKey]:
        """Eventlist keys holding ``pid``'s events — every partition's,
        for ``pid=None`` — in ``(t0, t]``: the replay gap between a
        checkpointed state at ``t0`` and a query at ``t``.  Eventlist
        ``j`` scopes ``(ts_j, te_j]``, so the gap needs every list with
        ``te_j > t0`` and ``ts_j < t``."""
        table = span.keys(self.config.placement_groups)
        want = None if pid is None else (pid,)
        keys: List[DeltaKey] = []
        for j in span.eventlists_overlapping(t0, t):
            keys += table.select(TAG_EVENTLIST, j, want)
            if include_aux:
                keys += table.select(TAG_AUX_EVENTLIST, j, want)
        return keys

    def _near_seed_candidate(
        self,
        span: TimespanInfo,
        pid: Optional[int],
        t: TimePoint,
        include_aux: bool,
    ) -> Optional[Tuple[TimePoint, List[DeltaKey]]]:
        """Nearest-in-time seeding decision for one cold partition — or,
        with ``pid=None``, for the whole materialized snapshot: the same
        rule over every partition.

        Probes the checkpoint cache for the latest state of ``(timespan,
        partition, aux)`` at some ``t0 < t`` and — using the build-time
        statistics (expected gap events from the event-rate histogram vs
        the full replay-from-root volume) — decides whether forward
        replay over the gap beats a cold fetch.  Returns ``(t0,
        gap_keys)`` when seeding wins, else ``None``.  Non-perturbing
        (planner-safe): callers holding the decision fetch the payload
        via ``lookup``.
        """
        cp = self.checkpoints
        if cp is None:
            return None
        found = cp.nearest(_state_series(span.tsid, pid, include_aux), t)
        if found is None:
            return None
        t0, _key = found
        if t0 >= t:
            # the exact-hit path handles t0 == t; never replay backward
            return None
        gap_keys = self._gap_eventlist_keys(span, pid, t0, t, include_aux)
        path_groups, ekeys = self._snapshot_plan(
            span, t, pids=None if pid is None else {pid},
            include_aux=include_aux,
        )
        num_cold = sum(len(g) for g in path_groups) + len(ekeys)
        if not prefer_near_seed(
            self.stats.span(span.tsid),
            range(span.num_pids) if pid is None else (pid,),
            t0,
            t,
            num_cold,
            len(gap_keys),
            self.config.cluster.cost_model,
            self.stats.calibration,
            leaf_time=span.checkpoints[span.leaf_at(t)],
        ):
            return None
        return t0, gap_keys

    def _capture_near_seed(
        self,
        span: TimespanInfo,
        pid: Optional[int],
        t: TimePoint,
        include_aux: bool,
    ) -> Optional[NearSeed]:
        """Decide *and capture* a near seed for one exact-missed
        partition (``pid=None``: the materialized snapshot): the
        checkpointed payload at ``t0`` (captured now, so a later eviction
        cannot strand the caller after the cold keys were dropped from
        the plan, and copied, because the caller replays it forward in
        place — :meth:`_seed_state` a partition state, the snapshot
        finalizer a graph), the seed time, and the gap keys.  ``None``
        when seeding loses the pricing or the entry vanished."""
        seed = self._near_seed_candidate(span, pid, t, include_aux)
        if seed is None:
            return None
        payload0 = self.checkpoints.lookup(
            _state_key(span.tsid, pid, seed[0], include_aux)
        )
        if payload0 is None:
            return None
        private = payload0.copy() if pid is None else _clone_state(payload0)
        return private, seed[0], seed[1]

    def _checkpoint_triage(
        self,
        span: TimespanInfo,
        pid: int,
        t: TimePoint,
        include_aux: bool,
        extra: Counters,
    ) -> Tuple[Optional[StatePayload], Optional[NearSeed]]:
        """How a plan gets one partition's state at ``t``, counted into
        ``extra``: ``(payload, None)`` on an exact checkpoint hit, ``(None,
        near seed)`` when seeding from an earlier checkpoint wins the
        pricing, ``(None, None)`` for a cold fetch (checkpoints off too)."""
        if self.checkpoints is None:
            return None, None
        payload = self.checkpoints.lookup(
            _state_key(span.tsid, pid, t, include_aux)
        )
        if payload is not None:
            extra.checkpoint_hits += 1
            return payload, None
        captured = self._capture_near_seed(span, pid, t, include_aux)
        if captured is not None:
            extra.checkpoint_near_hits += 1
        else:
            extra.checkpoint_misses += 1
        return None, captured

    @staticmethod
    def _with_gap_group(
        stage: FetchStage,
        near: Dict[int, NearSeed],
    ) -> FetchStage:
        """Append the near seedings' deduplicated gap keys to a stage."""
        if not near:
            return stage
        gap_union: List[DeltaKey] = []
        gseen: Set[DeltaKey] = set()
        for _payload0, _t0, gap_keys in near.values():
            for key in gap_keys:
                if key not in gseen:
                    gseen.add(key)
                    gap_union.append(key)
        return FetchStage(
            stage.label,
            stage.groups + (KeyGroup("near-gap", tuple(gap_union)),),
        )

    def _seed_state(
        self,
        span: TimespanInfo,
        pid: int,
        t: TimePoint,
        include_aux: bool,
        payload: StatePayload,
        t0: TimePoint,
        gap_keys: Sequence[DeltaKey],
        values: Dict[DeltaKey, object],
    ) -> Optional[PartialState]:
        """Advance a checkpointed partition state from ``t0`` to ``t`` by
        replaying only the gap eventlists (pure compute — no checkpoint
        admission).
        Exact for the same reason cold per-partition replay is: the build
        writes every event into the eventlist of each partition it
        touches, so the gap rows carry everything that moved this
        partition between the two times.  Returns ``None`` when a
        degraded fetch dropped any gap row — a stale seed must not pose
        as the state at ``t``."""
        if _degraded_pids(gap_keys, values):
            return None
        nodes, edge_attrs = payload  # private: the capture cloned it
        state = PartialState(scope=span.scope_of((pid,), include_aux))
        state.nodes = nodes
        state.edge_attrs = edge_attrs
        state.apply_eventlists(
            [values[key] for key in gap_keys], until=t, after=t0
        )
        return state

    @staticmethod
    def _merge_state(
        target: PartialState, nodes: Dict[NodeId, StaticNode],
        edge_attrs: Dict[Tuple, dict],
    ) -> None:
        """Fold replayed partition state into a merged view (first fold
        wins — boundary-replicated duplicates carry equal states).  Only
        reads its inputs, which may be a checkpoint's shared payload;
        the merged view aliases their values and may itself be an
        execution's :class:`ReplayShare` state that other plans read, so
        it is never replayed further and nothing folded in ever
        changes."""
        # one read of ``nodes`` (a property that freezes the pending
        # columnar applier), not one per folded node
        into_nodes, into_edges = target.nodes, target.edge_attrs
        for n, s in nodes.items():
            into_nodes.setdefault(n, s)
        for e, a in edge_attrs.items():
            into_edges.setdefault(e, a)

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

    def _node_histories_plan(
        self, nodes: Sequence[NodeId], ts: TimePoint, te: TimePoint
    ) -> Compiled:
        """Build the batched Algorithm-2 plan for ``nodes`` plus a
        finalizer that maps the executed plan's values back to one
        :class:`NodeHistory` per input node (input order, duplicates
        preserved).  Splitting plan from finalizer lets callers compose
        several history levels — and other plans — into one pipelined
        execution.  The third element counts the checkpoint hits/misses
        the plan resolved at build time (warm partitions contribute no
        fetch keys — their initial states come from the memoized replay);
        callers fold it into their fetch stats."""
        span = self._span_at(ts)
        ns = self.config.placement_groups
        extra = Counters()

        # metadata-only planning: one micro plan per distinct partition;
        # checkpointed partitions seed their replayed state instead (the
        # payload is captured now — a later eviction must not strand us
        # after the fetch keys were already dropped from the plan); a
        # nearby earlier checkpoint seeds forward replay over the gap
        # eventlists when the statistics price that under a cold fetch
        node_pid: Dict[NodeId, Optional[int]] = {}
        pid_plans: Dict[int, Tuple[List[List[DeltaKey]], List[DeltaKey]]] = {}
        seeded: Dict[int, StatePayload] = {}
        seeded_near: Dict[int, NearSeed] = {}
        chain_nodes: List[NodeId] = []
        for node in nodes:
            if node in node_pid:
                continue
            pid = span.pid_of(node)
            node_pid[node] = pid
            if (
                pid is not None
                and pid not in pid_plans
                and pid not in seeded
                and pid not in seeded_near
            ):
                payload, captured = self._checkpoint_triage(
                    span, pid, ts, False, extra
                )
                if payload is not None:
                    seeded[pid] = payload
                elif captured is not None:
                    seeded_near[pid] = captured
                else:
                    pid_plans[pid] = self._snapshot_plan(span, ts, pids={pid})
            if self._vc.has_chain(node):
                chain_nodes.append(node)

        micro_keys: List[DeltaKey] = []
        ev_keys: List[DeltaKey] = []
        gap_keys_union: List[DeltaKey] = []
        seen: Set[DeltaKey] = set()
        for pid in sorted(pid_plans):
            path_groups, ekeys = pid_plans[pid]
            for group in path_groups:
                for key in group:
                    if key not in seen:
                        seen.add(key)
                        micro_keys.append(key)
            for key in ekeys:
                if key not in seen:
                    seen.add(key)
                    ev_keys.append(key)
        for pid in sorted(seeded_near):
            for key in seeded_near[pid][2]:
                if key not in seen:
                    seen.add(key)
                    gap_keys_union.append(key)
        chain_keys = [version_chain_key(n, ns) for n in chain_nodes]

        plan = FetchPlan(
            f"node_histories({len(node_pid)} nodes, ts={ts}, te={te})"
        )
        plan.add_stage(
            "micros+chains",
            KeyGroup("micro-path", tuple(micro_keys)),
            KeyGroup("eventlist", tuple(ev_keys)),
            KeyGroup("near-gap", tuple(gap_keys_union)),
            KeyGroup("version-chain", tuple(chain_keys)),
        )

        def pointer_stage(values: Dict[DeltaKey, object]) -> Optional[FetchStage]:
            pointer_keys: List[DeltaKey] = []
            pseen: Set[DeltaKey] = set()
            for n in chain_nodes:
                chain = values.get(version_chain_key(n, ns))
                if chain is None:
                    _missing_chain(n)
                    continue
                for key in self._vc.pointers_in_range(chain, ts, te):
                    if key not in pseen:
                        pseen.add(key)
                        pointer_keys.append(key)
            if not pointer_keys:
                return None
            return FetchStage(
                "version-pointers",
                (KeyGroup("pointer", tuple(pointer_keys)),),
            )

        plan.add_factory(pointer_stage)

        def finalize(values: Dict[DeltaKey, object]) -> List[NodeHistory]:
            # reconstruct initial states once per partition (scoped loads
            # are independent per node, so sharing the replay is exact)
            initial: Dict[NodeId, Optional[StaticNode]] = {}
            by_pid: Dict[int, List[NodeId]] = {}
            for node, pid in node_pid.items():
                if pid is not None:
                    by_pid.setdefault(pid, []).append(node)
            replayed: Dict[int, PartialState] = {}
            if self.checkpoints is not None:
                # replay whole partitions (not just the queried members,
                # so the admitted checkpoints serve any later query over
                # these partitions) — cold and near-seeded ones together
                replayed = dict(self._replay_pids(
                    span,
                    {p for p in by_pid
                     if p not in seeded and p not in seeded_near},
                    {p: seeded_near[p] for p in by_pid if p in seeded_near},
                    ts, False, values, plans=pid_plans,
                ))
            for pid, members in by_pid.items():
                if pid in seeded:
                    nodes_map, _edges = seeded[pid]
                    for node in members:
                        initial[node] = nodes_map.get(node)
                    continue
                state = replayed.get(pid)
                if state is None:
                    # no checkpointing: scoped replay of just the members
                    # (``None`` again when a degraded fetch dropped the
                    # partition: they get no initial state this window)
                    state = self._replay_pid_state(
                        span, pid, ts, False, values, pid_plans.get(pid),
                        scope=set(members),
                    )
                for node in members:
                    initial[node] = (
                        state.node_state(node) if state is not None else None
                    )

            chains = {}
            for n in chain_nodes:
                chain = values.get(version_chain_key(n, ns))
                if chain is None:
                    _missing_chain(n)
                    continue
                chains[n] = chain
            histories: Dict[NodeId, NodeHistory] = {}
            for node in node_pid:
                changes: List[Event] = []
                if node in chains:
                    keys = self._vc.pointers_in_range(chains[node], ts, te)
                    bad = _degraded_pids(keys, values)
                    # filter_by_time bisects; filter_by_id materializes
                    # only the rows touching this node on columnar rows
                    changes = dedup_sorted(
                        ev
                        for key in keys
                        if key[3] not in bad
                        for ev in values[key]
                        .filter_by_time(ts, te).filter_by_id((node,))
                    )
                histories[node] = NodeHistory(
                    node, ts, te, initial.get(node), tuple(changes)
                )
            return [histories[node] for node in nodes]

        return plan, finalize, extra

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

    def _dead_center(self, node: NodeId, t: TimePoint) -> Exception:
        """The error for a k-hop center without a state at ``t``: the
        node is not alive — unless the active partial scope dropped the
        center's own partition, which is an availability failure, not a
        missing node."""
        span = self._span_at(t)
        collector = active_partial()
        label = f"ts{span.tsid}:p{span.pid_of(node)}"
        if collector is not None and label in collector.partitions:
            return PartitionUnavailable(
                f"partition of node {node} unavailable at t={t}",
                partitions=(label,),
            )
        return IndexError_(f"node {node} not alive at t={t}")

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

    def _khops_plan(
        self,
        centers: Sequence[NodeId],
        t: TimePoint,
        k: int,
        share: Optional[ReplayShare] = None,
    ) -> Compiled:
        """Build the shared-frontier k-hop plan plus a finalizer mapping
        the executed values to one graph per input center.

        The plan has one static stage (the centers' own partitions) and
        ``k`` factory stages; factory ``h`` applies the rows hop ``h - 1``
        fetched, advances every center's frontier, and emits one stage
        with the union of the still-missing micro-partition keys across
        all centers.  Checkpointed partitions are seeded directly into the
        merged state and never reach the plan; the returned counters
        record those hits (and the cold misses) for the caller's stats.

        ``share`` is the execution's :class:`ReplayShare`: the merged
        state at ``(timespan, t)`` and the partitions already folded into
        it are common to every plan handed the same share, so a stage
        replays only the partitions no batchmate has replayed yet and
        counts the rest as ``coalesced_replays``.  Everything else stays
        the plan's own — ``loaded``, ``covered``, members, frontiers,
        ``dropped`` — so it declares and fetches exactly the keys it
        would alone, and it reads the shared state only inside its *own*
        ``covered`` scope: a partition a degraded fetch dropped for this
        plan stays dropped for it even when a batchmate folded it in.
        Without a ``share`` the plan makes its own (same code, nothing to
        skip)."""
        span = self._span_at(t)
        include_aux = self.config.replicate_boundary
        order = list(dict.fromkeys(centers))
        alive0 = [c for c in order if span.pid_of(c) is not None]
        plan = FetchPlan(f"khops({len(order)} centers, t={t}, k={k})")
        extra = Counters()

        merged, held = (ReplayShare() if share is None else share).at(
            span.tsid, t, include_aux
        )
        covered: Set[NodeId] = set()
        loaded: Set[int] = set()
        # stages declared but not yet settled: the stage, its cold pid
        # set, and its nearest-checkpoint seedings (pid -> payload at t0,
        # t0, gap keys)
        pending: List[Tuple[FetchStage, Set[int], Dict[int, NearSeed]]] = []
        members: Dict[NodeId, Set[NodeId]] = {}
        frontier: Dict[NodeId, Set[NodeId]] = {}
        # per center, frontier candidates awaiting the alive-at-t filter
        candidates: Dict[NodeId, Set[NodeId]] = {}
        # partition labels a degraded fetch dropped during expansion.
        # Factory stages settle mid-execution — under a *batch* window
        # scope for coalesced execution — so by finalize time the drop
        # already happened silently; the plan must carry it forward so
        # finalize can fail strict requests typed (a k-hop with a lost
        # frontier partition would otherwise return a smaller graph
        # with no error) and charge allow_partial ones
        dropped: Set[str] = set()
        started = [False]
        hop = [0]

        def stage_for(pids: Set[int]) -> Optional[FetchStage]:
            pids = pids - loaded
            if not pids:
                return None
            near: Dict[int, NearSeed] = {}
            if self.checkpoints is not None:
                cold: Set[int] = set()
                for pid in sorted(pids):
                    payload, captured = self._checkpoint_triage(
                        span, pid, t, include_aux, extra
                    )
                    if payload is not None:
                        # seed the memoized state now; covered/merged are
                        # ready before the next frontier advance
                        loaded.add(pid)
                        covered.update(span.scope_of((pid,), include_aux))
                        if pid not in held:
                            held.add(pid)
                            self._merge_state(merged, *payload)
                    elif captured is not None:
                        near[pid] = captured
                    else:
                        cold.add(pid)
                pids = cold
                if not pids and not near:
                    return None
            stage, _path_groups, _ekeys = self._snapshot_stage(
                span, t, f"khop-frontier-{hop[0]}", pids=pids,
                include_aux=include_aux,
            )
            stage = self._with_gap_group(stage, near)
            loaded.update(pids)
            loaded.update(near)
            pending.append((stage, set(pids), near))
            return stage

        def settle(values: Dict[DeltaKey, object]) -> None:
            """Fold the fetched partitions the share does not hold yet
            into the merged state, then resolve which of the last hop's
            candidates are alive at ``t``."""
            for stage, cold, near in pending:
                rows = {group.role: group.keys for group in stage.groups}
                bad = _degraded_pids(
                    [key for keys in rows.values() for key in keys], values
                )
                for pid in bad:
                    dropped.add(f"ts{span.tsid}:p{pid}")
                good = (cold | near.keys()) - bad
                todo = good - held
                extra.coalesced_replays += len(good) - len(todo)
                if self.checkpoints is not None:
                    # per-partition replay, so each cold partition's
                    # state is admitted as a checkpoint and near-seeded
                    # partitions advance from their earlier checkpoint
                    # over just the gap eventlists
                    for _pid, state in self._replay_pids(
                        span, cold & todo,
                        {pid: near[pid] for pid in near.keys() & todo},
                        t, include_aux, values,
                    ):
                        self._merge_state(
                            merged, state.nodes, state.edge_attrs
                        )
                elif todo:
                    # one merged-scope replay over what is left: the
                    # path's rows in root->leaf order, then the events
                    state = PartialState(
                        scope=span.scope_of(todo, include_aux)
                    )
                    for key in rows["micro-path"]:
                        if key[3] in todo:
                            state.load_delta(values[key])
                    state.apply_eventlists(
                        [
                            values[key] for key in rows["eventlist"]
                            if key[3] in todo
                        ],
                        until=t,
                    )
                    self._merge_state(merged, state.nodes, state.edge_attrs)
                held.update(todo)
                # own-scope read rule: what this plan's fetch lost is
                # not covered, whatever a batchmate folded into the share
                covered.update(span.scope_of(good, include_aux))
            pending.clear()
            states = merged.nodes
            if not started[0]:
                started[0] = True
                for c in alive0:
                    if c in covered and c in states:
                        members[c] = {c}
                        frontier[c] = {c}
            else:
                for c, cand in candidates.items():
                    alive = {
                        n for n in cand if n in covered and n in states
                    }
                    members[c] |= alive
                    frontier[c] = alive
                candidates.clear()

        def advance(values: Dict[DeltaKey, object]) -> Optional[FetchStage]:
            settle(values)
            hop[0] += 1
            states = merged.nodes
            needed: Set[NodeId] = set()
            for c, front in frontier.items():
                cand: Set[NodeId] = set()
                for n in front:
                    cand |= states[n].E
                cand -= members[c]
                candidates[c] = cand
                needed |= cand - covered
            pids = {span.pid_of(n) for n in needed}
            pids.discard(None)
            return stage_for(pids)

        init = stage_for({span.pid_of(c) for c in alive0})
        if init is not None:
            plan.stages.append(init)
        for _ in range(k):
            plan.add_factory(advance)

        predicted = self._predicted_frontier_pids(span, alive0, k)

        def finalize(
            values: Dict[DeltaKey, object],
        ) -> List[Optional[Graph]]:
            settle(values)
            self._observe_frontier(k, predicted, len(loaded))
            _charge_dropped(dropped, "k-hop expansion")
            graphs = {
                c: merged.to_graph(members[c]) for c in members
            }
            return [graphs.get(c) for c in centers]

        return plan, finalize, extra

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

    def _khop_history_plan(
        self, node: NodeId, ts: TimePoint, te: TimePoint
    ) -> Compiled:
        """Algorithm 5 as one plan: the center's history stages, then a
        factory that reads the ``(neighbor, sub-interval)`` pairs off the
        fetched center and chains each neighbor's history stages behind
        its predecessor's.  Every sub-plan is built only once the one
        before it was finalized (and its replayed states checkpointed),
        so rounds, requests and checkpoint outcomes equal the inherited
        one-history-at-a-time loop exactly."""
        plan = FetchPlan(f"khop_history(node={node}, ts={ts}, te={te})")
        extra = Counters()
        histories: List[NodeHistory] = []
        todo: List[Tuple[NodeId, TimePoint, TimePoint]] = [(node, ts, te)]
        # what a degraded fetch dropped while the factories finalized
        # under a batch window's scope (cf. ``_khops_plan``'s ``dropped``)
        lost = PartialCollector()

        def chain_next() -> None:
            member, s, e = todo.pop(0)
            sub = self._node_histories_plan([member], s, e)
            plan.stages.extend(sub[0].stages)

            def settle(values: Dict[DeltaKey, object]) -> None:
                scope = lost if active_partial() is not None else None
                with partial_scope(scope):
                    history = self._finish(sub, values, extra)[0]
                if not histories:
                    todo.extend(neighbor_intervals(history))
                histories.append(history)
                if todo:
                    chain_next()

            plan.add_factory(settle)

        chain_next()

        def finalize(values: Dict[DeltaKey, object]) -> NeighborhoodHistory:
            _charge_dropped(lost.partitions, "neighborhood history")
            return NeighborhoodHistory(histories[0], tuple(histories[1:]))

        return plan, finalize, extra
