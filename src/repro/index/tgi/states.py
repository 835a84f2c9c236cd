"""Partition states: the one way a TGI plan gets "the replayed state of
these micro-partitions at ``t``".

Every plan that is not a whole snapshot starts there — a k-hop expands
over the states of the partitions its frontier reaches, a node history
reads its nodes' initial states out of theirs — and every such plan
goes through one :class:`PartitionStates` loader:

- :meth:`PartitionStates.stage` *triages* the partitions it is asked for
  (:func:`triage`): an exact checkpoint hit is folded into the merged
  state at once; a partition with a nearby earlier checkpoint the
  statistics price under a cold fetch is *near-seeded* (payload captured
  now, only the gap eventlists fetched); the rest are fetched cold, root
  to leaf.  It returns the one :class:`~repro.exec.plan.FetchStage` the
  plan declares, built by :func:`partition_stage`.
- :meth:`PartitionStates.settle` takes the executed values, drops
  partitions a degraded fetch lost — whole, never patched — replays what
  the execution's :class:`~repro.index.tgi.query.ReplayShare` does not
  hold yet, and folds it in: whole partitions for a shared or
  checkpointing loader, only the nodes its plan reads for one nobody
  checkpoints or shares.

The planner runs the same :func:`triage` without counters or captures
and hands its outcome to the same :func:`partition_stage`, so the stage
a plan is priced on is the stage it fetches — label, roles and keys.

**The self-containment invariant.**  A partition's rows — primary, or
primary plus auxiliary under ``replicate_boundary`` — replay to the
*complete* state of every node in its scope (members, plus boundary
replicas) and the *complete* attribute dict of every edge with an
endpoint in that scope: the build writes each attributed edge into the
micro of every partition whose scope it touches and each event into the
eventlist of every partition it touches (``index/tgi/build.py``; "either
endpoint" is also the rule ``PartialState.load_delta`` and
``apply_event`` filter by).  Two partitions covering the same node or
edge therefore replay it to equal values, which is what makes the
first-fold-wins merge, per-partition checkpoints and forward seeding
from an earlier checkpoint exact.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.deltas.base import StaticNode
from repro.errors import PartitionUnavailable
from repro.exec import FetchPlan, FetchStage, KeyGroup
from repro.graph.static import Graph
from repro.index.tgi.layout import (
    DeltaKey,
    TAG_AUX_EVENTLIST,
    TAG_EVENTLIST,
    TimespanInfo,
)
from repro.index.tgi.query import PartialState, ReplayShare
from repro.kvstore.cost import Counters
from repro.kvstore.degrade import active_partial, partition_label
from repro.obs.trace import current_span, use_span
from repro.stats.model import prefer_near_seed
from repro.types import NodeId, TimePoint

#: Checkpoint payload for a replayed partition: (node states, edge attrs).
StatePayload = Tuple[Dict[NodeId, StaticNode], Dict[Tuple, dict]]
#: A nearest-in-time seeding: (t0, gap keys) as the planner's probe sees
#: it, plus — for a plan that will execute — the private payload at t0:
#: a partition state, or the whole graph for a snapshot.
NearSeed = Tuple[TimePoint, List[DeltaKey], Union[StatePayload, Graph]]
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


# ----------------------------------------------------------------------
# nearest-in-time checkpoint seeding
# ----------------------------------------------------------------------
def gap_eventlist_keys(
    tgi,
    span: TimespanInfo,
    pid: Optional[int],
    t0: TimePoint,
    t: TimePoint,
    include_aux: bool,
) -> List[DeltaKey]:
    """Eventlist keys holding ``pid``'s events — every partition's, for
    ``pid=None`` — in ``(t0, t]``: the replay gap between a checkpointed
    state at ``t0`` and a query at ``t``.  Eventlist ``j`` scopes
    ``(ts_j, te_j]``, so the gap needs every list with ``te_j > t0`` and
    ``ts_j < t``."""
    table = span.keys(tgi.config.placement_groups)
    want = None if pid is None else (pid,)
    keys: List[DeltaKey] = []
    for j in span.eventlists_overlapping(t0, t):
        keys += table.select(TAG_EVENTLIST, j, want)
        if include_aux:
            keys += table.select(TAG_AUX_EVENTLIST, j, want)
    return keys


def near_seed_candidate(
    tgi,
    span: TimespanInfo,
    pid: Optional[int],
    t: TimePoint,
    include_aux: bool,
) -> Optional[Tuple[TimePoint, List[DeltaKey]]]:
    """Nearest-in-time seeding decision for one exact-missed partition —
    or, with ``pid=None``, for the whole materialized snapshot: the same
    rule over every partition.

    Probes the checkpoint cache for the latest state of ``(timespan,
    partition, aux)`` at some ``t0 < t`` and — using the build-time
    statistics (expected gap events from the event-rate histogram vs
    the full replay-from-root volume) — decides whether forward replay
    over the gap beats a cold fetch.  Returns ``(t0, gap_keys)`` when
    seeding wins, else ``None``.  Non-perturbing (planner-safe).
    Seeding is exact by the self-containment invariant: the gap rows
    carry everything that moved the state between the two times.
    """
    cp = tgi.checkpoints
    if cp is None:
        return None
    found = cp.nearest(_state_series(span.tsid, pid, include_aux), t)
    if found is None:
        return None
    t0, _key = found
    if t0 >= t:
        # the exact-hit path handles t0 == t; never replay backward
        return None
    gap_keys = gap_eventlist_keys(tgi, span, pid, t0, t, include_aux)
    path_groups, ekeys = tgi._snapshot_plan(
        span, t, pids=None if pid is None else {pid},
        include_aux=include_aux,
    )
    num_cold = sum(len(g) for g in path_groups) + len(ekeys)
    if not prefer_near_seed(
        tgi.stats.span(span.tsid),
        range(span.num_pids) if pid is None else (pid,),
        t0,
        t,
        num_cold,
        len(gap_keys),
        tgi.config.cluster.cost_model,
        tgi.stats.calibration,
        leaf_time=span.checkpoints[span.leaf_at(t)],
    ):
        return None
    return t0, gap_keys


def capture_near_seed(
    tgi,
    span: TimespanInfo,
    pid: Optional[int],
    t: TimePoint,
    include_aux: bool,
) -> Optional[NearSeed]:
    """Decide *and capture* a near seed (:func:`near_seed_candidate`) for
    a plan that will execute: the seed time, the gap keys and the
    checkpointed payload at ``t0`` — captured now, so a later eviction
    cannot strand the plan after the cold keys were left out of it, and
    copied, because the plan replays it forward in place (a partition
    state in :meth:`PartitionStates.settle`, a graph in the snapshot
    finalizer — a copy-on-write copy, so only the nodes the gap's events
    touch get containers of their own).  ``None`` when seeding loses the
    pricing or the entry vanished."""
    seed = near_seed_candidate(tgi, span, pid, t, include_aux)
    if seed is None:
        return None
    t0, gap_keys = seed
    payload0 = tgi.checkpoints.lookup(
        _state_key(span.tsid, pid, t0, include_aux)
    )
    if payload0 is None:
        return None
    private = payload0.copy() if pid is None else _clone_state(payload0)
    return t0, gap_keys, private


def triage(
    tgi,
    span: TimespanInfo,
    pids: Iterable[int],
    t: TimePoint,
    include_aux: bool,
    extra: Optional[Counters] = None,
) -> Tuple[Dict[int, object], Dict[int, tuple], List[int]]:
    """How a plan gets each partition's state at ``t``: ``(warm, near,
    cold)`` — exact checkpoint hits, near seeds that win the pricing, and
    the partitions left to fetch from the root (all of them with
    checkpoints off), each in ascending pid order.

    With ``extra`` — a plan that will execute — hits are counted lookups
    mapping to the shared payload, seeds are captured
    (:func:`capture_near_seed`) and the three outcomes are counted into
    ``extra``.  Without it — the planner pricing that plan — the same
    decisions are read off ``peek`` and :func:`near_seed_candidate`:
    nothing is counted, promoted or copied, ``warm`` maps to ``True`` and
    ``near`` to ``(t0, gap_keys)``."""
    warm: Dict[int, object] = {}
    near: Dict[int, tuple] = {}
    cold: List[int] = []
    cp = tgi.checkpoints
    if cp is None:
        return warm, near, sorted(pids)
    exact, seed_for = (
        (cp.peek, near_seed_candidate) if extra is None
        else (cp.lookup, capture_near_seed)
    )
    for pid in sorted(pids):
        found = exact(_state_key(span.tsid, pid, t, include_aux))
        if found:  # ``True``, or the (nodes, edge attrs) pair
            warm[pid] = found
            continue
        seed = seed_for(tgi, span, pid, t, include_aux)
        if seed is not None:
            near[pid] = seed
        else:
            cold.append(pid)
    if extra is not None:
        extra.checkpoint_hits += len(warm)
        extra.checkpoint_near_hits += len(near)
        extra.checkpoint_misses += len(cold)
    return warm, near, cold


def partition_stage(
    tgi,
    span: TimespanInfo,
    t: TimePoint,
    include_aux: bool,
    label: str,
    near: Dict[int, tuple],
    cold: List[int],
) -> Tuple[
    Optional[FetchStage], List[DeltaKey], List[DeltaKey], List[DeltaKey]
]:
    """The stage fetching what :func:`triage` left — the cold
    partitions' root→leaf paths and trailing eventlists, the near-seeded
    ones' gap eventlists — with those three key lists; ``None`` for the
    stage when every partition is warm.  :meth:`PartitionStates.stage`
    declares it; the planner prices it."""
    if not near and not cold:
        return None, [], [], []
    stage, path_keys, ekeys = tgi._snapshot_stage(
        span, t, label, pids=set(cold), include_aux=include_aux
    )
    gap_keys = [key for seed in near.values() for key in seed[1]]
    if near:
        stage = FetchStage(
            label, stage.groups + (KeyGroup("near-gap", tuple(gap_keys)),)
        )
    return stage, path_keys, ekeys, gap_keys


@contextmanager
def _partition_span(pid: int, seeded: bool) -> Iterator[None]:
    """When traced, one child span per replayed partition, current while
    it replays so ``events_applied`` (and any nested work) attributes to
    it."""
    parent = current_span()
    if parent is None:
        yield
        return
    sub = parent.child("apply.partition", pid=pid, seeded=seeded)
    try:
        with use_span(sub):
            yield
    finally:
        sub.end()


class PartitionStates:
    """The replayed states of one plan's partitions at ``(span, t)``.

    ``merged`` is the one :class:`PartialState` everything is folded
    into; with a ``share`` it — and the set of partitions already folded
    in — is common to every plan of the execution handed the same share,
    so a partition several plans load is replayed by the first that
    settles it and *read* by the rest (``extra.coalesced_replays``).
    Everything else is the plan's own: ``loaded`` (pids triaged),
    ``covered`` (the node scope it may read ``merged`` in) and
    ``dropped`` (labels of partitions a degraded fetch lost).  A plan
    reads ``merged`` only inside its own ``covered`` scope — a partition
    its fetch lost stays lost for it even when a batchmate folded it in
    — and declares exactly the keys it would alone.

    **One replay rule.**  A loader nobody checkpoints or shares replays
    only the nodes its plan reads, growing stage by stage; a shared or
    checkpointing loader replays whole partitions.  ``only`` is what the
    plan reads — a history plan's fixed node set, or a k-hop's alive
    centers, a set the plan widens by every hop's candidates — and is
    ignored with checkpoints on or a second plan attached to the share
    (:meth:`ReplayShare.sole`; every plan attaches before the first
    settles).  A narrowed settle replays the covered nodes of ``only``
    it has not replayed yet, from the fetched rows of every settled
    partition whose scope holds them, in level-major root→leaf order.
    """

    def __init__(
        self,
        tgi,
        span: TimespanInfo,
        t: TimePoint,
        include_aux: bool,
        extra: Counters,
        share: Optional[ReplayShare] = None,
        only: Optional[Set[NodeId]] = None,
    ) -> None:
        self.tgi = tgi
        self.span = span
        self.t = t
        self.include_aux = include_aux
        self.extra = extra
        self.only = only
        self._share = ReplayShare() if share is None else share
        self.merged, self._held = self._share.at(span.tsid, t, include_aux)
        self.loaded: Set[int] = set()
        self.covered: Set[NodeId] = set()
        self.dropped: Set[str] = set()
        # stages declared but not yet settled: the cold partitions with
        # their path and eventlist keys (kept from the one tree walk that
        # listed them), and the near seeds with their gap keys
        self._pending: List[Tuple[
            List[int], List[DeltaKey], List[DeltaKey],
            Dict[int, NearSeed], List[DeltaKey],
        ]] = []
        # narrowed replay: the settled partitions' path and eventlist
        # keys in stage order, and the nodes replayed so far
        self._path_keys: List[DeltaKey] = []
        self._list_keys: List[DeltaKey] = []
        self._replayed: Set[NodeId] = set()

    def stage(self, pids: Iterable[int], label: str) -> Optional[FetchStage]:
        """Triage the not-yet-loaded partitions among ``pids`` and return
        the stage fetching what their states need (``None``: nothing —
        all warm, or all loaded before).  Warm states are readable at
        once; the rest after the :meth:`settle` that follows the fetch."""
        span, t, include_aux = self.span, self.t, self.include_aux
        warm, near, cold = triage(
            self.tgi, span, set(pids) - self.loaded, t, include_aux,
            self.extra,
        )
        self.loaded.update(warm, near, cold)
        for pid, payload in warm.items():
            if pid not in self._held:
                self._held.add(pid)
                self._fold(*payload)
        self.covered.update(span.scope_of(warm, include_aux))
        stage, path_keys, ekeys, gap_keys = partition_stage(
            self.tgi, span, t, include_aux, label, near, cold
        )
        if stage is not None:
            self._pending.append((cold, path_keys, ekeys, near, gap_keys))
        return stage

    def settle(self, values: Dict[DeltaKey, object]) -> None:
        """Fold every declared stage's partitions into ``merged`` from the
        fetched ``values``.  A partition with any row missing is dropped
        whole (:func:`_degraded_pids`); one the share already holds is
        read, not replayed.  With checkpoints on, each partition is
        replayed on its own — a near-seeded one forward from its captured
        payload over just the gap — and its state admitted, so it serves
        any later query over that partition; with checkpoints off, one
        replay over the merged scope of what is left — or, for a loader
        nobody checkpoints or shares, over just the covered nodes of
        ``only`` not replayed yet (:meth:`_replay_reads`)."""
        span, t, include_aux = self.span, self.t, self.include_aux
        held = self._held
        narrowed = (
            self.only is not None and self.tgi.checkpoints is None
            and self._share.sole(span.tsid, t, include_aux)
        )
        for cold, path_keys, ekeys, near, gap_keys in self._pending:
            bad = _degraded_pids(path_keys + ekeys + gap_keys, values)
            self.dropped.update(f"ts{span.tsid}:p{pid}" for pid in bad)
            good = (set(cold) | near.keys()) - bad
            todo = good - held
            self.extra.coalesced_replays += len(good) - len(todo)
            if narrowed:
                # checkpoints are off: every partition is cold
                self._path_keys += [k for k in path_keys if k[3] in good]
                self._list_keys += [k for k in ekeys if k[3] in good]
            elif self.tgi.checkpoints is not None:
                rows: Dict[int, Tuple[list, list]] = {
                    pid: ([], []) for pid in cold
                }
                for key in path_keys:
                    rows[key[3]][0].append(key)
                for key in ekeys:
                    rows[key[3]][1].append(key)
                for pid in [p for p in cold if p in todo] + [
                    p for p in near if p in todo
                ]:
                    scope = span.scope_of((pid,), include_aux)
                    seed = near.get(pid)
                    with _partition_span(pid, seeded=seed is not None):
                        if seed is None:
                            state = self._replay(scope, *rows[pid], values)
                        else:
                            t0, gap, payload = seed
                            state = self._replay(
                                scope, (), gap, values, payload, t0
                            )
                    self.tgi.checkpoints.admit(
                        _state_key(span.tsid, pid, t, include_aux),
                        (state.nodes, state.edge_attrs),
                        series=_state_series(span.tsid, pid, include_aux),
                        t=t,
                    )
                    self._fold(state.nodes, state.edge_attrs)
            elif todo:
                state = self._replay(
                    span.scope_of(todo, include_aux),
                    [key for key in path_keys if key[3] in todo],
                    [key for key in ekeys if key[3] in todo],
                    values,
                )
                self._fold(state.nodes, state.edge_attrs)
            held.update(todo)
            self.covered.update(span.scope_of(good, include_aux))
        self._pending.clear()
        if narrowed:
            self._replay_reads(values)

    def _replay_reads(self, values: Dict[DeltaKey, object]) -> None:
        """Replay and fold the covered nodes of ``only`` not replayed yet,
        from the rows of every settled partition whose *scope* holds one
        of them — under ``replicate_boundary`` a partition's auxiliary
        rows hold its boundary nodes too — with the path rows put back in
        level-major root→leaf order across the stages that fetched
        them."""
        want = (self.covered & self.only) - self._replayed
        if not want:
            return
        span, include_aux = self.span, self.include_aux
        level = {
            did: i for i, did in enumerate(
                span.tree.path_to_leaf(span.leaf_at(self.t))
            )
        }
        pids = {
            pid for pid in self._held
            if not want.isdisjoint(span.scope_of((pid,), include_aux))
        }
        state = self._replay(
            want,
            sorted(
                (key for key in self._path_keys if key[3] in pids),
                key=lambda key: level[key[2][1]],
            ),
            [key for key in self._list_keys if key[3] in pids],
            values,
        )
        self._fold(state.nodes, state.edge_attrs)
        self._replayed |= want

    def _replay(
        self,
        scope: Set[NodeId],
        path_keys: Sequence[DeltaKey],
        list_keys: Sequence[DeltaKey],
        values: Dict[DeltaKey, object],
        seed: Optional[StatePayload] = None,
        after: Optional[TimePoint] = None,
    ) -> PartialState:
        """The state of ``scope`` at ``t``: the path's rows loaded in
        root→leaf order — or ``seed``, a private payload at ``after`` —
        then the eventlists' events in ``(after, t]``.  Counts the scope
        as ``states_replayed`` on the current span, when traced."""
        trace = current_span()
        if trace is not None:
            trace.inc("states_replayed", len(scope))
        state = PartialState(scope=scope)
        if seed is not None:
            state.nodes, state.edge_attrs = seed
        for key in path_keys:
            state.load_delta(values[key])
        state.apply_eventlists(
            [values[key] for key in list_keys], until=self.t, after=after
        )
        return state

    def _fold(
        self, nodes: Dict[NodeId, StaticNode], edge_attrs: Dict[Tuple, dict]
    ) -> None:
        """Fold a replayed partition state into ``merged``: first fold
        wins, which loses nothing — by the self-containment invariant a
        node or edge two partitions both cover replays to equal values
        in each.  Only reads its inputs, which may be a checkpoint's
        shared payload; ``merged`` aliases their values and may be an
        execution's :class:`ReplayShare` state other plans read, so it is
        never replayed further and nothing folded in ever changes."""
        # one read of ``nodes`` (a property that freezes the pending
        # columnar applier), not one per folded node
        into_nodes, into_edges = self.merged.nodes, self.merged.edge_attrs
        for n, s in nodes.items():
            into_nodes.setdefault(n, s)
        for e, a in edge_attrs.items():
            into_edges.setdefault(e, a)
