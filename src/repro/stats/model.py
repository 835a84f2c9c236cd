"""The :class:`GraphStatistics` artifact: build-time metadata the query
layer estimates with.

DeltaGraph-style systems get their wins from metadata-driven estimation
of what a temporal query will touch ("Efficient Snapshot Retrieval over
Historical Graph Data", Khurana & Deshpande) and from knowing delta
density over time to pick replay spans ("On Graph Deltas for Historical
Queries", Koloniari et al.).  Before this module the reproduction
persisted neither: without boundary replication the planner's
Algorithm-4 bound degenerated to *every* partition in the span, and the
apply-cost constants were fixed guesses.

The artifact is collected during TGI construction (``repro.index.tgi
.build``), persisted alongside the index (storage format 5), and read by
three consumers:

- :class:`~repro.index.tgi.planner.TGIPlanner` turns per-partition
  degree summaries and boundary-cut weights into an *expected-frontier*
  k-hop bound (:func:`expected_khop_pids`) — a real expected-cost
  estimate within the sound cut-adjacency bound (every span has
  statistics: the build records them);
- :class:`~repro.kvstore.cost.CostModel` apply constants default to the
  build-time :class:`ApplyCalibration` measurements (actual decode
  ms/KiB and replay ms/item on this machine);
- the nearest-in-time checkpoint seeding path prices forward replay from
  a warm state at ``t0 < t`` against a cold fetch using the per-partition
  event-rate histogram (:meth:`TimespanStats.events_between`), by one
  rule whatever the state's extent: :func:`prefer_near_seed` sums over
  the partitions it is given — one for a partition checkpoint, all of
  them for a materialized snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.types import TimePoint

#: Number of event-rate buckets per timespan (histogram resolution).
DEFAULT_STATS_BUCKETS = 16

#: Safety margin applied to the modeled frontier before converting
#: reached nodes into expected partitions: the growth model ignores that
#: one well-connected center can beat the partition's mean fan-out, so
#: the occupancy estimate is fed an inflated population.
FRONTIER_MARGIN = 1.5

#: Fallback replay cost (ms/item) when neither the cost model nor a
#: calibration carries one (mirrors kvstore.cost.DEFAULT_REPLAY_PER_ITEM_MS
#: without importing it — stats must stay import-light for pickling).
_FALLBACK_REPLAY_MS = 0.01


@dataclass(frozen=True)
class ApplyCalibration:
    """Measured client-side apply constants on the build machine.

    Attributes:
        apply_per_kb_ms: measured payload-decode time per raw KiB.
        replay_per_item_ms: measured replay time per delta component /
            event applied into query state.
        sample_rows: rows the decode microbenchmark timed.
        sample_items: components/events the replay microbenchmark timed.
        items_per_kb: observed replay items per raw KiB over the sampled
            rows (0 = not measured).  Feeds the planner's metadata-only
            apply estimates, replacing the fixed density guess — columnar
            payloads pack far more events per KiB than pickled ones.
    """

    apply_per_kb_ms: float
    replay_per_item_ms: float
    sample_rows: int = 0
    sample_items: int = 0
    items_per_kb: float = 0.0


@dataclass(frozen=True)
class PartitionStats:
    """Summary of one micro-partition within one timespan.

    Degrees are over the span's *collapsed* graph Ω(Gτ) — the same graph
    the partitioning ran on — so they bound what any query inside the
    span can traverse.
    """

    pid: int
    nodes: int
    internal_edges: int
    cut_edges: int
    degree_sum: int
    degree_max: int
    events: int
    events_per_bucket: Tuple[int, ...]

    @property
    def avg_degree(self) -> float:
        return self.degree_sum / self.nodes if self.nodes else 0.0


@dataclass(frozen=True)
class TimespanStats:
    """Per-timespan statistics: partition summaries, boundary-cut
    weights between partition pairs, and an event-rate histogram
    bucketed over the span's time range.

    Attributes:
        bucket_bounds: ``buckets + 1`` monotone time points; bucket ``i``
            covers ``(bucket_bounds[i], bucket_bounds[i + 1]]``, matching
            the half-open event scopes used everywhere else.
        cut_weights: ``pid -> {other_pid -> collapsed cut-edge count}``;
            symmetric, zero entries omitted.
    """

    tsid: int
    t_start: TimePoint
    t_end: TimePoint
    nodes: int
    edges: int
    num_pids: int
    events: int
    bucket_bounds: Tuple[float, ...]
    partitions: Dict[int, PartitionStats]
    cut_weights: Dict[int, Dict[int, int]]

    @property
    def avg_degree(self) -> float:
        if not self.nodes:
            return 0.0
        return sum(p.degree_sum for p in self.partitions.values()) / self.nodes

    def __getstate__(self):
        # the k-hop estimate memo (see expected_khop_pids) is derived;
        # persisted statistics never carry it
        state = dict(self.__dict__)
        state.pop("_khop_memo", None)
        return state

    def adjacent(self, pid: int) -> Dict[int, int]:
        """Partitions sharing a collapsed cut edge with ``pid``."""
        return self.cut_weights.get(pid, {})

    def reachable_pids(self, pid0: int, hops: int) -> Set[int]:
        """Partitions within ``hops`` levels of ``pid0`` in the
        boundary-cut adjacency graph.

        A node reached in ``h`` graph hops lies in a partition connected
        to the start partition by a path of at most ``h`` cut edges, so
        this is a *sound* superset of the partitions any ``hops``-hop
        traversal from a node of ``pid0`` can touch.
        """
        seen: Set[int] = {pid0}
        frontier: Set[int] = {pid0}
        for _ in range(hops):
            nxt: Set[int] = set()
            for pid in frontier:
                nxt |= set(self.cut_weights.get(pid, {}))
            nxt -= seen
            if not nxt:
                break
            seen |= nxt
            frontier = nxt
        return seen

    # -- event-rate histogram ------------------------------------------
    def events_between(
        self, pid: int, t0: TimePoint, t1: TimePoint
    ) -> float:
        """Expected number of events touching ``pid`` in ``(t0, t1]``,
        pro-rated inside partially-covered buckets."""
        part = self.partitions.get(pid)
        if part is None or t1 <= t0:
            return 0.0
        bounds = self.bucket_bounds
        total = 0.0
        for i, count in enumerate(part.events_per_bucket):
            lo, hi = bounds[i], bounds[i + 1]
            if hi <= t0 or lo >= t1:
                continue
            width = hi - lo
            overlap = min(hi, t1) - max(lo, t0)
            frac = overlap / width if width > 0 else 1.0
            total += count * max(0.0, min(1.0, frac))
        return total


@dataclass
class GraphStatistics:
    """The whole artifact: one :class:`TimespanStats` per built timespan
    plus the machine's :class:`ApplyCalibration` (measured once per
    build).  Persisted inside the index envelope; format-gated so old
    files fail loudly instead of planning without statistics."""

    spans: Dict[int, TimespanStats] = field(default_factory=dict)
    calibration: Optional[ApplyCalibration] = None

    def span(self, tsid: int) -> Optional[TimespanStats]:
        return self.spans.get(tsid)

    def __bool__(self) -> bool:
        return bool(self.spans)


@dataclass(frozen=True)
class KhopEstimate:
    """Expected-frontier bound for one Algorithm-4 plan.

    Attributes:
        pids: the expected partition set (start partition first, then
            greedy by boundary-cut connectivity to the growing set).
        reached_nodes: modeled node count within ``k`` hops (with the
            safety margin applied).
        candidates: size of the sound cut-adjacency bound the expected
            set was drawn from.
    """

    pids: Tuple[int, ...]
    reached_nodes: float
    candidates: int


def expected_khop_pids(
    span: TimespanStats,
    pid0: int,
    k: int,
    candidates: Optional[Iterable[int]] = None,
) -> KhopEstimate:
    """Expected partitions an Algorithm-4 ``k``-hop from a node of
    ``pid0`` touches.

    The frontier model: hop 1 fans out by the start partition's mean
    collapsed degree, later hops by the span's mean degree minus one
    (the edge walked in arrives from a counted node), with a logistic
    saturation term — a frontier that already covers much of the span
    stops finding new nodes.  Reached nodes are then inflated by
    :data:`FRONTIER_MARGIN` and converted into an expected partition
    count via the occupancy bound ``E = Σ_pid 1 - (1 - |pid| / n) ^
    reached`` over the candidate partitions.  The concrete pid set is
    grown greedily from ``pid0`` by boundary-cut weight to the
    already-selected set, so the expectation lands on the partitions a
    traversal is actually likely to enter.

    The estimate is a pure function of the (immutable) statistics, so it
    is memoised on ``span`` per ``(pid0, k, candidates)``: the memo stays
    bounded by ``num_pids x distinct k`` however long the index serves.
    """
    cand_set = None if candidates is None else frozenset(candidates)
    memo = span.__dict__.setdefault("_khop_memo", {})
    slot = (pid0, k, cand_set)
    estimate = memo.get(slot)
    if estimate is None:
        estimate = memo[slot] = _evaluate_khop_pids(
            span, pid0, k, cand_set, FRONTIER_MARGIN
        )
    return estimate


def _evaluate_khop_pids(
    span: TimespanStats,
    pid0: int,
    k: int,
    candidates: Optional[FrozenSet[int]],
    margin: float,
) -> KhopEstimate:
    """One uncached evaluation of :func:`expected_khop_pids`, at any
    occupancy ``margin``."""
    cand: List[int] = sorted(
        candidates if candidates is not None
        else span.reachable_pids(pid0, k)
    )
    if pid0 not in cand:
        cand.append(pid0)
    total_nodes = max(1, span.nodes)
    p0 = span.partitions.get(pid0)
    d_first = (
        p0.avg_degree if p0 is not None and p0.nodes else span.avg_degree
    )
    d_later = max(span.avg_degree - 1.0, 1.0)
    frontier = 1.0
    reached = 1.0
    for hop in range(max(0, k)):
        d = max(d_first, 1.0) if hop == 0 else d_later
        frontier = frontier * d * max(0.0, 1.0 - reached / total_nodes)
        reached = min(reached + frontier, float(total_nodes))
    reached = min(reached * margin, float(total_nodes))

    sizes = {
        pid: span.partitions[pid].nodes if pid in span.partitions else 0
        for pid in cand
    }
    expected = 0.0
    for pid in cand:
        if sizes[pid] > 0:
            expected += 1.0 - (1.0 - sizes[pid] / total_nodes) ** reached
    count = min(len(cand), max(1, math.ceil(expected)))

    chosen: List[int] = [pid0]
    # one integer score per unchosen candidate, ordered as the greedy
    # growth picks — cut weight to the growing selection, then size,
    # then lowest pid — so each pick is one max over the scores
    num = max(cand) + 1  # partition ids are 0 .. num_pids - 1
    unit = (max(sizes.values()) + 1) * num  # one cut edge's worth
    score: Dict[int, int] = {
        pid: sizes[pid] * num - pid for pid in cand if pid != pid0
    }

    def connect(pick: int) -> None:
        for other, w in span.adjacent(pick).items():
            if other in score:
                score[other] += w * unit

    connect(pid0)
    while len(chosen) < count and score:
        pick = max(score, key=score.__getitem__)
        chosen.append(pick)
        del score[pick]
        connect(pick)
    return KhopEstimate(tuple(chosen), reached, len(cand))


def prefer_near_seed(
    span: Optional[TimespanStats],
    pids: Iterable[int],
    t0: TimePoint,
    t: TimePoint,
    num_cold_keys: int,
    num_gap_keys: int,
    model,
    calibration: Optional[ApplyCalibration] = None,
    leaf_time: Optional[TimePoint] = None,
) -> bool:
    """Whether forward-replaying a checkpointed state from ``t0`` beats a
    cold fetch-and-replay at ``t`` — for the state of the partitions
    ``pids``: one for a partition checkpoint, every partition of the span
    for a materialized snapshot (a snapshot touches them all).

    Both sides are priced with the cost model's per-request constants and
    a replay cost per item — the model's own ``replay_per_item_ms`` when
    apply work is costed, else the calibrated measurement, else a small
    default.  The event-rate histogram supplies the expected replay
    volumes, summed over ``pids``; without statistics the decision
    degrades to comparing fetch key counts.

    ``leaf_time`` is the tree-leaf checkpoint the cold path would replay
    forward from: events before it are already materialized inside the
    micro-delta path (counted by the state-size term), so the cold event
    term covers only ``(leaf_time, t]`` — without it the cold side would
    be overpriced and near-seeding chosen too eagerly.
    """
    per_key = model.seek_ms + model.rtt_ms
    replay_ms = getattr(model, "replay_per_item_ms", 0.0)
    if replay_ms <= 0.0:
        replay_ms = (
            calibration.replay_per_item_ms
            if calibration is not None and calibration.replay_per_item_ms > 0
            else _FALLBACK_REPLAY_MS
        )
    if span is None:
        return num_gap_keys < num_cold_keys
    cold_from = leaf_time if leaf_time is not None else span.t_start - 1
    gap_events = 0
    cold_items = 0
    for pid in pids:
        gap_events += span.events_between(pid, t0, t)
        part = span.partitions.get(pid)
        if part is not None:
            cold_items += part.nodes + part.internal_edges + part.cut_edges
        cold_items += span.events_between(pid, cold_from, t)
    near_cost = num_gap_keys * per_key + gap_events * replay_ms
    cold_cost = num_cold_keys * per_key + cold_items * replay_ms
    return near_cost < cold_cost
