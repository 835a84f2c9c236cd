"""Build-time collection of :class:`~repro.stats.model.TimespanStats`.

Runs inside ``build_timespan`` with the inputs the builder already has —
the span's collapsed graph, the micro-partition assignment, and the
per-partition event times its eventlist routing produced — so
statistics collection adds one pass over the collapsed edges and no
extra store reads.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import chain as concat
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.stats.model import (
    DEFAULT_STATS_BUCKETS,
    PartitionStats,
    TimespanStats,
)
from repro.types import EdgeId, NodeId, TimePoint


def _bucket_bounds(
    t_start: TimePoint, t_end: TimePoint, buckets: int
) -> Tuple[float, ...]:
    """``buckets + 1`` monotone bounds over ``(t_start - 1, t_end)``.

    The lower bound sits just before the span's first event time (event
    scopes are half-open ``(lo, hi]``); degenerate ranges collapse to a
    single bucket."""
    lo = float(t_start) - 1.0
    hi = float(max(t_end, t_start))
    if hi <= lo:
        hi = lo + 1.0
    buckets = max(1, buckets)
    step = (hi - lo) / buckets
    bounds = [lo + i * step for i in range(buckets)]
    bounds.append(hi)
    return tuple(bounds)


def collect_timespan_stats(
    tsid: int,
    t_start: TimePoint,
    t_end: TimePoint,
    collapsed_nodes: Sequence[NodeId],
    collapsed_edges: Sequence[EdgeId],
    node_pid: Dict[NodeId, int],
    num_pids: int,
    pid_times: Mapping[int, Sequence[TimePoint]],
    events: int,
    buckets: int = DEFAULT_STATS_BUCKETS,
) -> TimespanStats:
    """Summarize one timespan of ``events`` events for the statistics
    artifact.

    Degrees, internal/cut edge counts and pairwise cut weights are over
    the collapsed graph (what partitioning and any in-span traversal
    see).  Event counts come from ``pid_times``: per partition, the
    times (in order) of the events the builder routed into its
    partitioned eventlists — every partition an event touches — so the
    histogram predicts eventlist replay volume exactly, by construction.
    """
    degree = Counter(concat.from_iterable(collapsed_edges))
    get = node_pid.get
    pairs = Counter([(get(u), get(v)) for (u, v) in collapsed_edges])
    internal: Dict[int, int] = {}
    cut: Dict[int, int] = {}
    cut_weights: Dict[int, Dict[int, int]] = {}
    # pairs in first-occurrence order: the maps fill in edge order
    for (pu, pv), count in pairs.items():
        if pu is None or pv is None:
            continue
        if pu == pv:
            internal[pu] = internal.get(pu, 0) + count
        else:
            cut[pu] = cut.get(pu, 0) + count
            cut[pv] = cut.get(pv, 0) + count
            row = cut_weights.setdefault(pu, {})
            row[pv] = row.get(pv, 0) + count
            row = cut_weights.setdefault(pv, {})
            row[pu] = row.get(pu, 0) + count

    members: Dict[int, List[NodeId]] = {}
    for node, pid in node_pid.items():
        members.setdefault(pid, []).append(node)

    bounds = _bucket_bounds(t_start, t_end, buckets)
    inner = bounds[1:-1]
    partitions: Dict[int, PartitionStats] = {}
    for pid in range(num_pids):
        nodes = members.get(pid, [])
        degrees = [degree.get(n, 0) for n in nodes]
        times = pid_times.get(pid, ())
        # an event at t lands in the rightmost bucket whose lower bound
        # is < t (scopes are half-open on the left, like eventlists);
        # the end buckets take the times beyond the bounds
        upto = [bisect_right(times, b) for b in inner] + [len(times)]
        partitions[pid] = PartitionStats(
            pid=pid,
            nodes=len(nodes),
            internal_edges=internal.get(pid, 0),
            cut_edges=cut.get(pid, 0),
            degree_sum=sum(degrees),
            degree_max=max(degrees, default=0),
            events=len(times),
            events_per_bucket=tuple(
                hi - lo for lo, hi in zip([0] + upto, upto)
            ),
        )

    return TimespanStats(
        tsid=tsid,
        t_start=t_start,
        t_end=t_end,
        nodes=len(collapsed_nodes),
        edges=len(collapsed_edges),
        num_pids=num_pids,
        events=events,
        bucket_bounds=bounds,
        partitions=partitions,
        cut_weights=cut_weights,
    )
