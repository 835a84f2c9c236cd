"""Ablations of TGI design choices (beyond the paper's figures).

The paper motivates several knobs without sweeping all of them; these
ablations pin the claimed trade-offs:

- **tree arity k**: higher arity → shorter root→leaf paths (fewer deltas
  per snapshot) but fatter difference deltas (weaker temporal compression);
- **timespan length**: the g(T) − f(T) trade-off of Sec. 4.5 — long spans
  help version queries (fewer partition-map changes across the interval),
  short spans keep partitioning fresh;
- **time-collapse function Ω**: Union-Max / Union-Mean / Median produce
  different static projections; all must cut far less than random hashing
  on a community-structured dynamic graph (Union-Max is the paper's
  default).
"""

from __future__ import annotations

import pytest

from repro.graph.static import Graph
from repro.index.tgi import PartitioningStrategy, TGIConfig
from repro.partitioning.base import edge_cut
from repro.partitioning.mincut import MinCutPartitioner
from repro.partitioning.random_part import RandomPartitioner
from repro.partitioning.temporal import (
    CollapseFunction,
    collapse,
    partition_timespan,
)
from repro.workloads.social import SocialConfig, generate_social_events

from benchmarks.conftest import build_tgi, print_series

ARITIES = (2, 4, 8)
SPANS = (1000, 2500, 6000)


@pytest.fixture(scope="module")
def arity_sweep(dataset1_events):
    t = dataset1_events[-1].time
    out = {}
    for arity in ARITIES:
        tgi = build_tgi(dataset1_events)
        # rebuild with the arity override
        from repro.index.tgi import TGI

        tgi = TGI(TGIConfig(
            events_per_timespan=2500, eventlist_size=250,
            micro_partition_size=64, arity=arity,
        ))
        tgi.build(dataset1_events)
        _, stats = tgi.retrieve_snapshot(t)
        out[arity] = {
            "snapshot_deltas": stats.num_requests,
            "snapshot_ms": stats.sim_time_ms,
            "storage_kib": tgi.cluster.stored_bytes // 1024,
        }
    return out


@pytest.fixture(scope="module")
def timespan_sweep(dataset1_events):
    t = dataset1_events[-1].time
    g = Graph.replay(dataset1_events)
    probes = sorted(g.nodes(), key=g.degree, reverse=True)[:12]
    out = {}
    for span in SPANS:
        from repro.index.tgi import TGI

        tgi = TGI(TGIConfig(
            events_per_timespan=span, eventlist_size=250,
            micro_partition_size=64,
        ))
        tgi.build(dataset1_events)
        snap_ms = tgi.retrieve_snapshot(t)[1].sim_time_ms
        hist_ms = 0.0
        for n in probes:
            hist_ms += tgi.retrieve_node_history(n, t // 8, t)[1].sim_time_ms
        out[span] = {
            "timespans": tgi.num_timespans,
            "snapshot_ms": snap_ms,
            "history_ms": hist_ms / len(probes),
        }
    return out


@pytest.fixture(scope="module")
def collapse_sweep():
    events = generate_social_events(
        SocialConfig(num_nodes=240, num_steps=3000, seed=3)
    )
    # partition the churn period as one span
    join_end = 240
    initial = Graph.replay(events, until=join_end)
    span_events = [ev for ev in events if ev.time > join_end]
    ts, te = join_end + 1, events[-1].time + 1
    final = Graph.replay(events)
    edges = list(final.edges())
    out = {}
    for omega in CollapseFunction:
        part = partition_timespan(
            initial, span_events, ts, te, MinCutPartitioner(), 6, omega
        )
        out[omega.value] = edge_cut(part, edges)
    rand = RandomPartitioner().partition(final.nodes(), edges, 6)
    out["random"] = edge_cut(rand, edges)
    return out


def test_ablation_arity_report(benchmark, arity_sweep):
    got = benchmark.pedantic(lambda: arity_sweep, rounds=1, iterations=1)
    rows = [
        f"k={arity}  snapshot={row['snapshot_deltas']:>4} deltas / "
        f"{row['snapshot_ms']:7.1f} ms   storage={row['storage_kib']:>6} KiB"
        for arity, row in got.items()
    ]
    print_series("Ablation: tree arity", "", rows)


def test_ablation_arity_fewer_deltas_higher_arity(benchmark, arity_sweep):
    def _check():
        assert (
            arity_sweep[8]["snapshot_deltas"]
            <= arity_sweep[2]["snapshot_deltas"]
        )

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_ablation_timespan_report(benchmark, timespan_sweep):
    got = benchmark.pedantic(lambda: timespan_sweep, rounds=1, iterations=1)
    rows = [
        f"span={span:<6} ({row['timespans']} spans)  "
        f"snapshot={row['snapshot_ms']:7.1f} ms  "
        f"node-history={row['history_ms']:7.2f} ms"
        for span, row in got.items()
    ]
    print_series("Ablation: timespan length", "", rows)


def test_ablation_timespan_long_spans_help_versions(benchmark, timespan_sweep):
    def _check():
        # version queries over a long interval touch fewer spans when the
        # spans are longer (the g(T) side of Sec. 4.5)
        assert (
            timespan_sweep[SPANS[-1]]["history_ms"]
            <= timespan_sweep[SPANS[0]]["history_ms"] * 1.05
        )

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_ablation_collapse_report(benchmark, collapse_sweep):
    got = benchmark.pedantic(lambda: collapse_sweep, rounds=1, iterations=1)
    rows = [f"{name:<12} cut={cut:8.1f}" for name, cut in got.items()]
    print_series("Ablation: time-collapse function (edge cut on final graph)",
                 "", rows)


def test_ablation_collapse_all_beat_random(benchmark, collapse_sweep):
    def _check():
        for omega in CollapseFunction:
            assert collapse_sweep[omega.value] < collapse_sweep["random"] * 0.9

    benchmark.pedantic(_check, rounds=1, iterations=1)
