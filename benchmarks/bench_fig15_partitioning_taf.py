"""Figure 15 — partitioning/replication, growing data, and TAF scaling:
(a) 1-hop fetch under Random vs Maxflow vs Maxflow+Replication;
(b) snapshot retrieval across Datasets 1, 2, 3 (growing index);
(c) TAF local-clustering-coefficient computation vs Spark workers for
    three graph sizes.

Expected shapes (paper): locality partitioning accesses fewer partitions
than random and replication restricts 1-hop fetches to a single partition;
snapshot latency barely moves as the index grows (timespan isolation);
parallel speedup in workers, stronger for larger graphs.
"""

from __future__ import annotations

import pytest

from repro.graph.metrics import local_clustering_coefficient
from repro.graph.static import Graph
from repro.index.tgi import PartitioningStrategy
from repro.spark.rdd import SparkContext

from benchmarks.conftest import (
    build_tgi,
    print_series,
    probe_nodes,
    snapshot_probe_times,
)

STRATEGIES = (
    ("random", PartitioningStrategy.RANDOM, False),
    ("maxflow", PartitioningStrategy.MINCUT, False),
    ("maxflow+repl", PartitioningStrategy.MINCUT, True),
)


@pytest.fixture(scope="module")
def one_hop_sweep(dataset4_events):
    """Average 1-hop fetch over random nodes (paper: 250 nodes; we probe a
    deterministic sample of 80 on the community-structured dataset 4)."""
    t_end = dataset4_events[-1].time
    nodes = probe_nodes(dataset4_events, 80, seed=23)
    out = {}
    for label, strategy, replicate in STRATEGIES:
        tgi = build_tgi(
            dataset4_events, partitioning=strategy, replicate=replicate
        )
        total_ms = total_req = fetched = 0
        for n in nodes:
            try:
                _, stats = tgi.retrieve_khop(n, t_end, k=1)
            except Exception:
                continue
            fetched += 1
            total_ms += stats.sim_time_ms
            total_req += stats.num_requests
        out[label] = (total_ms / fetched, total_req / fetched)
    return out


@pytest.fixture(scope="module")
def growing_data_sweep(dataset1_events, dataset2_events, dataset3_events):
    """Snapshot retrieval at the *same* time points as the index grows."""
    times = snapshot_probe_times(dataset1_events, 4)
    out = {}
    for label, events in (
        ("dataset1", dataset1_events),
        ("dataset2", dataset2_events),
        ("dataset3", dataset3_events),
    ):
        tgi = build_tgi(events)
        series = []
        for t in times:
            g, stats = tgi.retrieve_snapshot(t, clients=4)
            series.append((g.num_nodes, stats.sim_time_ms))
        out[label] = series
    return out


@pytest.fixture(scope="module")
def taf_scaling_sweep(tgi_dataset1, dataset1_events):
    """LCC over historical snapshots of three sizes, 1-5 workers."""
    times = snapshot_probe_times(dataset1_events, 3)
    out = {}
    for t in times:
        g = tgi_dataset1.get_snapshot(t, clients=8)
        nodes = sorted(g.nodes())
        per_workers = {}
        for ma in range(1, 6):
            sc = SparkContext(num_workers=ma, default_parallelism=2 * ma)
            rdd = sc.parallelize(nodes).map(
                lambda n: local_clustering_coefficient(g, n)
            )
            rdd.collect()
            per_workers[ma] = sc.last_job_stats.makespan_seconds
        out[g.num_nodes] = per_workers
    return out


def test_fig15a_report(benchmark, one_hop_sweep):
    got = benchmark.pedantic(lambda: one_hop_sweep, rounds=1, iterations=1)
    rows = [
        f"{label:<14} {ms:7.2f} ms  {req:6.1f} deltas"
        for label, (ms, req) in got.items()
    ]
    print_series("Fig 15a: 1-hop fetch by partitioning strategy", "", rows)


def test_fig15a_locality_beats_random(benchmark, one_hop_sweep):
    def _check():
        assert one_hop_sweep["maxflow"][1] < one_hop_sweep["random"][1]
        assert one_hop_sweep["maxflow"][0] < one_hop_sweep["random"][0]

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_fig15a_replication_beats_locality(benchmark, one_hop_sweep):
    def _check():
        assert (
            one_hop_sweep["maxflow+repl"][1] < one_hop_sweep["maxflow"][1]
        )
        assert (
            one_hop_sweep["maxflow+repl"][0] < one_hop_sweep["maxflow"][0]
        )

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_fig15b_report(benchmark, growing_data_sweep):
    got = benchmark.pedantic(lambda: growing_data_sweep, rounds=1,
                             iterations=1)
    rows = [
        f"{label:<9} " + "  ".join(f"{ms:8.1f}" for _, ms in series)
        for label, series in got.items()
    ]
    print_series("Fig 15b: snapshot retrieval with growing index (sim ms)",
                 "", rows)


def test_fig15b_growth_is_marginal(benchmark, growing_data_sweep):
    def _check():
        """Timespan isolation: extra history barely affects old snapshots."""
        d1 = growing_data_sweep["dataset1"][-1][1]
        d3 = growing_data_sweep["dataset3"][-1][1]
        assert d3 < d1 * 1.5

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_fig15c_report(benchmark, taf_scaling_sweep):
    got = benchmark.pedantic(lambda: taf_scaling_sweep, rounds=1, iterations=1)
    rows = []
    for n, per_workers in got.items():
        cells = "  ".join(
            f"{per_workers[ma]*1000:8.1f}" for ma in range(1, 6)
        )
        rows.append(f"N={n:<7} {cells}")
    print_series(
        "Fig 15c: TAF LCC computation (ms) vs Spark workers 1..5",
        "          " + "  ".join(f"{w:>8}" for w in range(1, 6)) + " workers",
        rows,
    )


def test_fig15c_parallel_speedup(benchmark, taf_scaling_sweep):
    def _check():
        for n, per_workers in taf_scaling_sweep.items():
            assert per_workers[4] < per_workers[1]

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_fig15c_larger_graphs_cost_more(benchmark, taf_scaling_sweep):
    def _check():
        sizes = sorted(taf_scaling_sweep)
        assert taf_scaling_sweep[sizes[-1]][1] > taf_scaling_sweep[sizes[0]][1]

    benchmark.pedantic(_check, rounds=1, iterations=1)