"""Batched vs per-node SoN retrieval (the fetch-plan execution layer).

``TGIHandler.fetch_node_histories`` used to loop ``get_node_history`` per
node — O(nodes) multiget rounds, refetching the shared root deltas of a
span's tree path for every node.  The batched path
(:meth:`TGI.get_node_histories`) coalesces a whole population into two
rounds: one for micro-delta paths + trailing eventlists + version chains,
one for the chain-pointed eventlist rows.

Reported per strategy: store requests, bytes read, multiget rounds,
simulated fetch ms, wall-clock ms.  A third row shows the batched path
with the delta cache enabled and warm (a repeated analytics query).
"""

from __future__ import annotations

import time

import pytest

from repro.index.interface import HistoricalGraphIndex

from benchmarks.conftest import build_tgi, print_series, probe_nodes

N_NODES = 400


@pytest.fixture(scope="module")
def setup(dataset1_events):
    tgi = build_tgi(dataset1_events)
    t_end = dataset1_events[-1].time
    ts, te = t_end // 8, t_end
    nodes = probe_nodes(dataset1_events, N_NODES, alive_at=te)
    return tgi, dataset1_events, nodes, ts, te


def _measure(label, fn):
    start = time.perf_counter()
    out, stats = fn()
    wall_ms = (time.perf_counter() - start) * 1e3
    return {
        "label": label,
        "histories": out,
        "requests": stats.num_requests,
        "bytes": stats.bytes_read,
        "rounds": stats.rounds,
        "sim_ms": stats.sim_time_ms,
        "wall_ms": wall_ms,
        "cache_hits": stats.cache_hits,
    }


@pytest.fixture(scope="module")
def sweep(setup, dataset1_events):
    tgi, _events, nodes, ts, te = setup
    rows = [
        _measure(
            "per-node loop",
            # the interface's default loop is exactly the old handler path
            lambda: HistoricalGraphIndex.retrieve_node_histories(
                tgi, nodes, ts, te
            ),
        ),
        _measure(
            "batched",
            lambda: tgi.retrieve_node_histories(nodes, ts, te),
        ),
    ]
    return rows


@pytest.fixture(scope="module")
def cached_sweep(setup, dataset1_events):
    from repro.index.tgi import TGI, TGIConfig
    from repro.kvstore.cluster import ClusterConfig

    _tgi, events, nodes, ts, te = setup
    tgi = TGI(TGIConfig(
        events_per_timespan=2500, eventlist_size=250,
        micro_partition_size=64, delta_cache_entries=65536,
        cluster=ClusterConfig(num_machines=4),
    ))
    tgi.build(events)
    tgi.get_node_histories(nodes, ts, te)  # warm the cache
    return _measure(
        "batched+warm cache",
        lambda: tgi.retrieve_node_histories(nodes, ts, te),
    )


def _fmt(row):
    return (
        f"{row['label']:<20} {row['requests']:>7} req {row['rounds']:>6} "
        f"rounds {row['bytes'] / 1024:>9.1f} KiB {row['sim_ms']:>9.1f} "
        f"sim-ms {row['wall_ms']:>8.1f} wall-ms"
        + (f"  ({row['cache_hits']} cache hits)" if row["cache_hits"] else "")
    )


def test_batched_fetch_report(benchmark, sweep, cached_sweep):
    rows = benchmark.pedantic(
        lambda: [*sweep, cached_sweep], rounds=1, iterations=1
    )
    print_series(
        f"Batched vs per-node SoN retrieval ({N_NODES} nodes)", "",
        [_fmt(r) for r in rows],
    )


def test_batched_matches_per_node_results(benchmark, sweep):
    def _check():
        per_node, batched = sweep[0], sweep[1]
        assert batched["histories"] == per_node["histories"]

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_batched_is_cheaper_on_every_axis(benchmark, sweep):
    def _check():
        per_node, batched = sweep[0], sweep[1]
        assert batched["sim_ms"] < per_node["sim_ms"]
        assert batched["requests"] < per_node["requests"]
        assert batched["bytes"] <= per_node["bytes"]
        assert batched["rounds"] <= 2
        assert per_node["rounds"] >= N_NODES

    benchmark.pedantic(_check, rounds=1, iterations=1)


def test_warm_cache_eliminates_store_reads(benchmark, cached_sweep):
    def _check():
        assert cached_sweep["requests"] == 0
        assert cached_sweep["rounds"] == 0
        assert cached_sweep["sim_ms"] == 0.0
        assert cached_sweep["cache_hits"] > 0

    benchmark.pedantic(_check, rounds=1, iterations=1)
