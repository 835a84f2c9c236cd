"""Figure 11 — snapshot retrieval time vs. snapshot size for parallel fetch
factors c ∈ {1, 2, 4, 8, 16, 32} (Dataset 1; m=4, r=1).

Expected shape (paper): retrieval cost directly proportional to output
size; near-linear speedup with c at low parallelism, flattening at high c
as the storage side saturates.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_series, snapshot_probe_times

CLIENT_COUNTS = (1, 2, 4, 8, 16, 32)


@pytest.fixture(scope="module")
def sweep(tgi_dataset1, dataset1_events):
    times = snapshot_probe_times(dataset1_events, 5)
    results = {}  # c -> list of (snapshot_size, sim_ms)
    for c in CLIENT_COUNTS:
        series = []
        for t in times:
            g, stats = tgi_dataset1.retrieve_snapshot(t, clients=c)
            series.append((g.num_nodes, stats.sim_time_ms))
        results[c] = series
    return results


def test_fig11_snapshot_retrieval_parallel_clients(benchmark, sweep):
    got = benchmark.pedantic(lambda: sweep, rounds=1, iterations=1)
    sizes = [size for size, _ in got[1]]
    rows = []
    for c in CLIENT_COUNTS:
        cells = "  ".join(f"{ms:8.1f}" for _, ms in got[c])
        rows.append(f"c={c:<3} {cells}")
    print_series(
        "Fig 11: snapshot retrieval (sim ms) vs snapshot size, by c",
        "        " + "  ".join(f"{s:>8}" for s in sizes) + "   (nodes)",
        rows,
    )


def test_fig11_cost_grows_with_snapshot_size(benchmark, sweep):
    def _check():
        for c, series in sweep.items():
            assert series[-1][1] > series[0][1], f"c={c} not size-proportional"

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_fig11_parallelism_speedup(benchmark, sweep):
    def _check():
        largest = {c: series[-1][1] for c, series in sweep.items()}
        # speedup with low parallelism is near-linear
        assert largest[2] < largest[1] * 0.75
        assert largest[4] < largest[2] * 0.85
        # monotone non-increasing across the whole sweep
        ordered = [largest[c] for c in CLIENT_COUNTS]
        assert all(b <= a * 1.02 for a, b in zip(ordered, ordered[1:]))
        # diminishing returns: the 16->32 step saves less than the 1->2 step
        assert (largest[16] - largest[32]) < (largest[1] - largest[2])

    benchmark.pedantic(_check, rounds=1, iterations=1)