"""Figure 12 — snapshot retrieval across store configurations:
(a) m=1, r=1; (b) m=2, r=1; (c) m=2, r=2, with varying parallel fetch c.

Expected shape (paper): no dramatic difference across configurations; two
machines edge out one as c grows, and r=2 behaves like r=1 at equal c but
sustains higher effective parallelism (the fetch "peaks out" later).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import build_tgi, print_series, snapshot_probe_times

CONFIGS = (("m1_r1", 1, 1), ("m2_r1", 2, 1), ("m2_r2", 2, 2))
CLIENTS = (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def sweep(dataset1_events):
    times = snapshot_probe_times(dataset1_events, 4)
    results = {}
    for label, m, r in CONFIGS:
        tgi = build_tgi(dataset1_events, m=m, r=r)
        per_c = {}
        for c in CLIENTS:
            series = []
            for t in times:
                g, stats = tgi.retrieve_snapshot(t, clients=c)
                series.append((g.num_nodes, stats.sim_time_ms))
            per_c[c] = series
        results[label] = per_c
    return results


def test_fig12_report(benchmark, sweep):
    got = benchmark.pedantic(lambda: sweep, rounds=1, iterations=1)
    rows = []
    for label, per_c in got.items():
        for c in CLIENTS:
            cells = "  ".join(f"{ms:8.1f}" for _, ms in per_c[c])
            rows.append(f"{label} c={c:<3} {cells}")
    sizes = [s for s, _ in sweep["m1_r1"][1]]
    print_series(
        "Fig 12: snapshot retrieval (sim ms) across (m, r) configs",
        "            " + "  ".join(f"{s:>8}" for s in sizes) + "  (nodes)",
        rows,
    )


def largest(per_c, c):
    return per_c[c][-1][1]


def test_fig12_two_machines_not_slower(benchmark, sweep):
    def _check():
        for c in CLIENTS:
            assert largest(sweep["m2_r1"], c) <= largest(sweep["m1_r1"], c) * 1.05

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_fig12_m2_wins_at_high_parallelism(benchmark, sweep):
    def _check():
        assert largest(sweep["m2_r1"], 8) < largest(sweep["m1_r1"], 8)

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_fig12_replication_similar_at_equal_c(benchmark, sweep):
    def _check():
        """Paper: 'the behavior for the m=1 and m=2;r=2 cases are quite similar
        for same c values' — replication does not hurt."""
        for c in (1, 2, 4):
            a = largest(sweep["m2_r2"], c)
            b = largest(sweep["m2_r1"], c)
            assert a <= b * 1.25

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_fig12_replication_sustains_parallelism(benchmark, sweep):
    def _check():
        """r=2 allows the retrieval to keep scaling at high c."""
        assert largest(sweep["m2_r2"], 16) <= largest(sweep["m2_r1"], 16) * 1.10

    benchmark.pedantic(_check, rounds=1, iterations=1)