"""Figure 16 — node version retrieval on Dataset 4 (Friendster analogue;
m=6, r=1, ps=default), c ∈ {1, 2}.

Expected shape (paper): latency grows with the number of version changes
retrieved; c=2 lowers it across the curve (same behaviour as Dataset 1,
Fig 14b).
"""

from __future__ import annotations

import pytest

from repro.graph.static import Graph

from benchmarks.conftest import print_series

CLIENTS = (1, 2)


@pytest.fixture(scope="module")
def sweep(tgi_dataset4, dataset4_events):
    t_end = dataset4_events[-1].time
    g = Graph.replay(dataset4_events)
    nodes = sorted(g.nodes(), key=g.degree, reverse=True)[:25]
    out = {}
    for c in CLIENTS:
        series = []
        for n in nodes:
            h, stats = tgi_dataset4.retrieve_node_history(
                n, 1, t_end, clients=c
            )
            series.append(
                (len(h.events), stats.sim_time_ms)
            )
        out[c] = sorted(series)
    return out


def test_fig16_report(benchmark, sweep):
    got = benchmark.pedantic(lambda: sweep, rounds=1, iterations=1)
    rows = []
    for c, series in got.items():
        avg = sum(ms for _, ms in series) / len(series)
        lo = min(v for v, _ in series)
        hi = max(v for v, _ in series)
        rows.append(
            f"c={c}  avg {avg:7.2f} ms over {lo}-{hi} version changes"
        )
    print_series("Fig 16: Friendster node version retrieval", "", rows)


def test_fig16_cost_grows_with_versions(benchmark, sweep):
    def _check():
        series = sweep[1]
        few = [ms for _, ms in series[: len(series) // 3]]
        many = [ms for _, ms in series[-len(series) // 3:]]
        assert sum(many) / len(many) > sum(few) / len(few)

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_fig16_parallel_fetch_helps(benchmark, sweep):
    def _check():
        avg1 = sum(ms for _, ms in sweep[1]) / len(sweep[1])
        avg2 = sum(ms for _, ms in sweep[2]) / len(sweep[2])
        assert avg2 < avg1

    benchmark.pedantic(_check, rounds=1, iterations=1)