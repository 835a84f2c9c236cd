"""Figure 14 — node version retrieval:
(a) effect of eventlist size l ∈ {125, 250, 500};
(b) speedup from parallel fetch factor c ∈ {1, 2, 4};
(c) effect of micro-partition size ps (at a fixed version-count range).

Expected shapes (paper): smaller eventlists and smaller partitions lower
version-retrieval latency (less wasteful read + deserialization); parallel
fetch helps; note partition size trades off against snapshot retrieval
(Fig 13b) while smaller eventlists benefit both.
"""

from __future__ import annotations

import pytest

from repro.graph.static import Graph

from benchmarks.conftest import build_tgi, print_series, probe_nodes

L_VALUES = (125, 250, 500)
PS_VALUES = (24, 64, 160)
CLIENTS = (1, 2, 4)


def version_probe(tgi, events, nodes, ts, te, clients=1):
    """Average (num_changes, sim_ms) pairs bucketed by change count."""
    out = []
    for n in nodes:
        h, stats = tgi.retrieve_node_history(n, ts, te, clients=clients)
        out.append((len(h.events), stats.sim_time_ms))
    return sorted(out)


@pytest.fixture(scope="module")
def probe_setup(dataset1_events):
    t_end = dataset1_events[-1].time
    ts, te = t_end // 8, t_end
    g = Graph.replay(dataset1_events)
    # medium-degree nodes: enough version changes to measure, but sparse
    # relative to the eventlist span (the paper's regime — each change
    # typically lands in its own eventlist, so eventlist size controls the
    # wasted read per fetched row)
    ranked = sorted(g.nodes(), key=g.degree, reverse=True)
    # spread of change counts: some hubs, some mid, some low-degree
    nodes = ranked[40:48] + ranked[300:308] + ranked[900:908]
    return ts, te, nodes


@pytest.fixture(scope="module")
def eventlist_sweep(dataset1_events, probe_setup):
    ts, te, nodes = probe_setup
    out = {}
    for l in L_VALUES:
        tgi = build_tgi(dataset1_events, l=l)
        out[l] = version_probe(tgi, dataset1_events, nodes, ts, te)
    return out


@pytest.fixture(scope="module")
def client_sweep(tgi_dataset1, dataset1_events, probe_setup):
    ts, te, nodes = probe_setup
    return {
        c: version_probe(tgi_dataset1, dataset1_events, nodes, ts, te,
                         clients=c)
        for c in CLIENTS
    }


@pytest.fixture(scope="module")
def partition_sweep(dataset1_events, probe_setup):
    ts, te, nodes = probe_setup
    out = {}
    for ps in PS_VALUES:
        tgi = build_tgi(dataset1_events, ps=ps)
        series = version_probe(tgi, dataset1_events, nodes, ts, te)
        out[ps] = sum(ms for _, ms in series) / len(series)
    return out


def _avg(series):
    return sum(ms for _, ms in series) / len(series)


def test_fig14a_report(benchmark, eventlist_sweep):
    got = benchmark.pedantic(lambda: eventlist_sweep, rounds=1, iterations=1)
    rows = [
        f"l={l:<6} avg {_avg(series):7.2f} ms over "
        f"{min(c for c, _ in series)}-{max(c for c, _ in series)} changes"
        for l, series in got.items()
    ]
    print_series("Fig 14a: node version retrieval vs eventlist size", "",
                 rows)


def test_fig14a_smaller_eventlists_faster(benchmark, eventlist_sweep):
    def _check():
        avgs = {l: _avg(s) for l, s in eventlist_sweep.items()}
        assert avgs[125] < avgs[250] < avgs[500]

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_fig14b_report(benchmark, client_sweep):
    got = benchmark.pedantic(lambda: client_sweep, rounds=1, iterations=1)
    rows = [f"c={c:<3} avg {_avg(series):7.2f} ms" for c, series in got.items()]
    print_series("Fig 14b: node version retrieval vs parallel fetch", "",
                 rows)


def test_fig14b_parallel_fetch_helps(benchmark, client_sweep):
    def _check():
        avgs = {c: _avg(s) for c, s in client_sweep.items()}
        assert avgs[2] < avgs[1]
        assert avgs[4] <= avgs[2] * 1.02

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_fig14c_report(benchmark, partition_sweep):
    got = benchmark.pedantic(lambda: partition_sweep, rounds=1, iterations=1)
    rows = [f"ps={ps:<5} avg {ms:7.2f} ms" for ps, ms in got.items()]
    print_series("Fig 14c: node version retrieval vs partition size", "",
                 rows)


def test_fig14c_smaller_partitions_faster(benchmark, partition_sweep):
    def _check():
        """Opposite trade-off to snapshots (Fig 13b): versions want small ps."""
        assert partition_sweep[24] < partition_sweep[160]

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_fig14_cost_grows_with_change_count(benchmark, client_sweep):
    def _check():
        series = client_sweep[1]
        few = [ms for c, ms in series[: len(series) // 3]]
        many = [ms for c, ms in series[-len(series) // 3:]]
        assert sum(many) / len(many) > sum(few) / len(few)

    benchmark.pedantic(_check, rounds=1, iterations=1)