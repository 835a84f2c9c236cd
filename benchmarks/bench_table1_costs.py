"""Table 1 — access costs of all six index families on five primitives.

Reproduces the paper's qualitative comparison twice over:

1. *analytic* — the closed-form estimates of ``repro.index.tgi.costs``;
2. *measured* — actual deltas fetched / bytes read by each index on the
   same workload and queries.

The assertions pin the orderings the paper's table conveys (e.g. TGI's
version queries beat DeltaGraph's by ~|G|/|V| while its snapshot costs
stay within a constant factor).
"""

from __future__ import annotations

import pytest

from repro.graph.static import Graph
from repro.index.copy import CopyIndex
from repro.index.copylog import CopyLogIndex
from repro.index.deltagraph import DeltaGraphIndex
from repro.index.log import LogIndex
from repro.index.nodecentric import NodeCentricIndex
from repro.index.tgi import TGI, TGIConfig
from repro.index.tgi.costs import WorkloadShape, table1, tree_height
from repro.workloads.citation import CitationConfig, generate_citation_events

from benchmarks.conftest import print_series, probe_nodes

EVENTS = generate_citation_events(CitationConfig(num_nodes=900, seed=42))
T_END = EVENTS[-1].time
T_MID = T_END // 2
L = 150


def build_all():
    indexes = {
        "log": LogIndex(eventlist_size=L),
        "copy": CopyIndex(),
        "copy+log": CopyLogIndex(eventlist_size=L, lists_per_checkpoint=4),
        "node-centric": NodeCentricIndex(),
        "deltagraph": DeltaGraphIndex(eventlist_size=L, arity=2),
        "tgi": TGI(
            TGIConfig(
                events_per_timespan=1500,
                eventlist_size=L,
                micro_partition_size=48,
            )
        ),
    }
    for idx in indexes.values():
        idx.build(EVENTS)
    return indexes


@pytest.fixture(scope="module")
def indexes():
    return build_all()


@pytest.fixture(scope="module")
def measurements(indexes):
    """Measured (bytes read, deltas fetched) per index per primitive."""
    truth = Graph.replay(EVENTS, until=T_MID)
    probes = [n for n in probe_nodes(EVENTS, 10, alive_at=T_MID)
              if truth.degree(n) > 0]
    out = {}
    for name, idx in indexes.items():
        row = {}

        _, stats = idx.retrieve_snapshot(T_MID)
        row["snapshot"] = (stats.raw_bytes_read, stats.num_requests)

        b = r = 0
        for n in probes:
            _, stats = idx.retrieve_node_state(n, T_MID)
            b += stats.raw_bytes_read
            r += stats.num_requests
        row["static_vertex"] = (b / len(probes), r / len(probes))

        b = r = 0
        for n in probes:
            _, stats = idx.retrieve_node_history(n, T_MID, T_END)
            b += stats.raw_bytes_read
            r += stats.num_requests
        row["vertex_versions"] = (b / len(probes), r / len(probes))

        b = r = 0
        for n in probes:
            _, stats = idx.retrieve_khop(n, T_MID, k=1)
            b += stats.raw_bytes_read
            r += stats.num_requests
        row["one_hop"] = (b / len(probes), r / len(probes))

        row["storage"] = idx.cluster.stored_bytes
        out[name] = row
    return out


def test_table1_report(benchmark, indexes, measurements):
    def run():
        return measurements

    got = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for name, row in got.items():
        rows.append(
            f"{name:<13} storage={row['storage']//1024:>7}KiB  "
            f"snap={row['snapshot'][0]//1024:>6}KiB/{row['snapshot'][1]:>4.0f}d  "
            f"vertex={row['static_vertex'][0]/1024:>7.1f}KiB/"
            f"{row['static_vertex'][1]:>4.1f}d  "
            f"versions={row['vertex_versions'][0]/1024:>7.1f}KiB/"
            f"{row['vertex_versions'][1]:>4.1f}d  "
            f"1hop={row['one_hop'][0]/1024:>7.1f}KiB/{row['one_hop'][1]:>4.1f}d"
        )
    print_series(
        "Table 1 (measured): bytes read / deltas fetched per primitive",
        f"{'index':<13} per-query averages (d = deltas)",
        rows,
    )


def test_analytic_table_matches_measured_orderings(benchmark, measurements):
    def _check():
        """The analytic table's headline orderings hold empirically."""
        m = measurements
        # storage: log < node-centric < deltagraph/tgi < copy
        assert m["log"]["storage"] < m["node-centric"]["storage"]
        assert m["node-centric"]["storage"] < m["copy"]["storage"]
        assert m["tgi"]["storage"] < m["copy"]["storage"]

        # snapshot: log pays full history; copy pays one delta
        assert m["copy"]["snapshot"][1] == 1
        assert m["log"]["snapshot"][0] > m["copy+log"]["snapshot"][0]
        assert m["log"]["snapshot"][0] > m["tgi"]["snapshot"][0]

        # vertex versions: node-centric and TGI beat time-centric indexes
        assert m["node-centric"]["vertex_versions"][0] < (
            m["deltagraph"]["vertex_versions"][0]
        )
        assert m["tgi"]["vertex_versions"][0] < (
            m["deltagraph"]["vertex_versions"][0] / 3
        )
        assert m["tgi"]["vertex_versions"][0] < m["copy"]["vertex_versions"][0]

        # static vertex: TGI's targeted micro fetch reads far less than a full
        # snapshot path
        assert m["tgi"]["static_vertex"][0] < m["deltagraph"]["static_vertex"][0]

        # 1-hop: TGI reads less data than whole-snapshot approaches
        assert m["tgi"]["one_hop"][0] < m["deltagraph"]["one_hop"][0]

    benchmark.pedantic(_check, rounds=1, iterations=1)
def test_analytic_table_self_consistent(benchmark):
    def _check():
        g = Graph.replay(EVENTS)
        num_lists = len(EVENTS) / L
        shape = WorkloadShape(
            G=len(EVENTS),
            S=g.num_nodes + g.num_edges,
            E=L,
            V=12,
            R=8,
            p=g.num_nodes / 48,
            h=tree_height(int(num_lists) + 1, 2),
        )
        table = table1(shape)
        assert table["tgi"]["vertex_versions"][0] < (
            table["deltagraph"]["vertex_versions"][0]
        )
        assert table["tgi"]["one_hop"][0] < table["deltagraph"]["one_hop"][0]
        assert table["copy"]["snapshot"][1] == 1
        assert table["log"]["snapshot"][0] == len(EVENTS)

    benchmark.pedantic(_check, rounds=1, iterations=1)