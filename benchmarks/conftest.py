"""Shared fixtures for the benchmark suite.

Scaled-down analogues of the paper's four datasets (Sec. 6 "Datasets and
Notation"), built once per session:

- **dataset 1**: growing citation network (Wikipedia analogue);
- **dataset 2**: dataset 1 + synthetic edge churn (~0.75x extra events);
- **dataset 3**: dataset 1 + more churn (~1.6x extra events);
- **dataset 4**: Friendster-style gaming network, uniform timestamps.

The paper's key parameters keep their names: ``m`` (store machines), ``r``
(replication), ``c`` (parallel fetch clients), ``l`` (eventlist size),
``ps`` (micro-partition size), ``ma`` (Spark workers).
"""

from __future__ import annotations

import random

import pytest

from repro.index.tgi import TGI, PartitioningStrategy, TGIConfig
from repro.kvstore.cluster import ClusterConfig
from repro.workloads.citation import CitationConfig, generate_citation_events
from repro.workloads.friendster import (
    FriendsterConfig,
    generate_friendster_events,
)
from repro.workloads.synthetic import augment_with_churn

#: Build-parameter defaults for benchmark TGIs (paper defaults scaled).
BENCH_SPAN = 2500
BENCH_EVENTLIST = 250
BENCH_PS = 64


@pytest.fixture(scope="session")
def dataset1_events():
    return generate_citation_events(
        CitationConfig(num_nodes=2500, citations_per_node=4, seed=42)
    )


@pytest.fixture(scope="session")
def dataset2_events(dataset1_events):
    return augment_with_churn(dataset1_events, 8000, seed=7)


@pytest.fixture(scope="session")
def dataset3_events(dataset1_events):
    return augment_with_churn(dataset1_events, 18000, seed=8)


@pytest.fixture(scope="session")
def dataset4_events():
    return generate_friendster_events(
        FriendsterConfig(num_nodes=3000, avg_degree=8, seed=99)
    )


def build_tgi(
    events,
    m: int = 4,
    r: int = 1,
    ps: int = BENCH_PS,
    l: int = BENCH_EVENTLIST,
    span: int = BENCH_SPAN,
    compress: bool = False,
    partitioning: PartitioningStrategy = PartitioningStrategy.RANDOM,
    replicate: bool = False,
) -> TGI:
    """Build a TGI with the paper's parameter names."""
    tgi = TGI(
        TGIConfig(
            events_per_timespan=span,
            eventlist_size=l,
            micro_partition_size=ps,
            partitioning=partitioning,
            replicate_boundary=replicate,
            cluster=ClusterConfig(
                num_machines=m, replication=r, compress=compress
            ),
        )
    )
    tgi.build(events)
    return tgi


@pytest.fixture(scope="session")
def tgi_dataset1(dataset1_events):
    """The workhorse index: dataset 1 on m=4, r=1, ps=64."""
    return build_tgi(dataset1_events)


@pytest.fixture(scope="session")
def tgi_dataset4(dataset4_events):
    """Dataset 4 on m=6, r=1 (paper Figs. 13c and 16)."""
    return build_tgi(dataset4_events, m=6)


def snapshot_probe_times(events, count: int = 5):
    """Evenly spaced query times across the history (x-axis of the
    snapshot-retrieval figures: growing snapshot sizes)."""
    t0, t1 = events[0].time, events[-1].time
    step = (t1 - t0) / count
    return [int(t0 + step * (i + 1)) for i in range(count)]


def probe_nodes(events, count: int, seed: int = 17, alive_at=None):
    """Deterministic sample of node ids for node-centric queries."""
    from repro.graph.static import Graph

    g = Graph.replay(events, until=alive_at)
    rng = random.Random(seed)
    nodes = sorted(g.nodes())
    return nodes if len(nodes) <= count else rng.sample(nodes, count)


def counting(monkeypatch, owner, name: str, counts: dict) -> None:
    """Rebind ``owner.name`` to a pass-through that bumps
    ``counts[name]`` per call (undone with ``monkeypatch.undo()``)."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def print_series(title: str, header: str, rows) -> None:
    """Emit a paper-style series table to stdout (visible with ``pytest -s``
    and in the captured bench output)."""
    print(f"\n=== {title} ===")
    print(header)
    for row in rows:
        print(row)
