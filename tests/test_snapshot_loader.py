"""The cold snapshot load (Algorithm 1) trusts what the writer stores.

``Delta.load_snapshot`` builds a graph from the rows of one stored
root→leaf snapshot path without :meth:`Graph.from_parts`' mirror walk,
which is sound only if those rows are symmetric on the nodes they hold.
A whole path (every partition's rows) also skips the dangling drop,
which is sound only if its overlay is closed: every edge-list entry
names a node it holds.  Hypothesis draws histories (churn, edge-attribute
edits, string ids through ``relabelled``), built in one go or as a build
plus an update, under random and min-cut partitioning with boundary
replication on and off.  For every span and every leaf the whole path's
rows are symmetric and closed, and a drawn subset of partitions (as a
degraded fetch leaves them) symmetric; each loads — the whole path with
``whole=True``, the subset with the dangling drop — equal to
``Delta.sum(rows).to_graph()``: node order, attributes, edges in order,
edge attributes and the edge count.  A degraded fetch through the index
loads what the surviving partitions' rows and eventlists give.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.deltas.base import Delta
from repro.faults import CrashWindow, FaultSchedule, clear_faults, inject_faults
from repro.graph.static import Graph
from repro.index.tgi import TGI, TGIConfig
from repro.index.tgi.config import PartitioningStrategy
from repro.index.tgi.layout import TAG_SNAPSHOT
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.degrade import PartialCollector, partial_scope
from tests.helpers import graph_parts, random_history, relabelled


@st.composite
def indexes(draw):
    """A built index over a drawn history, some of it added by update."""
    events = random_history(
        steps=draw(st.integers(40, 160)),
        seed=draw(st.integers(0, 10**6)),
        edge_attr_churn=True,
        bare_edges=draw(st.booleans()),
    )
    if draw(st.booleans()):
        events = relabelled(events)
    tgi = TGI(TGIConfig(
        events_per_timespan=draw(st.sampled_from([30, 70])),
        eventlist_size=draw(st.sampled_from([5, 12])),
        micro_partition_size=draw(st.sampled_from([3, 7])),
        partitioning=draw(st.sampled_from(list(PartitioningStrategy))),
        replicate_boundary=draw(st.booleans()),
        cluster=ClusterConfig(num_machines=3),
    ))
    # an update appends spans; it starts after the last built time
    cut = draw(st.integers(1, len(events)))
    while cut < len(events) and events[cut].time == events[cut - 1].time:
        cut += 1
    tgi.build(events[:cut])
    tgi.update(events[cut:])
    return tgi


def path_rows(tgi, span, leaf, pids):
    """The stored snapshot rows of ``span``'s root→``leaf`` path over
    ``pids`` (``None``: all), freshly decoded, in path order."""
    keys = span.keys(tgi.config.placement_groups)
    path = [
        key for did in span.tree.path_to_leaf(leaf)
        for key in keys.select(TAG_SNAPSHOT, did, pids)
    ]
    values, _stats = tgi.cluster.multiget(path)
    return [values[key] for key in path]


def assert_closed(rows):
    """Every edge-list entry names a node the rows hold."""
    adjacency = Delta.sum(rows).columns()[0]
    for u, nbrs in adjacency.items():
        for v in nbrs:
            assert v in adjacency, (u, v)


def assert_loads_like_overlay(got, want):
    assert list(got.nodes()) == list(want.nodes())
    assert got.node_attr_maps() == want.node_attr_maps()
    assert list(got.edges()) == list(want.edges())
    assert got.attributed_edges() == want.attributed_edges()
    assert got.num_edges == want.num_edges
    assert got == want


def assert_symmetric(rows):
    """Every edge-list entry and explicit edge between two held nodes is
    listed by both of them."""
    adjacency = Delta.sum(rows).columns()[0]
    lists = {n: set(nbrs) for n, nbrs in adjacency.items()}
    for u, nbrs in lists.items():
        for v in nbrs:
            assert v not in lists or u in lists[v], (u, v)
    for row in rows:
        for u, v in row.static_edges():
            if u in lists and v in lists:
                assert v in lists[u] and u in lists[v], (u, v)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(tgi=indexes(), data=st.data())
def test_stored_paths_are_symmetric_and_load_like_their_overlay(tgi, data):
    for span in tgi._spans:
        subset = sorted(data.draw(
            st.sets(st.integers(0, span.num_pids - 1)), label="pids"
        ))
        for leaf in range(len(span.checkpoints)):
            for pids in (None, subset):
                rows = path_rows(tgi, span, leaf, pids)
                assert_symmetric(rows)
                if pids is None:
                    assert_closed(rows)
                got = Delta.load_snapshot(rows, whole=pids is None)
                # the reference reads rows decoded apart from the loader's
                want = Delta.sum(path_rows(tgi, span, leaf, pids)).to_graph()
                assert_loads_like_overlay(got, want)


def test_a_degraded_fetch_loads_only_what_survived():
    """A crashed machine (replication 1) costs a snapshot whole
    partitions; the rest load with the dangling drop, equal to the
    surviving rows' overlay replayed over the surviving eventlists, less
    the nodes of the dropped partitions that replay re-created."""
    events = random_history(
        steps=300, seed=3, edge_attr_churn=True, bare_edges=True
    )
    tgi = TGI(TGIConfig(
        events_per_timespan=100, eventlist_size=12, micro_partition_size=5,
        cluster=ClusterConfig(num_machines=3, replication=1),
    ))
    tgi.build(events)
    times = sorted({ev.time for ev in events})
    dangling = 0
    for t in times[::17]:
        span = tgi._span_at(t)
        for victim in range(3):
            inject_faults(tgi.cluster, FaultSchedule(
                crashes=(CrashWindow(victim, 0.0),),
            ))
            collector = PartialCollector()
            with partial_scope(collector):
                got, _stats = tgi.retrieve_snapshot(t)
            clear_faults(tgi.cluster)
            kept = {
                pid for pid in range(span.num_pids)
                if f"ts{span.tsid}:p{pid}" not in collector.partitions
            }
            path_groups, ekeys = tgi._snapshot_plan(span, t, pids=kept)
            path = [key for group in path_groups for key in group]
            values, _stats = tgi.cluster.multiget(path + ekeys)
            rows = [values[key] for key in path]
            held = Delta.sum(rows).columns()[0]
            dangling += sum(
                v not in held for nbrs in held.values() for v in nbrs
            )
            want = Delta.sum(rows).to_graph()
            want.apply_columnar([values[key] for key in ekeys], until=t)
            for node in list(want.nodes()):
                if span.pid_of(node) not in kept:
                    want.remove_node(node)
            assert_loads_like_overlay(got, want)
    assert dangling > 0  # the drop had entries to drop


@pytest.mark.parametrize("seeded", [False, True], ids=["cold", "near"])
def test_a_degraded_snapshot_holds_no_node_of_a_dropped_partition(seeded):
    """Lenient replay of the surviving eventlists re-creates a dropped
    partition's node wherever an edge event names it, and a near seed
    holds its copies from before the fault: a degraded snapshot, cold or
    near-seeded, is the fault-free one induced on the surviving
    partitions' live nodes."""
    events = random_history(
        steps=300, seed=3, edge_attr_churn=True, bare_edges=True
    )
    tgi = TGI(TGIConfig(
        events_per_timespan=100, eventlist_size=12, micro_partition_size=5,
        checkpoint_entries=64 if seeded else 0,
        cluster=ClusterConfig(num_machines=3, replication=1),
    ))
    tgi.build(events)
    times = sorted({ev.time for ev in events})
    degraded = near = 0
    for before, t in list(zip(times, times[1:]))[::17]:
        span = tgi._span_at(t)
        whole = Graph.replay(events, until=t)
        for victim in range(3):
            if seeded:
                tgi.retrieve_snapshot(before)  # the seed, fault-free
            inject_faults(tgi.cluster, FaultSchedule(
                crashes=(CrashWindow(victim, 0.0),),
            ))
            collector = PartialCollector()
            with partial_scope(collector):
                got, stats = tgi.retrieve_snapshot(t)
            clear_faults(tgi.cluster)
            bad = {
                pid for pid in range(span.num_pids)
                if f"ts{span.tsid}:p{pid}" in collector.partitions
            }
            kept = [n for n in whole.nodes() if span.pid_of(n) not in bad]
            assert graph_parts(got) == graph_parts(whole.subgraph(kept))
            degraded += bool(bad)
            near += stats.checkpoint_near_hits
    assert degraded > 0
    assert (near > 0) == seeded
