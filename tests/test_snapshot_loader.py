"""The cold snapshot load (Algorithm 1) trusts what the writer stores.

``Delta.load_snapshot`` builds a graph from the rows of one stored
root→leaf snapshot path without :meth:`Graph.from_parts`' mirror walk,
which is sound only if those rows are symmetric on the nodes they hold.
Hypothesis draws histories (churn, edge-attribute edits, string ids
through ``relabelled``), built in one go or as a build plus an update,
under random and min-cut partitioning with boundary replication on and
off.  For every span, every leaf and a drawn subset of partitions (as a
degraded fetch leaves them) the path rows' union is symmetric on its
nodes, and the load equals ``Delta.sum(rows).to_graph()`` —
node order, attributes, edges in order, edge attributes and the edge
count.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.deltas.base import Delta
from repro.index.tgi import TGI, TGIConfig
from repro.index.tgi.config import PartitioningStrategy
from repro.index.tgi.layout import TAG_SNAPSHOT
from repro.kvstore.cluster import ClusterConfig
from tests.helpers import random_history, relabelled


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
                got = Delta.load_snapshot(rows)
                # the reference reads rows decoded apart from the loader's
                want = Delta.sum(path_rows(tgi, span, leaf, pids)).to_graph()
                assert list(got.nodes()) == list(want.nodes())
                assert got.node_attr_maps() == want.node_attr_maps()
                assert list(got.edges()) == list(want.edges())
                assert got.attributed_edges() == want.attributed_edges()
                assert got.num_edges == want.num_edges
                assert got == want
