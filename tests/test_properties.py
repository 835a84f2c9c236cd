"""Property-based tests (hypothesis) for the delta algebra and the central
index invariant: every index's snapshot equals event replay."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.deltas.base import Delta, EMPTY_DELTA, StaticEdge, StaticNode
from repro.graph.static import Graph
from repro.index.copylog import CopyLogIndex
from repro.index.deltagraph import DeltaGraphIndex
from repro.index.log import LogIndex
from repro.index.nodecentric import NodeCentricIndex
from repro.index.tgi import TGI, PartitioningStrategy, TGIConfig
from tests.helpers import random_history
from tests.oracle import ground_truth_history


# ---------------------------------------------------------------------------
# delta algebra laws
# ---------------------------------------------------------------------------

@st.composite
def deltas(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    comps = []
    for _ in range(n):
        nid = draw(st.integers(min_value=0, max_value=9))
        nbrs = draw(st.frozensets(st.integers(0, 9), max_size=3))
        version = draw(st.integers(0, 2))
        comps.append(StaticNode.make(nid, nbrs, {"v": version}))
    m = draw(st.integers(min_value=0, max_value=4))
    for _ in range(m):
        u = draw(st.integers(0, 9))
        v = draw(st.integers(0, 9))
        comps.append(StaticEdge.make(u, v, {"w": draw(st.integers(0, 2))}))
    return Delta(comps)


@given(deltas())
def test_sum_identity(d):
    assert d + EMPTY_DELTA == d
    assert EMPTY_DELTA + d == d


@given(deltas(), deltas(), deltas())
def test_sum_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(deltas())
def test_self_difference_empty(d):
    assert len(d - d) == 0
    assert d - EMPTY_DELTA == d


@given(deltas(), deltas())
def test_intersection_subset_of_both(a, b):
    inter = a & b
    for comp in inter:
        assert a.get(comp.key) == comp
        assert b.get(comp.key) == comp


@given(deltas(), deltas())
def test_intersection_commutative(a, b):
    assert (a & b) == (b & a)


@given(deltas(), deltas())
def test_parent_plus_difference_reconstructs(a, b):
    parent = a & b
    assert parent + (a - parent) == a
    assert parent + (b - parent) == b


@given(deltas(), deltas())
def test_sum_upper_bounds_cardinality(a, b):
    s = a + b
    assert s.cardinality <= a.cardinality + b.cardinality
    assert s.cardinality >= max(a.cardinality, b.cardinality)


@given(deltas(), deltas())
def test_union_contains_both_keys(a, b):
    u = a | b
    for comp in a:
        assert comp.key in u
    for comp in b:
        assert comp.key in u


# ---------------------------------------------------------------------------
# index invariants over random histories
# ---------------------------------------------------------------------------

history_params = st.tuples(
    st.integers(min_value=30, max_value=160),  # steps
    st.integers(min_value=0, max_value=50),  # seed
)


def build_all(events):
    indexes = [
        LogIndex(eventlist_size=17),
        CopyLogIndex(eventlist_size=17, lists_per_checkpoint=3),
        NodeCentricIndex(),
        DeltaGraphIndex(eventlist_size=17, arity=2),
        TGI(TGIConfig(events_per_timespan=60, eventlist_size=11,
                      micro_partition_size=7)),
        TGI(TGIConfig(events_per_timespan=60, eventlist_size=11,
                      micro_partition_size=7,
                      partitioning=PartitioningStrategy.MINCUT,
                      replicate_boundary=True)),
    ]
    for idx in indexes:
        idx.build(events)
    return indexes


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(history_params, st.data())
def test_snapshot_invariant_all_indexes(params, data):
    steps, seed = params
    events = random_history(steps=steps, seed=seed)
    t_max = events[-1].time
    t = data.draw(st.integers(min_value=events[0].time, max_value=t_max))
    want = Graph.replay(events, until=t)
    for idx in build_all(events):
        assert idx.get_snapshot(t) == want, type(idx).__name__


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(history_params, st.data())
def test_node_history_invariant(params, data):
    steps, seed = params
    events = random_history(steps=steps, seed=seed)
    t_max = events[-1].time
    ts = data.draw(st.integers(min_value=1, max_value=t_max - 1))
    te = data.draw(st.integers(min_value=ts + 1, max_value=t_max))
    touched = sorted({e.node for e in events})
    node = data.draw(st.sampled_from(touched))
    want_state, want_events = ground_truth_history(events, node, ts, te)
    tgi = TGI(TGIConfig(events_per_timespan=60, eventlist_size=11,
                        micro_partition_size=7))
    tgi.build(events)
    got = tgi.get_node_history(node, ts, te)
    assert got.initial == want_state
    assert list(got.events) == want_events


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(history_params, st.data())
def test_khop_invariant(params, data):
    steps, seed = params
    events = random_history(steps=steps, seed=seed)
    t = events[-1].time
    final = Graph.replay(events)
    if final.num_nodes == 0:
        return
    node = data.draw(st.sampled_from(sorted(final.nodes())))
    k = data.draw(st.integers(min_value=1, max_value=3))
    tgi = TGI(TGIConfig(events_per_timespan=60, eventlist_size=11,
                        micro_partition_size=7))
    tgi.build(events)
    assert tgi.get_khop(node, t, k=k) == final.khop_subgraph(node, k)
