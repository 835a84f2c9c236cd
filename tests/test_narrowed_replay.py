"""Narrowed replay: a partition state nobody checkpoints or shares is
replayed only where its plan reads it.

A lone Algorithm-4 plan — one center or several on one shared frontier —
is the only plan on its ``ReplayShare`` state, so with checkpoints off
its ``PartitionStates`` loader replays the alive centers, then each
hop's candidates, and nothing else of the partitions it fetched.  Held
here: every value is the event log's (a), the work is bounded by what
the plan reads, read off the ``states_replayed`` trace counter (b), a
degraded run drops exactly what whole-partition replay drops (c), and
delta-cache rows a narrowed plan left part-thawed serve every later
read correctly (d)."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import GraphSession
from repro.api import QueryRequest
from repro.graph.static import Graph
from repro.index.tgi.query import ReplayShare
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.degrade import PartialCollector, partial_scope
from repro.obs import SamplingPolicy, Tracer
from tests.helpers import graph_parts, random_history, relabelled, small_tgi
from tests.oracle import oracle_history, oracle_parts


def parts(g):
    return None if g is None else graph_parts(g)


@st.composite
def lone_khops(draw):
    """A churning history (int or string ids), a time, one to four
    centers — mostly alive at that time, some dead or never created —
    and ``k``."""
    steps = draw(st.integers(min_value=160, max_value=320))
    seed = draw(st.integers(min_value=0, max_value=50))
    events = random_history(steps=steps, seed=seed, edge_attr_churn=True)
    t = draw(st.integers(events[0].time + 20, events[-1].time))
    alive = sorted(Graph.replay(events, until=t).nodes())
    last = max(ev.node for ev in events)
    centers = draw(st.lists(
        st.one_of(
            st.sampled_from(alive), st.sampled_from(alive),
            st.integers(min_value=0, max_value=last + 3),
        ),
        min_size=1, max_size=4, unique=True,
    ))
    if draw(st.booleans()):
        events = relabelled(events)
        centers = [f"n{c}" for c in centers]
    k = draw(st.integers(min_value=1, max_value=3))
    return events, t, centers, k


# -- (a) values and (b) work ---------------------------------------------------

@pytest.mark.parametrize("replicate", [False, True])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lone_khops())
def test_a_lone_khop_replays_only_what_it_reads(replicate, draw):
    events, t, centers, k = draw
    tgi = small_tgi(events, replicate_boundary=replicate)
    tracer = Tracer(SamplingPolicy.all())
    with tracer.trace("khops") as root:
        graphs, _stats = tgi.retrieve_khops(centers, t, k)
    for center, g in zip(centers, graphs):
        assert parts(g) == oracle_parts(events, center, k, t), center
    # what the plan reads: its alive centers and every hop's candidates,
    # which together are the centers' k-hop neighborhoods at ``t``
    span = tgi._span_at(t)
    reads = {c for c in centers if span.pid_of(c) is not None}
    for center in centers:
        hood = oracle_parts(events, center, k, t)
        if hood is not None:
            reads |= set(hood[1])
    replayed = sum(s.attrs.get("states_replayed", 0) for s in root.walk())
    assert replayed <= len(reads)


# -- (c) degraded ----------------------------------------------------------------

def degraded_khops(tgi, centers, t, k, share=None):
    """One k-hop plan run under an ``allow_partial`` scope: its graphs
    and the partitions it was charged."""
    collector = PartialCollector()
    with partial_scope(collector):
        graphs, _stats = tgi._retrieve(
            tgi._khops_plan(centers, t, k, share=share), clients=1
        )
    return [parts(g) for g in graphs], sorted(collector.partitions)


@pytest.mark.parametrize("replicate", [False, True])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lone_khops(), st.data())
def test_a_degraded_narrowed_khop_drops_what_whole_partitions_drop(
    replicate, draw, data
):
    """A machine is down (``r = 1``, one attempt): the narrowed plan and
    the same plan on a state a second plan is attached to — which
    replays whole partitions — return the same members and are charged
    the same partitions."""
    events, t, centers, k = draw
    tgi = small_tgi(
        events, replicate_boundary=replicate,
        cluster=ClusterConfig(num_machines=3, replication=1),
    )
    # a machine the plan reads from, found fault-free
    _graphs, stats = tgi.retrieve_khops(centers, t, k)
    servers = sorted({rec.server for rec in stats.requests})
    if servers:
        tgi.cluster.fail_machine(data.draw(st.sampled_from(servers)))
    narrowed = degraded_khops(tgi, centers, t, k)
    share = ReplayShare()
    share.at(tgi._span_at(t).tsid, t, replicate)  # a second plan attached
    assert narrowed == degraded_khops(tgi, centers, t, k, share)
    assert bool(narrowed[1]) == bool(servers)


# -- (d) part-thawed rows in a shared delta cache -------------------------------

def khop(center, t, k, algorithm="khop"):
    return QueryRequest(
        kind="khop", t=t, nodes=(center,), k=k, single=True,
        algorithm=algorithm,
    )


def part_thawed(tgi):
    """Cached micro-delta rows with some nodes thawed and others still
    packed."""
    return [
        key for key, row in tgi.delta_cache._rows.items()
        if getattr(row.value, "_packed", None) is not None
        and row.value._nodes
    ]


def test_a_narrowed_khop_leaves_rows_part_thawed():
    """The premise of (d): a narrowed k-hop thaws only the nodes it
    replays out of a cached packed row."""
    events = random_history(steps=300, seed=3, edge_attr_churn=True)
    tgi = small_tgi(events, delta_cache_entries=512)
    t = events[-1].time
    center = min(Graph.replay(events, until=t).nodes())
    GraphSession.from_index(tgi).execute(khop(center, t, 1))
    assert part_thawed(tgi)


FOLLOW_UPS = ("snapshot", "snapshot-first", "node_history", "shared-batch")


@pytest.mark.parametrize("follow_up", FOLLOW_UPS)
@pytest.mark.parametrize("entries", [4, 512])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=50), st.data())
def test_reads_after_a_narrowed_khop_equal_the_log(
    entries, follow_up, seed, data
):
    events = random_history(steps=300, seed=seed, edge_attr_churn=True)
    tgi = small_tgi(events, delta_cache_entries=entries)
    session = GraphSession.from_index(tgi)
    t = data.draw(st.integers(events[0].time + 20, events[-1].time))
    alive = sorted(Graph.replay(events, until=t).nodes())
    center, mate = data.draw(st.lists(
        st.sampled_from(alive), min_size=2, max_size=2, unique=True,
    ))
    k = data.draw(st.integers(min_value=1, max_value=2))
    first = session.execute(khop(center, t, k)).value
    assert graph_parts(first) == oracle_parts(events, center, k, t)

    if follow_up == "snapshot":
        got = session.execute(QueryRequest(kind="snapshot", t=t)).value
        assert graph_parts(got) == graph_parts(Graph.replay(events, until=t))
    elif follow_up == "snapshot-first":
        got = session.execute(khop(mate, t, k, "snapshot-first")).value
        assert graph_parts(got) == oracle_parts(events, mate, k, t)
    elif follow_up == "node_history":
        # every node of the center's partition, thawed by the k-hop or not
        span = tgi._span_at(t)
        nodes = sorted(span.members[span.pid_of(center)])
        te = events[-1].time
        got = session.execute(QueryRequest(
            kind="node_histories", ts=t, te=te, nodes=tuple(nodes),
        )).value
        assert got == [oracle_history(events, n, t, te) for n in nodes]
    else:
        # two plans on one state: whole partitions, over the same rows
        got = session.execute_batch([khop(center, t, k), khop(mate, t, k)])
        assert [graph_parts(r.value) for r in got] == [
            oracle_parts(events, c, k, t) for c in (center, mate)
        ]
