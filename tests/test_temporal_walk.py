"""One walk per temporal history, held to the per-point reads it replaced.

Generated ``random_history`` streams — integer ids, and the same streams
relabelled to string ids (which pack as id-table rows and fall off
the bisection prune) — drive every temporal read that now walks a
history once, each against a reference kept beside it:

- ``NodeHistory.states_at`` on unsorted, repeated and endpoint grids
  against ``oracle.replay_state_at`` (replay from the initial state per
  point);
- the TAF operators built on it (SoN ``NodeComputeTemporal``,
  ``Evolution``, ``Compare``, ``GetGraph(t)``; SoTS
  ``NodeComputeTemporal`` and ``get_version_at``) against graphs built
  from those per-point states with ``helpers.per_edge_graph`` (a SoTS's
  edge attributes from the log's snapshot at each point);
- the fetch finalizer's one scan per eventlist row, ``group_by_id``, on
  the packed row against ``filter_by_time(ts, te).filter_by_id((node,))``
  per node and against the window's events touching each node —
  self-loops included, and an edge event between two asked nodes one
  object, materialized once;
- the pure-id ``Select`` prune by bisection against its closure.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

import pytest

from repro.deltas.columnar import ColumnarEventList, count_decoded, pack_eventlist
from repro.errors import TimeRangeError
from repro.graph.events import Event, EventKind
from repro.graph.static import Graph
from repro.index.interface import NodeHistory
from repro.taf import timepoints as tp
from repro.taf.expressions import id_intervals, parse_entity_predicate
from repro.taf.node_t import NodeT, SubgraphT
from repro.taf.son import SON, SOTS, _prune_ids
from tests.helpers import (
    graph_parts,
    per_edge_graph,
    random_history,
    relabelled,
    small_tgi,
)
from tests.oracle import (
    ground_truth_history,
    ground_truth_subgraph,
    replay_state_at,
)

STEPS = 120

CHECKS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _stream(seed, strings):
    events = random_history(steps=STEPS, seed=seed, edge_attr_churn=True)
    return relabelled(events) if strings else events


@st.composite
def windows(draw):
    """``(events, ts, te)``: a stream and a window inside its range."""
    events = _stream(draw(st.integers(0, 400)), draw(st.booleans()))
    t_max = events[-1].time
    ts = draw(st.integers(0, t_max))
    te = draw(st.integers(ts, t_max))
    return events, ts, te


def _grid(draw, events, ts, te, max_size=10):
    """Points in ``[ts, te]`` in any order, repeats allowed, biased to the
    endpoints and to event times."""
    marks = sorted({ts, te} | {ev.time for ev in events if ts <= ev.time <= te})
    return draw(st.lists(
        st.one_of(st.sampled_from(marks), st.integers(ts, te)),
        max_size=max_size,
    ))


def _node_ids(events):
    return sorted({n for ev in events for n in ev.entities}, key=str)


def _history(events, node, ts, te):
    state, changes = ground_truth_history(events, node, ts, te)
    return NodeHistory(node, ts, te, state, tuple(changes))


def _reference_graph(histories, t, edge_attrs=None):
    """The induced graph at ``t`` from per-point replayed states."""
    states = {
        h.node: s for h in histories if h.ts <= t <= h.te
        for s in (replay_state_at(h, t),) if s is not None
    }
    return per_edge_graph(
        {n: s.attrs for n, s in states.items()},
        {n: s.E for n, s in states.items()},
        edge_attrs,
    )


# ----------------------------------------------------------------------
# NodeHistory.states_at
# ----------------------------------------------------------------------
@CHECKS
@given(st.data())
def test_states_at_equals_per_point_replay(data):
    events, ts, te = data.draw(windows())
    for node in _node_ids(events)[:8]:
        h = _history(events, node, ts, te)
        grid = _grid(data.draw, events, ts, te)
        assert h.states_at(grid) == [replay_state_at(h, t) for t in grid]
        assert h.states_at(tuple(grid)) == h.states_at(grid)
        outside = data.draw(st.sampled_from([ts - 1, te + 1]))
        with pytest.raises(TimeRangeError):
            h.states_at(grid + [outside])


# ----------------------------------------------------------------------
# TAF operators over the one walk
# ----------------------------------------------------------------------
@CHECKS
@given(st.data())
def test_son_operators_equal_per_point_reference(data):
    events, ts, te = data.draw(windows())
    histories = [_history(events, n, ts, te) for n in _node_ids(events)]
    histories = [h for h in histories if h.initial is not None or h.events]
    if not histories:
        return
    son = SON(_nodes=[NodeT(h) for h in histories], _interval=(ts, te))

    # default grid per node, a two-argument metric (arity resolved once)
    got = son.NodeComputeTemporal(lambda state, nid: (nid, state))
    for h in histories:
        points = tp.all_change_points(NodeT(h))
        assert got[h.node] == [
            (t, (h.node, replay_state_at(h, t))) for t in points
        ]
    # an explicit grid, a one-argument metric
    grid = _grid(data.draw, events, ts, te)
    got = son.NodeComputeTemporal(lambda state: state, grid)
    for h in histories:
        assert got[h.node] == [(t, replay_state_at(h, t)) for t in sorted(grid)]

    grid = _grid(data.draw, events, ts - 3, te + 3)
    assert son.GetGraph().Evolution(graph_parts, grid) == [
        (t, graph_parts(_reference_graph(histories, t))) for t in sorted(grid)
    ]
    t = data.draw(st.integers(ts, te))
    assert graph_parts(son.GetGraph(t)) == graph_parts(
        _reference_graph(histories, t)
    )

    half = len(histories) // 2
    a = SON(_nodes=[NodeT(h) for h in histories[:half + 1]])
    b = SON(_nodes=[NodeT(h) for h in histories[half:]])
    series_a, series_b = SON.Compare(a, b, graph_parts)
    points = sorted(set(a.change_points()) | set(b.change_points())
                    | {a.get_start_time(), b.get_start_time()})
    assert series_a == [
        graph_parts(_reference_graph(histories[:half + 1], t)) for t in points
    ]
    assert series_b == [
        graph_parts(_reference_graph(histories[half:], t)) for t in points
    ]


@CHECKS
@given(st.data())
def test_sots_operators_equal_per_point_reference(data):
    events, ts, te = data.draw(windows())
    k = data.draw(st.integers(1, 2))
    subgraphs = []
    for center in data.draw(st.lists(
        st.sampled_from(_node_ids(events)), min_size=1, max_size=3,
        unique=True,
    )):
        truth = ground_truth_subgraph(events, center, k, ts, te)
        if truth is None:
            continue
        members, edge_attrs = truth
        subgraphs.append(SubgraphT(center, k, {
            n: NodeT(NodeHistory(n, ts, te, state, tuple(changes)))
            for n, (state, changes) in members.items()
        }, edge_attrs))
    if not subgraphs:
        return
    sots = SOTS(k, _subgraphs=subgraphs, _interval=(ts, te))
    got = sots.NodeComputeTemporal(lambda g, c: (c, graph_parts(g)))

    def reference(histories, t):
        # edge attributes as the log has them at ``t``
        attrs = Graph.replay(events, until=t).attributed_edges()
        return _reference_graph(histories, t, attrs)

    for sg in subgraphs:
        histories = [nt.history for nt in sg.members.values()]
        assert got[sg.center] == [
            (t, (sg.center, graph_parts(reference(histories, t))))
            for t in tp.all_change_points(sg)
        ]
        t = data.draw(st.integers(ts, te))
        want = reference(histories, t)
        if want.has_node(sg.center):
            want = want.khop_subgraph(sg.center, k)
        assert graph_parts(sg.get_version_at(t)) == graph_parts(want)


# ----------------------------------------------------------------------
# the fetch finalizer's one scan per eventlist row
# ----------------------------------------------------------------------
@CHECKS
@given(st.data())
def test_group_by_id_equals_filter_by_id_per_node(data):
    events, ts, te = data.draw(windows())
    asked = data.draw(st.lists(
        st.sampled_from(_node_ids(events)), min_size=1, unique=True,
    ))
    # self-loops on asked nodes, inside the window
    seq = max(ev.seq for ev in events)
    loops = [
        Event(data.draw(st.integers(ts + 1, te)), seq + i + 1,
              EventKind.EDGE_ADD, node, node)
        for i, node in enumerate(asked[:2]) if ts < te
    ]
    stream = sorted(events + loops, key=Event.sort_key)
    packed = pack_eventlist(stream[0].time - 1, stream[-1].time, stream)
    # string ids pack too, as an id-table row (layout version 2)
    assert (packed[0] == 2) == isinstance(stream[0].node, str)
    window = ColumnarEventList(packed).filter_by_time(ts, te)
    with count_decoded() as decoded:
        grouped = window.group_by_id(asked)
    assert set(grouped) <= set(asked)
    for node in asked:
        want = [ev for ev in stream if ts < ev.time <= te and ev.touches(node)]
        assert grouped.get(node, []) == want
        assert want == list(window.filter_by_id((node,)).events)
    # one object per row, whichever asked nodes it touches
    by_seq = {}
    for evs in grouped.values():
        for ev in evs:
            assert by_seq.setdefault(ev.seq, ev) is ev
    assert decoded[0] == len(by_seq)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 400), st.booleans(), st.data())
def test_batched_histories_equal_log_replay(seed, strings, data):
    """Through a built index: the grouped finalizer's histories are the
    raw log's, for every node asked in one batch."""
    events = _stream(seed, strings)
    tgi = small_tgi(events)
    t_max = events[-1].time
    ts = data.draw(st.integers(1, t_max))
    te = data.draw(st.integers(ts, t_max))
    nodes = _node_ids(events)
    got = tgi.get_node_histories(nodes, ts, te)
    assert got == [_history(events, n, ts, te) for n in nodes]


# ----------------------------------------------------------------------
# pure-id Select: bisection over int intervals against the closure
# ----------------------------------------------------------------------
_OPS = ("=", "==", "!=", "<", "<=", ">", ">=")


@st.composite
def id_predicates(draw):
    """``or``-joined ``and`` clauses over ``id``; now and then a float
    literal, which only the closure may decide."""
    def clause():
        if draw(st.integers(0, 9)):
            literal = str(draw(st.integers(-3, 40)))
        else:
            literal = draw(st.sampled_from(["7.5", "12.0", "-0.5"]))
        return f"id {draw(st.sampled_from(_OPS))} {literal}"

    return " or ".join(
        " and ".join(clause() for _ in range(draw(st.integers(1, 3))))
        for _ in range(draw(st.integers(1, 3)))
    )


@settings(max_examples=200, deadline=None)
@given(id_predicates(), st.sets(st.integers(-5, 45), min_size=10))
def test_id_prune_equals_closure(expr, ids):
    universe = sorted(ids)
    compiled = parse_entity_predicate(expr)
    spans = id_intervals(expr)
    assert (spans is None) == ("." in expr)
    want = [n for n in universe if compiled(n, {})]
    assert _prune_ids(universe, [(compiled, spans)], ordered=True) == want
    # explicit (unordered) centers keep their order under the closure
    shuffled = universe[::-1]
    assert _prune_ids(shuffled, [(compiled, spans)], ordered=False) == (
        want[::-1]
    )


def test_id_intervals_need_id_fields_and_int_literals():
    assert id_intervals("id >= 3 and id < 9") == [(3, 9)]
    assert id_intervals("id != 4 or id = 4") == [
        (-float("inf"), float("inf"))
    ]
    assert id_intervals("id > 2.5") is None
    assert id_intervals('id = "a"') is None
    assert id_intervals("id < 5 or v = 1") is None
    # a universe with a non-int id keeps the closure, whatever the spans
    names = ["n1", "n3", "n4"]
    expr = 'id = "n3" or id != "n4"'
    assert _prune_ids(
        names, [(parse_entity_predicate(expr), [(0, 10)])], ordered=True
    ) == ["n1", "n3"]
