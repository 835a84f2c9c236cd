"""Generated request mixes held to the event-log oracle.

Hypothesis draws a history (churn, re-adds, attribute edits, string ids
through ``relabelled``), a cache configuration (delta cache of 0, 2 or
1024 rows; checkpoints off or 64), a warm, near or cold cache state (or
one where only the snapshots at the mix's two times were read), and
a mix of snapshot, node-state, node-history and k-hop requests — single
and batched, with duplicates, unknown nodes beside valid ones and two
time points in one batch, with the cyclic collector on or off (the
query pause must leave it as it found it).  A k-hop draws ``k`` of 1 or
2 and any algorithm (``auto``, ``snapshot-first``, ``khop``); its
centers may be dead at ``t`` (a lone one raises, a batched one reads
``None``), and a snapshot-first one loads its snapshot cold,
near-seeded or warm.  Every value is checked against ``tests.oracle``,
and the session's accounting against what the store saw:

- a request run alone that is not a k-hop is priced on exactly the keys
  it fetches (with the delta cache off, every key it needs reaches
  ``Cluster.multiget``); a k-hop is priced on its planner's bound;
- a batch's fair shares sum to what the store served it;
- ``execute(r)`` is ``execute_batch([r])[0]``, value and stats;
- every distinct request compiles one executable plan; running a
  request asks the planner for nothing, except a k-hop pricing its two
  candidates while it chooses its algorithm;
- an ``auto`` k-hop reports both candidates (snapshot-first alone while
  no center is known at ``t``), unless the snapshot at ``t`` was an
  exact checkpoint: then snapshot-first alone, at 0.0.
"""

from __future__ import annotations

import gc
import pickle
import types

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import GraphSession
from repro.api import QueryRequest
from repro.errors import AnalyticsError, IndexError_, QueryError, TimeRangeError
from repro.graph.static import Graph
from repro.index.interface import NodeHistory, evolve_node_state
from repro.index.tgi import TGI, TGIConfig, TGIPlanner
from repro.index.tgi.states import _state_key
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.session.pricing import SessionPricing
from repro.spark.rdd import SparkContext
from repro.taf import timepoints as tp
from repro.taf.handler import TGIHandler
from repro.taf.son import SON, SOTS
from tests.helpers import graph_parts, random_history, relabelled
from tests.oracle import (
    edge_attrs_among,
    ground_truth_history,
    ground_truth_subgraph,
    oracle_history,
    oracle_parts,
)

#: Every planner entry point that builds a plan.
PLANNER_BUILDS = sorted(
    name for name in vars(TGIPlanner) if name.startswith("plan_")
)


@st.composite
def scenarios(draw):
    """A built index, its history and a request mix with a cache state."""
    events = random_history(
        steps=draw(st.integers(60, 180)),
        seed=draw(st.integers(0, 10**6)),
        edge_attr_churn=draw(st.booleans()),
    )
    if draw(st.booleans()):
        events = relabelled(events)
    tgi = TGI(TGIConfig(
        events_per_timespan=draw(st.sampled_from([40, 90])),
        eventlist_size=draw(st.sampled_from([6, 15])),
        micro_partition_size=draw(st.sampled_from([4, 9])),
        delta_cache_entries=draw(st.sampled_from([0, 2, 1024])),
        checkpoint_entries=draw(st.sampled_from([0, 64])),
        cluster=ClusterConfig(num_machines=3),
    ))
    tgi.build(events)
    t_min, t_max = events[0].time, events[-1].time
    known = sorted({ev.node for ev in events}, key=str)
    unknown = "ghost" if isinstance(known[0], str) else -7
    nodes = st.one_of(st.sampled_from(known), st.just(unknown))
    # two time points a batch mixes, drawn across the whole history;
    # ``te`` never precedes ``ts``
    span = st.sampled_from(range(t_min, t_max + 1))
    times = sorted([draw(span), draw(span)])
    at = st.sampled_from(times)

    def request():
        kind = draw(st.sampled_from([
            "snapshot", "node_state", "node_history", "node_histories",
            "khop",
        ]))
        if kind == "snapshot":
            return QueryRequest(kind="snapshot", t=draw(at))
        if kind == "khop":
            single = draw(st.booleans())
            centers = (draw(nodes),) if single else tuple(
                draw(st.lists(nodes, min_size=1, max_size=4))
            )
            return QueryRequest(
                kind="khop", t=draw(at), nodes=centers,
                k=draw(st.sampled_from([1, 2])),
                algorithm=draw(st.sampled_from(
                    ["auto", "snapshot-first", "khop"]
                )),
                single=single,
            )
        if kind == "node_state":
            return QueryRequest(
                kind="node_state", t=draw(at), nodes=(draw(nodes),),
                single=True,
            )
        # mostly a window, which has a version-pointer round to price
        ts, te = times if draw(st.integers(0, 3)) else (draw(at),) * 2
        if kind == "node_history":
            return QueryRequest(
                kind="node_histories", ts=ts, te=te, nodes=(draw(nodes),),
                single=True,
            )
        return QueryRequest(
            kind="node_histories", ts=ts, te=te,
            nodes=tuple(draw(st.lists(nodes, min_size=1, max_size=4))),
        )

    mix = [request() for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        mix.append(draw(st.sampled_from(mix)))  # an equal request
    state = draw(st.sampled_from(["cold", "warm", "snapshots", "near"]))
    if state == "cold":
        prelude = []
    elif state == "warm":
        prelude = list(mix)
    elif state == "snapshots":  # exact checkpoints when they are on
        prelude = [QueryRequest(kind="snapshot", t=t) for t in times]
    else:  # states at an earlier time of the same spans seed these
        prelude = [
            QueryRequest(kind="snapshot", t=max(t_min, t - 1))
            for t in times
        ] + [
            QueryRequest(
                kind="node_histories", ts=max(t_min, t - 1),
                te=max(t_min, t - 1), nodes=tuple(known[:6]),
            )
            for t in times
        ]
    return events, tgi, mix, prelude, draw(st.booleans())


def oracle(events, request):
    """The request's value from the event log alone; a k-hop's graphs
    as ``graph_parts`` (``None`` for a center dead at ``t``)."""
    if request.kind == "snapshot":
        return Graph.replay(events, until=request.t)
    if request.kind == "khop":
        hoods = [
            oracle_parts(events, c, request.k, request.t)
            for c in request.nodes
        ]
        return hoods[0] if request.single else hoods
    if request.kind == "node_state":
        return ground_truth_history(
            events, request.nodes[0], request.t, request.t
        )[0]
    histories = [
        oracle_history(events, n, request.ts, request.te)
        for n in request.nodes
    ]
    return histories[0] if request.single else histories


def observed(request, value):
    """``value`` as :func:`oracle` states it."""
    if request.kind != "khop":
        return value
    if request.single:
        return graph_parts(value)
    return [None if g is None else graph_parts(g) for g in value]


def exact_snapshot(tgi, t):
    """Whether the snapshot at ``t`` is an exact checkpoint, read
    without perturbing the cache."""
    cp = tgi.checkpoints
    key = _state_key(tgi._span_at(t).tsid, None, t, False)
    return cp is not None and cp.peek(key)


def raises(events, request):
    """Whether the request fails: a lone k-hop center dead at ``t``."""
    return (
        request.kind == "khop" and request.single
        and oracle(events, request) is None
    )


class StoreLog:
    """What the session priced and what the store served, per call."""

    def __init__(self, mp):
        self.priced, self.fetched = [], []
        self.requests = self.bytes = 0
        # planner builds outside a k-hop's choice of algorithm, which
        # prices its candidates on the planner's plans
        self.plans = 0
        self.choosing = 0
        self.built = 0
        price, multiget = Cluster.price, Cluster.multiget

        def logged_price(cluster, keys, clients=1):
            self.priced.append(list(keys))
            return price(cluster, keys, clients=clients)

        def logged_multiget(cluster, keys, *args, **kwargs):
            values, stats = multiget(cluster, keys, *args, **kwargs)
            self.fetched.append(list(keys))
            self.requests += stats.num_requests
            self.bytes += stats.bytes_read
            return values, stats

        mp.setattr(Cluster, "price", logged_price)
        mp.setattr(Cluster, "multiget", logged_multiget)
        for name in PLANNER_BUILDS:
            mp.setattr(TGIPlanner, name, self._planning(
                getattr(TGIPlanner, name)
            ))
        mp.setattr(SessionPricing, "_choose_khop", self._choosing(
            SessionPricing._choose_khop
        ))
        for name in (
            "_snapshot_exec_plan", "_node_histories_plan", "_khops_plan",
        ):
            mp.setattr(TGI, name, self._counting(getattr(TGI, name), "built"))

    def _counting(self, fn, counter):
        def wrapper(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return fn(*args, **kwargs)

        return wrapper

    def _planning(self, fn):
        def wrapper(*args, **kwargs):
            if not self.choosing:
                self.plans += 1
            return fn(*args, **kwargs)

        return wrapper

    def _choosing(self, fn):
        def wrapper(*args, **kwargs):
            self.choosing += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.choosing -= 1

        return wrapper

    def reset(self):
        self.priced, self.fetched = [], []
        self.requests = self.bytes = 0
        self.built = 0


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(scenarios())
def test_generated_requests_match_the_oracle(scenario):
    events, tgi, mix, prelude, collector = scenario
    # a twin with the same rows and the same (empty) reader state
    twin = pickle.loads(pickle.dumps(tgi))
    alone, batched_alone = GraphSession(tgi), GraphSession(twin)
    was = gc.isenabled()
    (gc.enable if collector else gc.disable)()
    try:
        check_against_the_oracle(events, tgi, mix, prelude, alone,
                                 batched_alone)
        assert gc.isenabled() is collector
    finally:
        (gc.enable if was else gc.disable)()


def check_against_the_oracle(events, tgi, mix, prelude, alone,
                             batched_alone):
    with pytest.MonkeyPatch.context() as mp:
        log = StoreLog(mp)
        for session in (alone, batched_alone):
            session.execute_batch(
                [r for r in prelude if not raises(events, r)]
            )
        assert log.plans == 0

        for request in mix:
            log.reset()
            if raises(events, request):
                with pytest.raises(IndexError_):
                    alone.execute(request)
                with pytest.raises(IndexError_):
                    batched_alone.execute_batch([request])
                assert log.plans == 0
                continue
            auto = request.kind == "khop" and request.algorithm == "auto"
            exact = auto and exact_snapshot(tgi, request.t)
            got = alone.execute(request)
            assert observed(request, got.value) == oracle(events, request), (
                request.describe()
            )
            if exact:  # Algorithm 4 is not priced
                assert got.stats.candidates == {"snapshot-first": 0.0}
            elif auto:  # both, unless no center is known to bound
                span = tgi._span_at(request.t)
                known = any(span.pid_of(c) is not None for c in request.nodes)
                assert set(got.stats.candidates) == (
                    {"snapshot-first", "khop"} if known
                    else {"snapshot-first"}
                ), request.describe()
            assert log.built == 1
            if tgi.delta_cache is None and request.kind != "khop":
                (priced,) = log.priced
                fetched = {key for keys in log.fetched for key in keys}
                assert set(priced) == fetched, request.describe()
            assert got.stats.requests == log.requests
            (one,) = batched_alone.execute_batch([request])
            assert observed(request, one.value) == observed(
                request, got.value
            )
            assert one.stats == got.stats
            assert log.plans == 0

        # a failing member would fail the whole batch
        batch = [r for r in mix if not raises(events, r)]
        log.reset()
        results = alone.execute_batch(batch)
        for request, result in zip(batch, results):
            assert observed(request, result.value) == oracle(
                events, request
            ), request.describe()
        assert log.built == len(set(batch))
        assert sum(r.stats.requests for r in results) == pytest.approx(
            log.requests
        )
        assert sum(r.stats.bytes_read for r in results) == pytest.approx(
            log.bytes
        )
        assert log.plans == 0


# -- the TAF operators over a grid ----------------------------------------


@st.composite
def taf_scenarios(draw):
    """A built index behind a TGIHandler, its history, a window inside
    it, an id predicate, a timepoints spec, points inside the window and
    a SoTS radius and center list."""
    events = random_history(
        steps=draw(st.integers(40, 110)),
        seed=draw(st.integers(0, 10**6)),
        edge_attr_churn=draw(st.booleans()),
    )
    tgi = TGI(TGIConfig(
        events_per_timespan=draw(st.sampled_from([30, 80])),
        eventlist_size=draw(st.sampled_from([6, 15])),
        micro_partition_size=draw(st.sampled_from([4, 9])),
        cluster=ClusterConfig(num_machines=3),
    ))
    tgi.build(events)
    handler = TGIHandler(tgi, SparkContext(num_workers=2))
    t_min, t_max = events[0].time, events[-1].time
    ts, te = sorted(draw(st.integers(t_min, t_max)) for _ in range(2))
    universe = sorted({ev.node for ev in events})
    cut = draw(st.integers(0, universe[-1] + 1))
    below = draw(st.booleans())
    keep = (lambda n: n < cut) if below else (lambda n: n >= cut)
    predicate = f"id < {cut}" if below else f"id >= {cut}"
    inside = st.integers(ts, te)
    timepoints = draw(st.one_of(
        st.none(), st.integers(1, 4), st.lists(inside, min_size=1, max_size=4),
    ))
    points = sorted(draw(inside) for _ in range(2))
    centers = draw(st.one_of(st.none(), st.lists(
        st.sampled_from(universe), min_size=1, max_size=4, unique=True,
    )))
    return (events, handler, (ts, te), (predicate, keep), timepoints,
            points, draw(st.sampled_from([1, 2])), centers)


def score(state):
    """A numeric node metric: the degree, -1 for a node not alive."""
    return -1 if state is None else len(state.E)


def shape(g):
    """A graph metric over everything a graph holds: nodes with their
    attributes, the edges, and the attributed edges with theirs."""
    return (
        frozenset((n, tuple(sorted(g.node_attr_maps()[n].items())))
                  for n in g.nodes()),
        frozenset(g.edges()),
        frozenset((e, tuple(sorted(attrs.items())))
                  for e, attrs in g.attributed_edges().items()),
    )


def son_delta(state, value, ev):
    """``NodeComputeDelta``'s step for :func:`score`: the metric of the
    state after ``ev``."""
    node = ev.node if state is None else state.I
    return score(evolve_node_state(state, ev, node))


def sots_delta(g, value, ev):
    """``NodeComputeDelta``'s step for :func:`shape`, leaving ``g`` to
    the operator."""
    after = g.copy()
    after.apply_event(ev)
    return shape(after)


def son_oracle(events, keep, ts, te):
    """The histories a SoN over ``[ts, te]`` holds: every node the
    predicate keeps that is alive or changes in the window, by id."""
    out = {}
    for node in sorted({ev.node for ev in events}):
        history = oracle_history(events, node, ts, te)
        if keep(node) and (history.initial is not None or history.events):
            out[node] = history
    return out


def histories(son):
    """A fetched SoN's histories by node id."""
    out = {nt.node_id: nt.history for nt in son}
    assert len(out) == len(son)
    return out


def change_times(history):
    """Times at which some event changes the node's state."""
    times, state = [], history.initial
    for ev in history.events:
        after = evolve_node_state(state, ev, history.node)
        if after != state and (not times or times[-1] != ev.time):
            times.append(ev.time)
        state = after
    return times


def grid(spec, ts, te, changes):
    """The points a timepoints spec resolves to over ``[ts, te]``."""
    if spec is None:
        return [ts] + [t for t in changes if t != ts]
    if isinstance(spec, int):
        return tp.uniform(spec)(types.SimpleNamespace(
            get_start_time=lambda: ts, get_end_time=lambda: te,
        ))
    return sorted(spec)


def state_at(events, node, t):
    return ground_truth_history(events, node, t, t)[0]


def check_computed(computed, expected):
    """``ComputedValues`` and its aggregates against the expected map."""
    assert computed.values == expected
    if not expected:
        for aggregate in (computed.Max, computed.Min, computed.Mean):
            with pytest.raises(AnalyticsError):
                aggregate()
        return
    top = max(expected.values())
    assert computed.Max() == (
        min(n for n, v in expected.items() if v == top), top
    )
    assert computed.Min() == min(expected.items(), key=lambda kv: kv[::-1])
    assert computed.Mean() == sum(expected.values()) / len(expected)


def check_delta(delta, temporal, wanted, start, at_start):
    """A ``NodeComputeDelta`` series: the start value first, then one
    value per event time of ``wanted`` (every time, for ``None``), each
    equal to ``NodeComputeTemporal``'s wherever that evaluated."""
    assert delta[0] == (start, at_start)
    times = [t for t, _v in delta[1:]]
    assert times == sorted(set(times)) and all(t > start for t in times)
    if wanted is not None:
        assert set(times) <= set(wanted)
    evaluated = dict(temporal)
    for t, value in delta:
        if t in evaluated:
            assert value == evaluated[t]


def check_son(events, handler, window, predicate, timepoints, points):
    text, keep = predicate
    ts, te = window
    son = SON(handler).Select(text).Timeslice(ts, te).fetch()
    expected = son_oracle(events, keep, ts, te)
    assert histories(son) == expected
    assert son.node_ids() == sorted(expected)
    assert histories(SON(handler).Timeslice(ts, te).Select(text).fetch()) \
        == expected

    # a point, and a list of points before and after the fetch
    t1, t2 = points
    assert histories(SON(handler).Select(text).Timeslice(t1).fetch()) \
        == son_oracle(events, keep, t1, t1)
    for t, one in zip(points, SON(handler).Select(text).Timeslice(points)):
        assert histories(one.fetch()) == son_oracle(events, keep, t, t)
    for t, one in zip(points, son.Timeslice(points)):
        assert histories(one) == {
            n: oracle_history(events, n, t, t) for n in expected
        }
    assert histories(son.Timeslice(t1, t2)) == {
        n: oracle_history(events, n, t1, t2) for n in expected
    }

    # pre- and post-fetch Select by attribute and by callable
    def v_is_2(node, history):
        states, state = [history.initial], history.initial
        for ev in history.events:
            state = evolve_node_state(state, ev, node)
            states.append(state)
        return any(s is not None and s.attrs.get("v") == 2 for s in states)

    by_attr = {n: h for n, h in expected.items() if v_is_2(n, h)}
    assert histories(son.Select("v = 2")) == by_attr
    assert histories(
        SON(handler).Select(text).Select("v = 2").Timeslice(ts, te).fetch()
    ) == by_attr
    even = lambda nt: len(nt.events) % 2 == 0  # noqa: E731
    by_call = {n: h for n, h in expected.items() if len(h.events) % 2 == 0}
    assert histories(son.Select(even)) == by_call
    assert histories(
        SON(handler).Select(even).Select(text).Timeslice(ts, te).fetch()
    ) == by_call

    # Filter: every state of the projection is the projected state
    for projected in (
        son.Filter("v"),
        SON(handler).Select(text).Timeslice(ts, te).Filter("v").fetch(),
    ):
        assert sorted(projected.node_ids()) == sorted(expected)
        for nt in projected:
            h = expected[nt.node_id]
            for t in [ts] + [ev.time for ev in h.events]:
                full = state_at(events, nt.node_id, t)
                got = nt.get_state_at(t)
                assert (got is None) == (full is None)
                if full is not None:
                    assert got.E == full.E
                    assert got.attrs == {
                        k: v for k, v in full.attrs.items() if k == "v"
                    }

    # the compute operators
    for at in (None, t2):
        check_computed(son.NodeCompute(score, at=at), {
            n: score(state_at(events, n, ts if at is None else at))
            for n in expected
        })
    temporal = son.NodeComputeTemporal(score, timepoints)
    assert set(temporal.series) == set(expected)
    for n, h in expected.items():
        assert temporal[n] == [
            (t, score(state_at(events, n, t)))
            for t in grid(timepoints, ts, te, change_times(h))
        ]
    delta = son.NodeComputeDelta(score, son_delta, timepoints)
    assert set(delta.series) == set(expected)
    for n, h in expected.items():
        wanted = None if timepoints is None else grid(timepoints, ts, te, [])
        check_delta(delta[n], temporal[n], wanted, ts,
                    score(state_at(events, n, ts)))
        assert [t for t, _v in delta[n][1:]] == sorted({
            ev.time for ev in h.events
            if wanted is None or ev.time in wanted
        })
        for t, value in delta[n]:
            assert value == score(state_at(events, n, t))

    # CompareNodes over the nodes two sets share, at one time
    later = SON(handler).Timeslice(t2, te).fetch()
    shared = set(expected) & set(histories(later))
    assert SON.CompareNodes(son, later, score, t2) == {
        n: (score(state_at(events, n, t2)),) * 2 for n in shared
    }

    for bad in bad_windows(handler, window):
        with pytest.raises(TimeRangeError):
            SON(handler).Timeslice(*bad)
        with pytest.raises(TimeRangeError):
            son.Timeslice(*bad)


def bad_windows(handler, window):
    """An inverted window, and two disjoint from the indexed history."""
    lo, hi = handler.history_range()
    return [(window[1] + 1, window[0]), (hi + 1, hi + 3), (lo - 3, lo - 1)]


def sots_oracle(events, centers, keep, k, ts, te):
    """A SoTS over ``[ts, te]``: per kept center that exists in the
    window, its members' histories and the attributed edges among them
    at ``ts``."""
    out = {}
    for center in centers:
        truth = ground_truth_subgraph(events, center, k, ts, te) \
            if keep(center) else None
        if truth is not None:
            members, edge_attrs = truth
            out[center] = ({
                n: NodeHistory(n, ts, te, state, tuple(changes))
                for n, (state, changes) in members.items()
            }, edge_attrs)
    return out


def subgraphs(sots):
    """A fetched SoTS's subgraphs by center, as the oracle states them."""
    out = {
        sg.center: ({n: nt.history for n, nt in sg.members.items()},
                    sg.edge_attrs_initial)
        for sg in sots
    }
    assert len(out) == len(sots)
    return out


def induced(events, members, t):
    """The graph the members alive at ``t`` induce in the log's snapshot
    at ``t``, edge attributes included."""
    return Graph.replay(events, until=t).subgraph(members)


def version_at(events, center, members, k, t):
    """``get_version_at``: the center's k-hop at ``t``, or the members'
    induced graph while the center is not alive."""
    snapshot = Graph.replay(events, until=t)
    if snapshot.has_node(center):
        return snapshot.khop_subgraph(center, k)
    return snapshot.subgraph(members)


def member_times(members):
    """Times of events among the members (the SoTS change points)."""
    return sorted({
        ev.time for h in members.values() for ev in h.events
        if ev.node in members and (ev.other is None or ev.other in members)
    })


def check_sots(events, handler, window, predicate, timepoints, points, k,
               centers):
    text, keep = predicate
    ts, te = window
    universe = sorted({ev.node for ev in events})
    sots = SOTS(k, handler).Select(text).Timeslice(ts, te).fetch(centers)
    expected = sots_oracle(events, centers or universe, keep, k, ts, te)
    assert subgraphs(sots) == expected

    # a point, and a list of points before and after the fetch
    t1, t2 = points
    assert subgraphs(SOTS(k, handler).Select(text).Timeslice(t1).fetch(
        centers
    )) == sots_oracle(events, centers or universe, keep, k, t1, t1)
    for t, one in zip(points, SOTS(k, handler).Select(text).Timeslice(points)):
        assert subgraphs(one.fetch(centers)) == sots_oracle(
            events, centers or universe, keep, k, t, t
        )
    for t, one in zip(points, sots.Timeslice(points)):
        assert subgraphs(one) == {
            c: ({n: oracle_history(events, n, t, t) for n in members},
                edge_attrs_among(events, members, t))
            for c, (members, _attrs) in expected.items()
        }

    # post-fetch Select by callable; pre-fetch only by id
    big = lambda sg: len(sg.members) > 2  # noqa: E731
    assert subgraphs(sots.Select(big)) == {
        c: v for c, v in expected.items() if len(v[0]) > 2
    }
    with pytest.raises(QueryError):
        SOTS(k, handler).Select("v = 2")

    # the compute operators
    for at in (None, t2):
        t = ts if at is None else at
        assert sots.NodeCompute(shape, at=at).values == {
            c: shape(version_at(events, c, members, k, t))
            for c, (members, _attrs) in expected.items()
        }
        check_computed(sots.NodeCompute(lambda g: g.num_edges, at=at), {
            c: version_at(events, c, members, k, t).num_edges
            for c, (members, _attrs) in expected.items()
        })
    temporal = sots.NodeComputeTemporal(shape, timepoints)
    delta = sots.NodeComputeDelta(shape, sots_delta, timepoints)
    assert set(temporal.series) == set(delta.series) == set(expected)
    for c, (members, _attrs) in expected.items():
        changes = member_times(members)
        assert temporal[c] == [
            (t, shape(induced(events, members, t)))
            for t in grid(timepoints, ts, te, changes)
        ]
        wanted = None if timepoints is None else grid(timepoints, ts, te, [])
        check_delta(delta[c], temporal[c], wanted, ts,
                    shape(induced(events, members, ts)))
        assert [t for t, _v in delta[c][1:]] == [
            t for t in changes if wanted is None or t in wanted
        ]
        if timepoints is None:  # the same grid: equal at every point
            assert delta[c] == temporal[c]

    for bad in bad_windows(handler, window):
        with pytest.raises(TimeRangeError):
            SOTS(k, handler).Timeslice(*bad)
        with pytest.raises(TimeRangeError):
            sots.Timeslice(*bad)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(taf_scenarios())
def test_generated_son_operators_match_the_oracle(scenario):
    events, handler, window, predicate, timepoints, points, _k, _c = scenario
    check_son(events, handler, window, predicate, timepoints, points)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(taf_scenarios())
def test_generated_sots_operators_match_the_oracle(scenario):
    check_sots(*scenario)
