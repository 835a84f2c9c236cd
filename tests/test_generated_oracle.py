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

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import GraphSession
from repro.api import QueryRequest
from repro.errors import IndexError_
from repro.graph.static import Graph
from repro.index.tgi import TGI, TGIConfig, TGIPlanner
from repro.index.tgi.states import _state_key
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.session.pricing import SessionPricing
from tests.helpers import graph_parts, random_history, relabelled
from tests.oracle import ground_truth_history, oracle_history, oracle_parts

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
