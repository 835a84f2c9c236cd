"""Generated request mixes held to the event-log oracle.

Hypothesis draws a history (churn, re-adds, attribute edits, string ids
through ``relabelled``), a cache configuration (delta cache of 0, 2 or
1024 rows; checkpoints off or 64), a warm, near or cold cache state, and
a mix of snapshot, node-state and node-history requests — single and
batched, with duplicates, unknown nodes beside valid ones and two time
points in one batch.  Every value is checked against ``tests.oracle``,
and the session's accounting against what the store saw:

- a request run alone is priced on exactly the keys it fetches (with
  the delta cache off, every key it needs reaches ``Cluster.multiget``);
- a batch's fair shares sum to what the store served it;
- ``execute(r)`` is ``execute_batch([r])[0]``, value and stats;
- running these kinds asks the planner for nothing: each compiles one
  executable plan per distinct request and prices that.
"""

from __future__ import annotations

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import GraphSession
from repro.api import QueryRequest
from repro.graph.static import Graph
from repro.index.tgi import TGI, TGIConfig, TGIPlanner
from repro.kvstore.cluster import Cluster, ClusterConfig
from tests.helpers import random_history, relabelled
from tests.oracle import ground_truth_history, oracle_history

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
        kind = draw(st.sampled_from(
            ["snapshot", "node_state", "node_history", "node_histories"]
        ))
        if kind == "snapshot":
            return QueryRequest(kind="snapshot", t=draw(at))
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
    state = draw(st.sampled_from(["cold", "warm", "near"]))
    if state == "cold":
        prelude = []
    elif state == "warm":
        prelude = list(mix)
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
    return events, tgi, mix, prelude


def oracle(events, request):
    """The request's value from the event log alone."""
    if request.kind == "snapshot":
        return Graph.replay(events, until=request.t)
    if request.kind == "node_state":
        return ground_truth_history(
            events, request.nodes[0], request.t, request.t
        )[0]
    histories = [
        oracle_history(events, n, request.ts, request.te)
        for n in request.nodes
    ]
    return histories[0] if request.single else histories


class StoreLog:
    """What the session priced and what the store served, per call."""

    def __init__(self, mp):
        self.priced, self.fetched = [], []
        self.requests = self.bytes = 0
        self.plans = 0
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
            mp.setattr(TGIPlanner, name, self._counting(
                getattr(TGIPlanner, name), "plans"
            ))
        for name in ("_snapshot_exec_plan", "_node_histories_plan"):
            mp.setattr(TGI, name, self._counting(getattr(TGI, name), "built"))

    def _counting(self, fn, counter):
        def wrapper(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return fn(*args, **kwargs)

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
    events, tgi, mix, prelude = scenario
    # a twin with the same rows and the same (empty) reader state
    twin = pickle.loads(pickle.dumps(tgi))
    alone, batched_alone = GraphSession(tgi), GraphSession(twin)
    with pytest.MonkeyPatch.context() as mp:
        log = StoreLog(mp)
        for session in (alone, batched_alone):
            session.execute_batch(prelude)

        for request in mix:
            log.reset()
            got = alone.execute(request)
            assert got.value == oracle(events, request), request.describe()
            assert log.built == 1
            if tgi.delta_cache is None:
                (priced,) = log.priced
                fetched = {key for keys in log.fetched for key in keys}
                assert set(priced) == fetched, request.describe()
            assert got.stats.requests == log.requests
            (one,) = batched_alone.execute_batch([request])
            assert one.value == got.value and one.stats == got.stats

        log.reset()
        results = alone.execute_batch(mix)
        for request, result in zip(mix, results):
            assert result.value == oracle(events, request), (
                request.describe()
            )
        assert log.built == len(set(mix))
        assert sum(r.stats.requests for r in results) == pytest.approx(
            log.requests
        )
        assert sum(r.stats.bytes_read for r in results) == pytest.approx(
            log.bytes
        )
        assert log.plans == 0
