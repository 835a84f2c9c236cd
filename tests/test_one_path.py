"""One way to run a query: every terminal kind compiles to plan +
finalize, ``execute(r)`` is the batch of one, and retrieval *returns* its
stats with its value."""

from dataclasses import fields

import pytest

from repro import GraphSession, TGI, TGIConfig
from repro.api import QueryRequest, QueryStats
from repro.errors import IndexError_
from repro.faults import CrashWindow, FaultSchedule, clear_faults, inject_faults
from repro.index.interface import HistoricalGraphIndex
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.cost import FetchStats
from repro.kvstore.resilience import ResiliencePolicy
from repro.workloads.citation import CitationConfig, generate_citation_events


@pytest.fixture(scope="module")
def events():
    return generate_citation_events(
        CitationConfig(num_nodes=300, citations_per_node=4, seed=42)
    )


def build_tgi(events, **overrides):
    config = dict(
        events_per_timespan=1200, eventlist_size=150,
        micro_partition_size=32,
        cluster=ClusterConfig(num_machines=4),
    )
    config.update(overrides)
    tgi = TGI(TGIConfig(**config))
    tgi.build(events)
    return tgi


def history_parts(value):
    return [(h.node, h.ts, h.te, h.initial, h.events)
            for h in value.all_histories()]


# -- khop_history has a plan form --------------------------------------------

KHOP_HISTORY = QueryRequest(
    kind="khop_history", ts=200, te=900, nodes=(5,), single=True
)


def test_khop_history_coalesces_with_batchmates(events):
    requests = [
        QueryRequest(kind="khop", t=900, nodes=(3,), k=2, single=True),
        KHOP_HISTORY,
        QueryRequest(kind="node_histories", ts=200, te=900, nodes=(5, 8)),
        QueryRequest(kind="khop_history", ts=100, te=700, nodes=(8,),
                     single=True),
    ]
    serial_session = GraphSession.from_index(build_tgi(events))
    serial = [serial_session.execute(r) for r in requests]
    batch = GraphSession.from_index(build_tgi(events)).execute_batch(requests)
    for want, got in ((serial[1], batch[1]), (serial[3], batch[3])):
        assert len(want.value.neighbors) > 0
        assert history_parts(got.value) == history_parts(want.value)
        assert got.stats.algorithm == "khop-history"
    assert sorted(batch[0].value.nodes()) == sorted(serial[0].value.nodes())
    # it really ran on the shared timeline: rows its batchmates also
    # needed were fetched once
    assert batch[1].stats.coalesced_hits + batch[3].stats.coalesced_hits > 0
    assert sum(r.stats.requests for r in batch) < sum(
        r.stats.requests for r in serial
    )


@pytest.mark.parametrize("overrides", [
    {}, {"delta_cache_entries": 512, "checkpoint_entries": 64},
], ids=["uncached", "cached"])
def test_khop_history_standalone_accounting_is_algorithm5s(events, overrides):
    """The plan form returns what the inherited one-history-at-a-time
    loop returns and costs no more: a row that loop fetches once per
    history, one plan fetches once.  Every other counter is the loop's."""
    reference = build_tgi(events, **overrides)
    want, fetch = HistoricalGraphIndex.retrieve_khop_history(
        reference, 5, 200, 900
    )
    want_stats = QueryStats.from_fetch(fetch)
    result = GraphSession.from_index(
        build_tgi(events, **overrides)
    ).execute(KHOP_HISTORY)
    got = result.stats
    assert history_parts(result.value) == history_parts(want)
    shrinks = {"requests", "rounds", "sim_time_ms"}
    for spec in fields(FetchStats):
        if spec.name not in shrinks | {"coalesced_hits",
                                       "coalesced_bytes_saved"}:
            assert getattr(got, spec.name) == pytest.approx(
                getattr(want_stats, spec.name)
            ), spec.name
    for name in shrinks:
        assert getattr(got, name) <= getattr(want_stats, name), name
    assert 0 < got.requests <= want_stats.requests
    assert got.bytes_read <= want_stats.bytes_read
    # a row asked twice is either fetched or single-flighted, never lost
    assert got.requests + got.coalesced_hits == (
        want_stats.requests + want_stats.coalesced_hits
    )
    assert got.decoded_events > 0


# -- every kind, every way of running it --------------------------------------

def every_kind(t):
    return [
        QueryRequest(kind="snapshot", t=t),
        QueryRequest(kind="node_state", t=t, nodes=(5,), single=True),
        QueryRequest(kind="node_histories", ts=200, te=t, nodes=(5,),
                     single=True),
        QueryRequest(kind="node_histories", ts=200, te=t, nodes=(3, 5, 8)),
        KHOP_HISTORY,
    ] + [
        QueryRequest(kind="khop", t=t, nodes=nodes, k=2, single=single,
                     algorithm=algorithm)
        for algorithm in ("auto", "khop", "snapshot-first")
        for nodes, single in (((3,), True), ((3, 5, 10**6), False))
    ]


def test_every_terminal_kind_single_batched_and_captured(events):
    tgi = build_tgi(
        events,
        delta_cache_entries=256, checkpoint_entries=32,
        cluster=ClusterConfig(num_machines=4, replication=1),
    )
    session = GraphSession.from_index(tgi)
    requests = every_kind(900)
    for request in requests:  # single
        result = session.execute(request)
        assert result.ok and result.stats.algorithm is not None
    assert all(r.ok for r in session.execute_batch(requests))  # batched
    dead = QueryRequest(kind="khop", t=900, nodes=(10**6,), k=2, single=True)
    captured = session.execute_batch(
        [requests[0], dead, dead, requests[5]], capture_errors=True
    )
    assert [r.ok for r in captured] == [True, False, False, True]
    assert isinstance(captured[1].error, IndexError_)
    with pytest.raises(IndexError_):
        session.execute(dead)

    partial = [
        QueryRequest(kind="snapshot", t=900, allow_partial=True),
        QueryRequest(kind="khop", t=900, nodes=(3,), k=2, single=True,
                     allow_partial=True),
        QueryRequest(kind="khop_history", ts=200, te=900, nodes=(5,),
                     single=True, allow_partial=True),
    ]
    fresh = GraphSession.from_index(
        tgi, cache_entries=0, checkpoint_entries=0
    )
    inject_faults(tgi.cluster, FaultSchedule(
        crashes=(CrashWindow(1, 0.0),), seed=7,
    ))
    tgi.cluster.enable_resilience(
        ResiliencePolicy(max_attempts=2, hedge=False)
    )
    try:
        alone = [fresh.execute(request) for request in partial]
        together = fresh.execute_batch(partial, capture_errors=True)
    finally:
        tgi.cluster.disable_resilience()
        clear_faults(tgi.cluster)
    assert alone[0].degraded is not None and together[0].degraded is not None
    assert all(r.ok for r in alone + together)

    son = session.nodes("id < 40").timeslice(200, 900).fetch()
    sots = session.subgraphs(k=1).timeslice(200, 900).fetch(centers=[3, 5])
    assert len(son) > 0 and son.fetch_stats.requests > 0
    assert len(sots) == 2 and sots.fetch_stats.rounds > 0
    # the value-only wrappers direct callers use still work
    assert tgi.get_khop(3, 900, k=2).has_node(3)
    assert len(session.handler.fetch_node_histories([3, 5], 200, 900)) == 2
