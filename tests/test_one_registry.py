"""One metrics registry per session: each query is counted once.

A session records every successful query into its own
``SessionMetrics`` registry; a service over the session builds its
``ServiceMetrics`` on that same registry and adds only what it alone
sees, so ``/metrics`` renders one registry in both formats.  These tests
hold the record to the results it was made from."""

import http.client
import json
import threading
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro import GraphSession, TGI, TGIConfig
from repro.api import BadRequest, QueryRequest
from repro.kvstore.cluster import ClusterConfig
from repro.service import BackgroundService, ServiceClient
from repro.workloads.citation import CitationConfig, generate_citation_events

COLUMNS = ("queries", "requests", "bytes", "sim_ms")


@pytest.fixture(scope="module")
def events():
    return generate_citation_events(
        CitationConfig(num_nodes=200, citations_per_node=3, seed=7)
    )


@pytest.fixture(scope="module")
def tgi(events):
    tgi = TGI(TGIConfig(
        events_per_timespan=800,
        eventlist_size=100,
        micro_partition_size=32,
        cluster=ClusterConfig(num_machines=2),
    ))
    tgi.build(events)
    return tgi


@pytest.fixture(scope="module")
def tmax(events):
    return events[-1].time


def get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode()
    finally:
        conn.close()


def request_pool(tmax):
    """Valid requests of every shape the draw mixes, and one whose
    center is dead, so it fails at assembly."""
    good = [
        QueryRequest(kind="snapshot", t=tmax // 2),
        QueryRequest(kind="snapshot", t=tmax),
        QueryRequest(kind="khop", t=tmax, nodes=(3,), k=1, single=True),
        QueryRequest(kind="khop", t=tmax, nodes=(5,), k=2, single=True),
        QueryRequest(
            kind="node_histories", ts=tmax // 3, te=tmax, nodes=(4,),
            single=True,
        ),
    ]
    bad = QueryRequest(kind="khop", t=tmax, nodes=(10**6,), k=1, single=True)
    return good, bad


calls = st.lists(
    st.tuples(
        st.sampled_from(["execute", "batch"]),
        st.lists(st.integers(0, 4), min_size=1, max_size=5),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=20, deadline=None)
@given(calls=calls, cache_entries=st.sampled_from([0, 4]),
       with_bad=st.booleans())
def test_registry_totals_are_the_sums_of_the_ok_results(
    tgi, tmax, calls, cache_entries, with_bad
):
    session = GraphSession.from_index(tgi, cache_entries=cache_entries)
    good, bad = request_pool(tmax)
    want = defaultdict(lambda: dict.fromkeys(COLUMNS, 0.0))
    for i, (how, picks) in enumerate(calls):
        requests = [good[p] for p in picks]
        if how == "execute":
            results = [session.execute(requests[0])]
        else:
            if with_bad and i == 0:
                requests.insert(len(requests) // 2, bad)
            results = session.execute_batch(requests, capture_errors=True)
        for result in results:
            if not result.ok:
                continue
            row = want[result.request.kind]
            row["queries"] += 1.0
            row["requests"] += result.stats.requests
            row["bytes"] += result.stats.bytes_read
            row["sim_ms"] += result.stats.sim_time_ms
    assert session.metrics.totals() == dict(sorted(want.items()))


@pytest.mark.parametrize("workers", [1, 2])
def test_billed_requests_equal_the_recorded_requests(tgi, tmax, workers):
    session = GraphSession.from_index(tgi)
    specs = [
        {"kind": "khop", "node": node, "time": tmax, "k": 2}
        for node in (1, 2, 3, 3, 5, 8)
    ] + [{"kind": "snapshot", "time": tmax // 2}] * 2

    def client_loop(name):
        with ServiceClient(port=svc.port, caller=name) as client:
            for spec in specs:
                client.query(spec)

    with BackgroundService(session, workers=workers) as svc:
        threads = [
            threading.Thread(target=client_loop, args=(f"c{i}",))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = ServiceClient(port=svc.port).metrics()
    billed = svc.service.metrics.registry.by_label(
        "hgs_store_requests_total", "caller"
    )
    totals = session.metrics.totals()
    assert set(billed) == {"c0", "c1", "c2"}
    assert sum(billed.values()) == pytest.approx(
        sum(row["requests"] for row in totals.values()), rel=1e-9
    )
    assert snap["requests"]["by_kind"] == {"khop": 18, "snapshot": 6}
    assert snap["batches"]["requests"] == 24


def test_in_process_and_served_queries_share_one_record(tgi, tmax):
    session = GraphSession.from_index(tgi)
    session.at(tmax).khop(3, k=1)
    with BackgroundService(session) as svc:
        with ServiceClient(port=svc.port) as client:
            client.query({"kind": "snapshot", "time": tmax // 2})
            client.query({"kind": "khop", "node": 5, "time": tmax, "k": 1})
            snap = client.metrics()
        session.at(tmax // 2).snapshot()
        status, text = get(svc.port, "/metrics?format=prometheus")
    assert status == 200
    assert snap["requests"]["by_kind"] == {"khop": 2, "snapshot": 1}
    assert snap["requests"]["by_kind"] == {
        kind: int(row["queries"])
        for kind, row in snap["session_totals"].items()
    }
    # the session keeps no learned planner state to report
    assert "planner" not in snap
    assert "hgs_planner_correction" not in text
    types = [line for line in text.splitlines() if line.startswith("# TYPE")]
    assert types and len(types) == len(set(types))
    assert 'hgs_session_queries_total{kind="snapshot"} 2' in text
    assert 'hgs_http_requests_by_caller_total{caller="anon"}' in text


def test_unknown_metrics_format_is_a_bad_request(tgi):
    session = GraphSession.from_index(tgi)
    with BackgroundService(session) as svc:
        status, body = get(svc.port, "/metrics?format=bogus")
        ok_status, _ = get(svc.port, "/metrics?format=json")
    assert status == 400
    assert json.loads(body)["error"]["code"] == BadRequest.code
    assert ok_status == 200
