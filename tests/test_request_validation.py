"""A malformed request is refused, typed, where it is built.

``QueryRequest`` checks each kind's fields as it is constructed: the time
fields the kind reads are ints, an interval has ``ts <= te``, a
single-subject request names exactly one node, and every node id is
hashable (requests are hashed: a batch plans each distinct one once).  A
violation raises :class:`~repro.errors.QueryError`, which the wire maps
to 400 — so over HTTP a bad request is refused on its own and never
reaches the batch its neighbours run in.
"""

import threading

import pytest

from repro import GraphSession, TGI, TGIConfig
from repro.api import (
    ALGO_KHOP,
    BadRequest,
    QueryRequest,
    ServiceError,
    request_from_spec,
)
from repro.errors import QueryError
from repro.kvstore.cluster import ClusterConfig
from repro.service import BackgroundService, ServiceClient
from tests.helpers import random_history
from tests.test_service import GatedSession, wait_until

EVENTS = random_history(steps=300, seed=3)
T = EVENTS[-1].time
#: the per-center k-hop loop's name, no longer an algorithm
PER_CENTER = ALGO_KHOP + "-per-center"


@pytest.fixture(scope="module")
def tgi():
    tgi = TGI(TGIConfig(
        events_per_timespan=150, eventlist_size=25, micro_partition_size=8,
        cluster=ClusterConfig(num_machines=2),
    ))
    tgi.build(EVENTS)
    return tgi


@pytest.mark.parametrize("fields", [
    dict(kind="snapshot"),
    dict(kind="snapshot", t="abc"),
    dict(kind="khop", t=None, nodes=(5,), single=True),
    dict(kind="khop", t=1.5, nodes=(5,), single=True),
    dict(kind="khop", t=True, nodes=(5,), single=True),
    dict(kind="node_state", t=50),
    dict(kind="node_state", t=50, nodes=(1, 2)),
    dict(kind="khop_history", ts=1, te=50),
    dict(kind="khop", t=50, single=True),
    dict(kind="khop", t=50, nodes=(1, 2), single=True),
    dict(kind="node_histories", nodes=(5,), single=True),
    dict(kind="node_histories", ts=150, te=20, nodes=(5,), single=True),
    dict(kind="node_histories", ts=1, te="20", nodes=(5,)),
    dict(kind="khop", t=50, nodes=([1, 2],)),
    dict(kind="khop", t=50, nodes=({"a": 1},), single=True),
    dict(kind="node_histories", ts=1, te=50, nodes=([1],), single=True),
    dict(kind="khop", t=50, nodes=(5,), single=True, algorithm=PER_CENTER),
], ids=lambda fields: repr(fields))
def test_malformed_request_raises_query_error(fields):
    with pytest.raises(QueryError):
        QueryRequest(**fields)


@pytest.mark.parametrize("spec", [
    {"kind": "snapshot", "time": None},
    {"kind": "khop", "node": 5, "time": "abc"},
    {"kind": "khop", "node": 5, "time": None},
    {"kind": "khop", "node": [1], "time": 50},
    {"kind": "khop", "node": {"a": 1}, "time": 50},
    {"kind": "khop", "nodes": [[1, 2]], "time": 50},
    {"kind": "node", "node": 5, "ts": 150, "te": 20},
    {"kind": "node", "node": 5, "ts": "1", "te": 20},
    {"kind": "khop", "node": 5, "time": 50, "algorithm": PER_CENTER},
], ids=lambda spec: repr(spec))
def test_malformed_spec_is_a_bad_request(spec):
    with pytest.raises(BadRequest):
        request_from_spec(spec)


def test_empty_populations_stay_legal(tgi):
    session = GraphSession.from_index(tgi)
    khops = QueryRequest(kind="khop", t=T, nodes=())
    histories = QueryRequest(kind="node_histories", ts=1, te=T, nodes=())
    assert session.execute(khops).value == []
    assert session.execute(histories).value == []
    assert [r.value for r in session.execute_batch([khops, histories])] == [
        [], [],
    ]


@pytest.mark.parametrize("bad", [
    {"kind": "khop", "nodes": [[1, 2]], "time": T},
    {"kind": "khop", "node": {"a": 1}, "time": T},
    {"kind": "khop", "node": [1], "time": T},
    {"kind": "khop", "node": 5, "time": "abc"},
    {"kind": "node", "node": 5, "ts": T, "te": 20},
    {"kind": "khop", "nodes": [5, 7], "time": T, "algorithm": PER_CENTER},
], ids=lambda spec: repr(spec))
def test_bad_request_does_not_fail_its_batchmate_over_http(tgi, bad):
    """The bad spec and a good one arrive while a batch runs, so the
    collector would run them as one window: the bad one is answered 400
    at parsing, and the good one 200 with its correct value."""
    session = GatedSession(GraphSession.from_index(tgi))
    outcome = {}
    good = {"kind": "snapshot", "time": T // 2}

    def issue(name, spec):
        with ServiceClient(port=svc.port) as client:
            try:
                outcome[name] = client.query(spec)
            except ServiceError as exc:
                outcome[name] = exc

    with BackgroundService(session) as svc:
        collector = svc.service.collector
        threads = [threading.Thread(target=issue, args=args) for args in (
            ("blocker", {"kind": "snapshot", "time": T}),
            ("good", good),
            ("bad", bad),
        )]
        threads[0].start()
        wait_until(lambda: len(session.batches) == 1)
        threads[1].start()
        wait_until(lambda: len(collector._pending) == 1)
        threads[2].start()
        wait_until(
            lambda: "bad" in outcome or len(collector._pending) == 2
        )
        session.release(2)
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
    assert not isinstance(outcome["good"], ServiceError), outcome["good"]
    want = GraphSession.from_index(tgi).at(T // 2).snapshot().value
    assert outcome["good"]["snapshot"] == {
        "nodes": want.num_nodes, "edges": want.num_edges,
    }
    assert isinstance(outcome["bad"], BadRequest)
    assert outcome["bad"].http_status == 400
