"""Tests for the query service: micro-batching collector, admission
control, the HTTP front end + client, deadlines, and graceful drain."""

import asyncio
import http.client
import json
import socket
import threading
import time

import pytest

from repro import GraphSession, TGI, TGIConfig
from repro.api import (
    BadRequest,
    DeadlineExceeded,
    Draining,
    NotFound,
    Overloaded,
    QueryRequest,
    QueryResult,
    QueryStats,
    RateLimited,
    ServiceError,
    Unauthorized,
    error_from_payload,
    error_payload,
    request_from_spec,
    spec_from_request,
)
from repro.kvstore.cluster import ClusterConfig
from repro.obs import SamplingPolicy, SlowQueryLog, Tracer
from repro.service import (
    AccessLogger,
    AdmissionController,
    BackgroundService,
    MicroBatchCollector,
    ServiceClient,
    ServiceMetrics,
    TokenBucket,
)
from repro.workloads.citation import CitationConfig, generate_citation_events


@pytest.fixture(scope="module")
def events():
    return generate_citation_events(
        CitationConfig(num_nodes=300, citations_per_node=4, seed=42)
    )


@pytest.fixture(scope="module")
def tgi(events):
    tgi = TGI(TGIConfig(
        events_per_timespan=1200,
        eventlist_size=150,
        micro_partition_size=32,
        cluster=ClusterConfig(num_machines=2),
    ))
    tgi.build(events)
    return tgi


@pytest.fixture(scope="module")
def tmax(events):
    return events[-1].time


def fresh_session(tgi):
    return GraphSession.from_index(tgi)


# -- wire schema -------------------------------------------------------------

def test_spec_round_trip():
    for spec in (
        {"kind": "snapshot", "time": 700},
        {"kind": "node", "node": 5, "ts": 100, "te": 900},
        {"kind": "khop", "node": 3, "time": 800, "k": 2,
         "algorithm": "auto", "deadline_ms": 250.0},
        {"kind": "khop", "nodes": [1, 2, 3], "time": 800, "k": 1,
         "algorithm": "auto", "clients": 4},
    ):
        request = request_from_spec(spec)
        assert request_from_spec(spec_from_request(request)) == request


def test_spec_errors_are_structured():
    with pytest.raises(BadRequest):
        request_from_spec({"kind": "teleport"})
    with pytest.raises(BadRequest, match="missing required field"):
        request_from_spec({"kind": "snapshot"})
    with pytest.raises(BadRequest):
        request_from_spec({"kind": "khop", "node": 1, "time": 5, "k": "x"})
    with pytest.raises(BadRequest):
        request_from_spec([1, 2, 3])
    # a non-positive deadline is rejected at request construction
    with pytest.raises(BadRequest):
        request_from_spec(
            {"kind": "snapshot", "time": 5, "deadline_ms": 0}
        )


def test_error_payload_round_trip():
    status, payload = error_payload(RateLimited("slow down", retry_after=2.5))
    assert status == 429
    err = payload["error"]
    assert err["code"] == "rate_limited"
    assert err["retryable"] is True
    assert err["retry_after_s"] == 2.5
    back = error_from_payload(status, payload)
    assert isinstance(back, RateLimited)
    assert back.retry_after == 2.5
    # internals never leak a traceback shape
    status, payload = error_payload(RuntimeError("boom"))
    assert status == 500
    assert payload["error"]["code"] == "internal"


# -- admission control -------------------------------------------------------

def test_token_bucket_refill():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
    assert bucket.try_acquire() is None
    assert bucket.try_acquire() is None
    wait = bucket.try_acquire()
    assert wait == pytest.approx(0.5)
    clock.advance(0.5)
    assert bucket.try_acquire() is None


def test_admission_rate_limit_per_caller():
    clock = FakeClock()
    admission = AdmissionController(rate=1.0, burst=1.0, clock=clock)
    admission.admit("alice")
    with pytest.raises(RateLimited) as info:
        admission.admit("alice")
    assert info.value.retry_after > 0
    # independent buckets per caller
    admission.admit("bob")


def test_admission_load_shedding():
    admission = AdmissionController(max_pending=2)
    admission.admit("a")
    admission.admit("a")
    with pytest.raises(Overloaded):
        admission.admit("a")
    admission.release()
    admission.admit("a")


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, s: float) -> None:
        self.now += s


# -- micro-batching collector ------------------------------------------------

def khop_request(node, t, k=2):
    return QueryRequest(kind="khop", t=t, nodes=(node,), k=k, single=True)


def test_collector_batches_concurrent_submissions(tgi, tmax):
    session = fresh_session(tgi)
    collector = MicroBatchCollector(session, window_ms=20.0, max_batch=16)

    async def run():
        outs = await asyncio.gather(*[
            collector.submit(khop_request(node, tmax), caller=f"c{node}")
            for node in (1, 2, 3, 4)
        ])
        await collector.drain()
        return outs

    outs = asyncio.run(run())
    assert len({o.batch_id for o in outs}) == 1
    assert all(o.batch_size == 4 for o in outs)
    assert all(o.result.ok for o in outs)
    # member-identical to serial execution
    serial = fresh_session(tgi)
    for node, out in zip((1, 2, 3, 4), outs):
        expect = serial.execute(khop_request(node, tmax))
        assert sorted(out.result.value.nodes()) == sorted(
            expect.value.nodes()
        )


def test_collector_size_trigger_flushes_early(tgi, tmax):
    session = fresh_session(tgi)
    # window far beyond the test budget: only the size trigger can flush
    collector = MicroBatchCollector(
        session, window_ms=10_000.0, max_batch=2
    )

    async def run():
        outs = await asyncio.gather(*[
            collector.submit(khop_request(node, tmax))
            for node in (1, 2, 3, 4)
        ])
        await collector.drain()
        return outs

    outs = asyncio.run(run())
    assert all(o.batch_size == 2 for o in outs)
    assert len({o.batch_id for o in outs}) == 2


def test_collector_isolates_bad_requests(tgi, tmax):
    session = fresh_session(tgi)
    collector = MicroBatchCollector(session, window_ms=20.0)

    async def run():
        outs = await asyncio.gather(*[
            collector.submit(khop_request(node, tmax))
            for node in (1, 999_999, 2)
        ])
        await collector.drain()
        return outs

    good1, bad, good2 = asyncio.run(run())
    assert good1.result.ok and good2.result.ok
    assert not bad.result.ok
    with pytest.raises(Exception, match="not alive"):
        bad.result.raise_for_error()


def test_collector_rejects_after_drain(tgi, tmax):
    session = fresh_session(tgi)
    collector = MicroBatchCollector(session, window_ms=5.0)

    async def run():
        await collector.drain()
        with pytest.raises(Draining):
            await collector.submit(khop_request(1, tmax))

    asyncio.run(run())


def test_collector_records_metrics(tgi, tmax):
    session = fresh_session(tgi)
    metrics = ServiceMetrics(session.metrics)
    collector = MicroBatchCollector(
        session, window_ms=20.0, metrics=metrics
    )

    async def run():
        await asyncio.gather(*[
            collector.submit(khop_request(node, tmax), caller="alice")
            for node in (1, 2, 3)
        ])
        await collector.drain()

    asyncio.run(run())
    snap = metrics.snapshot()
    assert snap["batches"]["count"] == 1
    assert snap["batches"]["requests"] == 3
    assert snap["requests"]["by_kind"] == {"khop": 3}
    assert snap["store"]["requests_by_caller"]["alice"] > 0
    assert snap["latency"]["exec_ms"]["count"] == 1
    assert snap["latency"]["queue_ms"]["count"] == 3


# -- session deadlines -------------------------------------------------------

def test_execute_deadline_expires_with_fake_clock(tgi, tmax):
    session = fresh_session(tgi)
    clock = FakeClock()
    session.clock = lambda: (clock.advance(10.0) or clock.now)
    request = QueryRequest(
        kind="khop", t=tmax, nodes=(1,), k=2, single=True, deadline_ms=50.0
    )
    with pytest.raises(DeadlineExceeded):
        session.execute(request)


def test_execute_without_deadline_unaffected(tgi, tmax):
    session = fresh_session(tgi)
    result = session.execute(khop_request(1, tmax))
    assert result.ok and result.value.num_nodes > 0


def test_execute_batch_capture_errors(tgi, tmax):
    session = fresh_session(tgi)
    requests = [
        khop_request(1, tmax),
        khop_request(999_999, tmax),  # dead center -> assembly failure
        khop_request(2, tmax),
    ]
    results = session.execute_batch(requests, capture_errors=True)
    assert results[0].ok and results[2].ok
    assert not results[1].ok
    assert results[1].value is None
    # without capture, the same batch raises
    with pytest.raises(Exception, match="not alive"):
        session.execute_batch(requests)


def test_execute_batch_expired_deadline_slots(tgi, tmax):
    session = fresh_session(tgi)
    past = session.clock() - 1.0
    results = session.execute_batch(
        [khop_request(1, tmax), khop_request(2, tmax)],
        capture_errors=True,
        deadline_ats=[past, None],
    )
    assert isinstance(results[0].error, DeadlineExceeded)
    assert results[1].ok


# -- HTTP service end to end -------------------------------------------------

@pytest.fixture(scope="module")
def service(tgi):
    with BackgroundService(
        fresh_session(tgi), window_ms=10.0, max_batch=16
    ) as svc:
        yield svc


@pytest.fixture()
def client(service):
    return ServiceClient(port=service.port, caller="tests")


def test_healthz(client):
    assert client.healthz() == {"status": "ok"}


def test_query_payload_matches_direct_execution(client, tgi, tmax):
    out = client.query({"kind": "khop", "node": 3, "time": tmax, "k": 2})
    expect = fresh_session(tgi).execute(khop_request(3, tmax))
    assert out["members"] == sorted(expect.value.nodes())
    assert out["neighborhood"]["nodes"] == expect.value.num_nodes
    assert out["deltas_fetched"] > 0
    svc = out["service"]
    assert svc["batch_size"] >= 1 and svc["batch_id"] >= 1
    assert svc["queue_ms"] >= 0 and svc["exec_ms"] >= 0


def test_query_snapshot_and_node(client, tmax):
    snap = client.query({"kind": "snapshot", "time": tmax // 2})
    assert snap["snapshot"]["nodes"] > 0
    hist = client.query(
        {"kind": "node", "node": 5, "ts": tmax // 3, "te": tmax}
    )
    assert hist["node"] == 5 and len(hist["versions"]) >= 1


def test_query_bad_kind_http_400(client):
    with pytest.raises(BadRequest):
        client.query({"kind": "teleport"})


def test_query_dead_node_http_404(client, tmax):
    with pytest.raises(NotFound):
        client.query(
            {"kind": "khop", "node": 999_999, "time": tmax, "k": 1}
        )


def test_request_id_propagation(client, tmax):
    out = client.query(
        {"kind": "snapshot", "time": tmax // 2}, request_id="trace-42"
    )
    assert out["service"]["request_id"] == "trace-42"


def test_metrics_endpoint(client, tmax):
    client.query({"kind": "snapshot", "time": tmax // 2})
    snap = client.metrics()
    assert snap["requests"]["total"] >= 1
    assert snap["requests"]["by_caller"]["tests"] >= 1
    assert snap["batches"]["count"] >= 1
    assert snap["latency"]["service_ms"]["count"] >= 1


def test_debug_slow_route(tgi, tmax):
    # as `hgs serve --trace all --slow-ms 0` wires it: every query is
    # traced and every trace is slow enough to keep
    session = fresh_session(tgi)
    tracer = Tracer(SamplingPolicy.all(), slow_log=SlowQueryLog(threshold_ms=0))
    session.tracer = tracer
    with BackgroundService(session, tracer=tracer) as svc:
        client = ServiceClient(port=svc.port)
        client.query({"kind": "khop", "node": 3, "time": tmax, "k": 2})
        summary = client._request("GET", "/debug/slow")
        full = client._request("GET", "/debug/slow?traces=1")
    assert summary["enabled"] is True
    assert summary["threshold_ms"] == 0.0
    assert summary["count"] == 1 and len(summary["entries"]) == 1
    assert "trace" not in summary["entries"][0]
    assert full["count"] == 1
    assert full["entries"][0]["trace"]
    assert {k: v for k, v in full["entries"][0].items() if k != "trace"} == (
        summary["entries"][0]
    )


def test_debug_slow_route_without_a_tracer(client):
    assert client._request("GET", "/debug/slow") == {
        "enabled": False, "threshold_ms": None, "count": 0, "entries": [],
    }


def test_deadline_expired_in_window_http_504(tgi, tmax):
    # the window alone (80ms) outlasts a 5ms budget counted from
    # admission, so the request expires before planning
    with BackgroundService(
        fresh_session(tgi), window_ms=80.0, max_batch=64
    ) as svc:
        client = ServiceClient(port=svc.port)
        with pytest.raises(DeadlineExceeded):
            client.query({
                "kind": "snapshot", "time": tmax // 2, "deadline_ms": 5,
            })


def test_rate_limit_http_429_with_retry_after(tgi, tmax):
    with BackgroundService(
        fresh_session(tgi), window_ms=5.0, rate=0.5, burst=1.0
    ) as svc:
        client = ServiceClient(port=svc.port, caller="greedy")
        client.query({"kind": "snapshot", "time": tmax // 2})
        with pytest.raises(RateLimited) as info:
            client.query({"kind": "snapshot", "time": tmax // 2})
        assert info.value.retry_after and info.value.retry_after > 0


def test_auth_middleware(tgi, tmax):
    with BackgroundService(
        fresh_session(tgi), window_ms=5.0, auth_token="sesame"
    ) as svc:
        anon = ServiceClient(port=svc.port)
        with pytest.raises(Unauthorized):
            anon.query({"kind": "snapshot", "time": tmax // 2})
        # health probes bypass auth
        assert anon.healthz()["status"] == "ok"
        authed = ServiceClient(port=svc.port, auth_token="sesame")
        out = authed.query({"kind": "snapshot", "time": tmax // 2})
        assert out["snapshot"]["nodes"] > 0


def test_draining_rejects_new_queries(tgi, tmax):
    svc = BackgroundService(fresh_session(tgi), window_ms=5.0).start()
    try:
        client = ServiceClient(port=svc.port)
        client.query({"kind": "snapshot", "time": tmax // 2})
        svc.service.begin_drain()
        assert client.healthz() == {"status": "draining"}
        with pytest.raises(Draining) as info:
            client.query({"kind": "snapshot", "time": tmax // 2})
        assert info.value.http_status == 503
        assert info.value.retryable
    finally:
        svc.stop()


def test_drain_completes_admitted_requests(tgi, tmax):
    # a request sitting in an open 100ms window when drain begins must
    # still complete successfully
    svc = BackgroundService(
        fresh_session(tgi), window_ms=100.0, max_batch=64
    ).start()
    outcome = {}

    def issue():
        client = ServiceClient(port=svc.port)
        try:
            outcome["payload"] = client.query(
                {"kind": "snapshot", "time": tmax // 2}
            )
        except Exception as exc:  # pragma: no cover - failure detail
            outcome["error"] = exc

    thread = threading.Thread(target=issue)
    thread.start()
    time.sleep(0.03)  # let the request land in the window
    svc.stop()  # begins drain and joins the serving thread
    thread.join(timeout=10.0)
    assert "error" not in outcome, f"drained request failed: {outcome}"
    assert outcome["payload"]["snapshot"]["nodes"] > 0


def test_access_log_lines(tgi, tmax, tmp_path):
    log_path = tmp_path / "access.jsonl"
    logger = AccessLogger(str(log_path))
    try:
        with BackgroundService(
            fresh_session(tgi), window_ms=5.0, access_log=logger
        ) as svc:
            client = ServiceClient(port=svc.port, caller="auditor")
            client.query(
                {"kind": "khop", "node": 3, "time": tmax, "k": 2},
                request_id="audit-1",
            )
            with pytest.raises(NotFound):
                client.query(
                    {"kind": "khop", "node": 999_999, "time": tmax, "k": 1}
                )
    finally:
        logger.close()
    lines = [
        json.loads(line)
        for line in log_path.read_text().splitlines()
        if line
    ]
    ok = next(line for line in lines if line["status"] == 200)
    assert ok["caller"] == "auditor"
    assert ok["request_id"] == "audit-1"
    assert ok["kind"] == "khop"
    assert ok["batch_id"] >= 1 and ok["batch_size"] >= 1
    assert ok["wall_ms"] >= 0 and ok["sim_time_ms"] > 0
    assert "predicted_ms" in ok and "algorithm" in ok
    failed = next(line for line in lines if line["status"] == 404)
    assert failed["error_code"] == "not_found"


def test_client_errors_are_typed(client):
    try:
        client.query({"kind": "teleport"})
    except ServiceError as exc:
        assert exc.code == "bad_request"
        assert exc.http_status == 400
        assert exc.retryable is False
    else:  # pragma: no cover
        pytest.fail("expected a ServiceError")


def raw_exchange(port, data):
    """Send ``data`` on a fresh connection and read until the server
    hangs up; return the one response it sent as ``(status line,
    header lines, decoded JSON body)``, asserting nothing follows it."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(data)
        reply = b""
        while chunk := sock.recv(65536):  # until the server hangs up
            reply += chunk
    head, _sep, rest = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    length = next(
        int(line.partition(":")[2]) for line in lines
        if line.lower().startswith("content-length:")
    )
    assert len(rest) == length, "bytes after the one response"
    return lines[0], lines[1:], json.loads(rest)


def assert_refused_then_served(client, send, status, code):
    """``send()`` gets exactly one ``status`` answer with ``code`` and
    ``Connection: close``, then EOF; the refusal is counted and the
    next connection is served."""
    rejected = client.metrics()["requests"]["rejected"].get(code, 0)
    first, headers, body = send()
    assert first.startswith(f"HTTP/1.1 {status} ")
    assert "Connection: close" in headers
    assert body["error"]["code"] == code
    assert client.healthz() == {"status": "ok"}
    assert client.metrics()["requests"]["rejected"][code] == rejected + 1


@pytest.mark.parametrize("length, status, code", [
    ("abc", 400, "bad_request"),
    ("-5", 400, "bad_request"),
    (str(4 * 1024 * 1024 + 1), 413, "payload_too_large"),
])
def test_unreadable_content_length_is_answered_then_closed(
    service, client, caplog, length, status, code
):
    assert_refused_then_served(client, lambda: raw_exchange(
        service.port,
        f"POST /query HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Length: {length}\r\n\r\n".encode("latin-1"),
    ), status, code)
    assert not [r for r in caplog.records if r.name == "asyncio"]


@pytest.mark.parametrize("lines", [101, 150])
def test_too_many_header_lines_are_answered_then_closed(
    service, client, caplog, lines
):
    # the header after the limit must not be read as a request line
    pad = "".join(f"X-Pad-{i}: GET /healthz\r\n" for i in range(lines))
    assert_refused_then_served(client, lambda: raw_exchange(
        service.port,
        f"GET /healthz HTTP/1.1\r\n{pad}\r\n".encode("latin-1"),
    ), 431, "headers_too_large")
    assert not [r for r in caplog.records if r.name == "asyncio"]


def test_a_hundred_header_lines_are_read(service, client):
    pad = "".join(f"X-Pad-{i}: 1\r\n" for i in range(99))
    first, _headers, body = raw_exchange(
        service.port,
        f"GET /healthz HTTP/1.1\r\n{pad}Connection: close\r\n\r\n"
        .encode("latin-1"),
    )
    assert first.startswith("HTTP/1.1 200 ") and body == {"status": "ok"}


@pytest.mark.parametrize("line", [b"GARBAGE", b"", b"/healthz"])
def test_a_short_request_line_is_answered_then_closed(
    service, client, caplog, line
):
    assert_refused_then_served(client, lambda: raw_exchange(
        service.port, line + b"\r\nHost: localhost\r\n\r\n"
    ), 400, "bad_request")
    assert not [r for r in caplog.records if r.name == "asyncio"]


# -- dispatch on a free worker, batch from backpressure ----------------------

class GatedSession:
    """``execute_batch`` records its requests, then parks until the test
    releases the gate once for it — so every test below decides, without
    a sleep, what arrives while a batch runs.  Answers through ``inner``
    (a real session) when given one, else with empty results."""

    def __init__(self, inner=None):
        self.inner = inner
        self.batches = []
        self.gate = threading.Semaphore(0)
        self.fail = None

    def release(self, n=1):
        for _ in range(n):
            self.gate.release()

    def execute_batch(self, requests, **kwargs):
        self.batches.append(list(requests))
        assert self.gate.acquire(timeout=10.0), "gate never released"
        if self.fail is not None:
            raise self.fail
        if self.inner is not None:
            return self.inner.execute_batch(requests, **kwargs)
        return [QueryResult(r, None, QueryStats()) for r in requests]


def wait_until(condition, timeout=10.0):
    """Block until ``condition()`` holds: waits *for* an event, never
    *an amount of time*."""
    give_up = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < give_up, "condition never held"
        time.sleep(0.001)


async def until(condition, timeout=10.0):
    give_up = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < give_up, "condition never held"
        await asyncio.sleep(0.001)


async def submit_all(collector, requests):
    """Start one ``submit`` per request and run each up to its await."""
    tasks = [asyncio.ensure_future(collector.submit(r)) for r in requests]
    await asyncio.sleep(0)
    return tasks


def snapshot_requests(n):
    return [QueryRequest(kind="snapshot", t=t) for t in range(1, n + 1)]


def pool_queue(collector):
    return collector._pool._work_queue.qsize()


def test_lone_request_on_idle_collector_runs_at_once():
    session = GatedSession()
    collector = MicroBatchCollector(session)

    async def run():
        (task,) = await submit_all(collector, snapshot_requests(1))
        # handed to the worker inside submit(): nothing pending, no timer
        assert collector._timer is None
        assert not collector._pending and len(collector._inflight) == 1
        session.release()
        out = await task
        await collector.drain()
        return out

    out = asyncio.run(run())
    assert out.batch_size == 1 and out.trigger == "idle"
    assert collector.window_s == 0.0


def test_arrivals_behind_a_running_batch_form_one_batch():
    session = GatedSession()
    collector = MicroBatchCollector(session)
    a, b, c, d = snapshot_requests(4)

    async def run():
        first = await submit_all(collector, [a])
        await until(lambda: len(session.batches) == 1)
        rest = await submit_all(collector, [b, c, d])
        assert len(collector._pending) == 3 and collector._timer is None
        assert len(collector._inflight) == 1 and pool_queue(collector) == 0
        session.release(2)
        outs = await asyncio.gather(*first, *rest)
        await collector.drain()
        return outs

    outs = asyncio.run(run())
    assert session.batches == [[a], [b, c, d]]
    assert [o.batch_size for o in outs] == [1, 3, 3, 3]
    assert len({o.batch_id for o in outs[1:]}) == 1
    assert [o.trigger for o in outs] == ["idle"] + ["backpressure"] * 3
    assert [o.result.request for o in outs] == [a, b, c, d]


def test_backlog_leaves_in_max_batch_slices_oldest_first():
    session = GatedSession()
    collector = MicroBatchCollector(session, max_batch=2)
    requests = snapshot_requests(6)

    async def run():
        tasks = await submit_all(collector, requests[:1])
        await until(lambda: len(session.batches) == 1)
        tasks += await submit_all(collector, requests[1:])
        for running in (1, 2, 3, 4):
            await until(lambda: len(session.batches) == running)
            # one worker: one batch in flight, none parked in the pool
            assert len(collector._inflight) == 1
            assert pool_queue(collector) == 0
            session.release()
        outs = await asyncio.gather(*tasks)
        await collector.drain()
        return outs

    outs = asyncio.run(run())
    assert session.batches == [
        requests[:1], requests[1:3], requests[3:5], requests[5:]
    ]
    assert [o.batch_size for o in outs] == [1, 2, 2, 2, 2, 1]


def test_two_workers_run_two_batches_and_the_third_waits():
    session = GatedSession()
    collector = MicroBatchCollector(session, workers=2)
    a, b, c = snapshot_requests(3)

    async def run():
        tasks = await submit_all(collector, [a, b, c])
        await until(lambda: len(session.batches) == 2)
        assert len(collector._inflight) == 2
        assert [p.request for p in collector._pending] == [c]
        assert pool_queue(collector) == 0
        session.release()
        await until(lambda: len(session.batches) == 3)
        assert len(collector._inflight) == 2 and not collector._pending
        session.release(2)
        outs = await asyncio.gather(*tasks)
        await collector.drain()
        return outs

    outs = asyncio.run(run())
    assert session.batches == [[a], [b], [c]]
    assert [o.trigger for o in outs] == ["idle", "idle", "backpressure"]


def test_linger_expiring_behind_a_busy_worker_waits_for_it():
    session = GatedSession()
    collector = MicroBatchCollector(session, window_ms=1.0)
    a, b = snapshot_requests(2)

    async def run():
        first = await submit_all(collector, [a])
        # a free worker holds the first request for the linger
        assert collector._timer is not None and not collector._inflight
        await until(lambda: len(session.batches) == 1)
        second = await submit_all(collector, [b])
        assert collector._timer is not None
        await until(lambda: collector._timer is None)
        # expired, but the worker is busy: nothing moves, nothing queues
        assert [p.request for p in collector._pending] == [b]
        assert len(collector._inflight) == 1 and pool_queue(collector) == 0
        session.release(2)
        outs = await asyncio.gather(*first, *second)
        await collector.drain()
        return outs

    outs = asyncio.run(run())
    assert session.batches == [[a], [b]]
    assert [o.trigger for o in outs] == ["linger", "backpressure"]


def test_failed_batch_fails_only_its_members():
    session = GatedSession()
    collector = MicroBatchCollector(session)
    a, b, c = snapshot_requests(3)

    async def run():
        first = await submit_all(collector, [a])
        await until(lambda: len(session.batches) == 1)
        rest = await submit_all(collector, [b, c])
        session.fail = RuntimeError("boom")
        session.release()
        with pytest.raises(RuntimeError, match="boom"):
            await first[0]
        # the next window was dispatched by the failing batch's completion
        await until(lambda: len(session.batches) == 2)
        session.fail = None
        session.release()
        outs = await asyncio.gather(*rest)
        await collector.drain()
        return outs

    outs = asyncio.run(run())
    assert session.batches == [[a], [b, c]]
    assert all(o.result.ok and o.batch_size == 2 for o in outs)


def test_drain_runs_the_whole_backlog():
    session = GatedSession()
    collector = MicroBatchCollector(
        session, window_ms=10_000.0, max_batch=2
    )
    requests = snapshot_requests(5)

    async def run():
        # two fill the first batch; three wait behind it, more than the
        # one batch a single completion can take
        tasks = await submit_all(collector, requests)
        await until(lambda: len(session.batches) == 1)
        assert len(collector._pending) == 3 and collector._timer is not None
        session.release(3)
        await collector.drain()
        assert all(task.done() for task in tasks)
        assert collector._timer is None and not collector._inflight
        return [task.result() for task in tasks]

    outs = asyncio.run(run())
    assert session.batches == [requests[:2], requests[2:4], requests[4:]]
    assert [o.trigger for o in outs] == ["full"] * 4 + ["backpressure"]


def test_drain_cuts_a_linger_short():
    session = GatedSession()
    collector = MicroBatchCollector(session, window_ms=10_000.0)

    async def run():
        (task,) = await submit_all(collector, snapshot_requests(1))
        assert collector._timer is not None and not collector._inflight
        session.release()
        await collector.drain()
        assert task.done() and collector._timer is None
        return task.result()

    assert asyncio.run(run()).trigger == "drain"


def test_dispatch_triggers_reach_metrics():
    session = GatedSession()
    metrics = ServiceMetrics()
    collector = MicroBatchCollector(session, metrics=metrics)

    async def run():
        tasks = await submit_all(collector, snapshot_requests(1))
        await until(lambda: len(session.batches) == 1)
        tasks += await submit_all(collector, snapshot_requests(2))
        session.release(2)
        await asyncio.gather(*tasks)
        await collector.drain()

    asyncio.run(run())
    batches = metrics.snapshot()["batches"]
    assert batches["count"] == 2 and batches["requests"] == 3
    assert batches["by_trigger"] == {"backpressure": 1, "idle": 1}
    text = metrics.render_prometheus()
    assert 'hgs_exec_dispatch_total{trigger="backpressure"} 1' in text
    assert 'hgs_exec_dispatch_total{trigger="idle"} 1' in text


def test_deadline_expired_behind_a_running_batch_http_504(tgi, tmax):
    # no window at all: the budget is spent waiting for the one worker
    session = GatedSession(fresh_session(tgi))
    outcome = {}

    def issue(name, spec):
        with ServiceClient(port=svc.port) as client:
            try:
                outcome[name] = client.query(spec)
            except ServiceError as exc:
                outcome[name] = exc

    with BackgroundService(session) as svc:
        collector = svc.service.collector
        slow = threading.Thread(
            target=issue, args=("slow", {"kind": "snapshot", "time": tmax}))
        slow.start()
        wait_until(lambda: len(session.batches) == 1)
        late = threading.Thread(target=issue, args=("late", {
            "kind": "snapshot", "time": tmax // 2, "deadline_ms": 1,
        }))
        late.start()
        wait_until(lambda: len(collector._pending) == 1)
        deadline_at = collector._pending[0].deadline_at
        wait_until(lambda: time.monotonic() > deadline_at)
        session.release(2)
        slow.join(timeout=10.0)
        late.join(timeout=10.0)
        assert not slow.is_alive() and not late.is_alive()
    assert outcome["slow"]["snapshot"]["nodes"] > 0
    assert isinstance(outcome["late"], DeadlineExceeded)
    assert outcome["late"].http_status == 504


def test_access_log_names_the_trigger(tgi, tmax, tmp_path):
    log_path = tmp_path / "access.jsonl"
    logger = AccessLogger(str(log_path))
    try:
        with BackgroundService(fresh_session(tgi), access_log=logger) as svc:
            with ServiceClient(port=svc.port) as client:
                client.query({"kind": "snapshot", "time": tmax // 2})
    finally:
        logger.close()
    (line,) = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert line["trigger"] == "idle" and line["batch_size"] == 1


# -- the client keeps its connection -----------------------------------------

def test_client_reuses_one_connection(tgi):
    with BackgroundService(fresh_session(tgi)) as svc:
        with ServiceClient(port=svc.port) as client:
            client.healthz()
            sock = client._connection().sock
            client.healthz()
            assert client._connection().sock is sock
            assert len(svc.service._conn_tasks) == 1
        assert client._connection().sock is None
        wait_until(lambda: not svc.service._conn_tasks)


def test_client_survives_a_server_restart(tgi):
    session = fresh_session(tgi)
    with BackgroundService(session) as first:
        client = ServiceClient(port=first.port)
        assert client.healthz() == {"status": "ok"}
    # the drain hung up the client's idle connection
    with client:
        with pytest.raises(OSError):
            client.healthz()  # reconnects once: nobody is listening
        with BackgroundService(session, port=first.port):
            assert client.healthz() == {"status": "ok"}


def test_client_threads_get_a_connection_each(tgi):
    with BackgroundService(fresh_session(tgi)) as svc:
        with ServiceClient(port=svc.port) as client:
            client.healthz()
            other = {}
            done = threading.Event()

            def call():
                other["health"] = client.healthz()
                other["sock"] = client._connection().sock
                done.wait(timeout=10.0)  # keep the thread's socket open

            thread = threading.Thread(target=call)
            thread.start()
            wait_until(lambda: "sock" in other)
            try:
                assert other["health"] == {"status": "ok"}
                assert other["sock"] is not client._connection().sock
                assert len(svc.service._conn_tasks) == 2
            finally:
                done.set()
                thread.join(timeout=10.0)
            assert not thread.is_alive()


class ScriptedServer:
    """A one-connection-at-a-time TCP peer answering each request it
    reads with the next scripted action: an HTTP status, ``"hangup"``
    (close without a byte) or ``"stall"`` (never answer).  Its thread
    ends with the script."""

    def __init__(self, script):
        self.script = list(script)
        self.accepted = 0
        self.unstall = threading.Event()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        with self.listener:
            while self.script:
                conn, _addr = self.listener.accept()
                self.accepted += 1
                with conn:
                    while self.script and conn.recv(65536):
                        action = self.script.pop(0)
                        if action == "stall":
                            self.unstall.wait(timeout=10.0)
                        if not isinstance(action, int):
                            break
                        conn.sendall(
                            b"HTTP/1.1 %d Scripted\r\n"
                            b"Content-Length: 2\r\n\r\n{}" % action
                        )

    def close(self):
        self.unstall.set()
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive(), "script not played out"


@pytest.mark.parametrize("script, calls, raises, connections", [
    # a kept connection found dropped is reopened once ...
    ([200, "hangup", 200], 2, None, 2),
    # ... and only once
    ([200, "hangup", "hangup"], 2, http.client.RemoteDisconnected, 2),
    # a fresh connection's failure is the caller's to see
    (["hangup"], 1, http.client.RemoteDisconnected, 1),
    # an error response or a timeout is not a dropped connection
    ([200, 500], 2, ServiceError, 1),
    ([200, "stall"], 2, TimeoutError, 1),
])
def test_client_reconnects_once_and_only_when_dropped(
    script, calls, raises, connections
):
    server = ScriptedServer(script)
    try:
        with ServiceClient(port=server.port, timeout=0.2) as client:
            for _ in range(calls - 1):
                assert client.healthz() == {}
            if raises is None:
                assert client.healthz() == {}
            else:
                with pytest.raises(raises):
                    client.healthz()
        assert server.accepted == connections
    finally:
        server.close()
