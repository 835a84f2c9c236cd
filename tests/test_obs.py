"""Tests for the observability layer: span-tree tracing over the
pipelined query path, contextvar propagation across worker threads,
off-mode bit-identity, sampling policies, trace export (structured JSON
and Chrome trace-event), the slow-query log, and Prometheus exposition.
"""

import json
import re

import pytest

from repro import GraphSession, TGI, TGIConfig, save_index
from repro.api import QueryRequest
from repro.cli import main
from repro.faults import CrashWindow, FaultSchedule, inject_faults
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.resilience import ResiliencePolicy
from repro.obs import (
    DEFAULT_LATENCY_BOUNDS_MS,
    MetricsRegistry,
    SamplingPolicy,
    SlowQueryLog,
    Tracer,
    chrome_trace,
    current_span,
    trace_to_json,
    use_span,
)
from repro.service import ServiceMetrics
from repro.workloads.citation import CitationConfig, generate_citation_events


@pytest.fixture(scope="module")
def events():
    return generate_citation_events(
        CitationConfig(num_nodes=300, citations_per_node=4, seed=42)
    )


def build_tgi(events, m=4, replication=1, checkpoints=0):
    tgi = TGI(TGIConfig(
        events_per_timespan=1200,
        eventlist_size=150,
        micro_partition_size=32,
        checkpoint_entries=checkpoints,
        cluster=ClusterConfig(num_machines=m, replication=replication),
    ))
    tgi.build(events)
    return tgi


@pytest.fixture(scope="module")
def tgi(events):
    return build_tgi(events)


@pytest.fixture()
def session(tgi):
    return GraphSession.from_index(tgi)


def traced(session):
    session.tracer = Tracer(SamplingPolicy.all())
    return session.tracer


@pytest.fixture(scope="module")
def tmax(events):
    return events[-1].time


# -- span-tree shape ---------------------------------------------------------

def test_snapshot_trace_shape(session, tmax):
    tracer = traced(session)
    result = session.execute(QueryRequest(kind="snapshot", t=tmax))
    root = tracer.last()
    assert root is not None and root.name == "query"
    assert root.attrs["kind"] == "snapshot"
    # the root's sim window reconciles exactly with the terminal stats
    assert root.sim_ms == pytest.approx(result.stats.sim_time_ms)
    # the executor's windows underneath, each naming the stages it ran
    # and carrying requests/bytes accounting
    windows = root.find("coalesce.window")
    assert windows
    assert all(w.attrs["stages"] for w in windows)
    assert sum(w.attrs.get("requests", 0) for w in windows) == (
        result.stats.requests
    )
    assert sum(w.attrs.get("bytes", 0) for w in windows) == (
        result.stats.bytes_read
    )
    # no delta cache configured: no cache outcomes to report
    assert not any("cache_hits" in w.attrs for w in windows)
    # store rounds carry sim windows and per-machine occupancy
    rounds = root.find("round")
    assert rounds
    for r in rounds:
        assert r.sim_end_ms >= r.sim_start_ms >= 0.0
        assert r.attrs["requests"] > 0
    # every child's parent_id links into the tree
    ids = {s.span_id for s in root.walk()}
    for span in root.walk():
        if span.parent_id is not None:
            assert span.parent_id in ids


def test_window_spans_carry_cache_outcomes(events, tmax):
    tgi = TGI(TGIConfig(
        events_per_timespan=1200, eventlist_size=150,
        micro_partition_size=32, delta_cache_entries=4096,
        cluster=ClusterConfig(num_machines=4),
    ))
    tgi.build(events)
    session = GraphSession.from_index(tgi)
    tracer = traced(session)
    cold = session.execute(QueryRequest(kind="snapshot", t=tmax))
    cold_windows = tracer.last().find("coalesce.window")
    warm = session.execute(QueryRequest(kind="snapshot", t=tmax))
    warm_windows = tracer.last().find("coalesce.window")
    assert sum(w.attrs["cache_misses"] for w in cold_windows) == (
        cold.stats.cache_misses
    ) > 0
    # a window the cache answered whole still shows up, with its hits
    assert warm.stats.requests == 0
    assert sum(w.attrs["cache_hits"] for w in warm_windows) == (
        warm.stats.cache_hits
    ) > 0
    assert not any("requests" in w.attrs for w in warm_windows)


def test_khop_trace_has_pricing(session, tmax, events):
    tracer = traced(session)
    center = next(ev.node for ev in events if ev.node is not None)
    result = session.execute(QueryRequest(
        kind="khop", t=tmax, nodes=(center,), k=2, single=True,
    ))
    root = tracer.last()
    pricing = root.find("pricing")
    assert len(pricing) == 1
    attrs = pricing[0].attrs
    assert attrs["chosen"] == result.stats.algorithm
    assert set(attrs["candidates"]) >= {attrs["chosen"]}
    assert root.attrs["algorithm"] == result.stats.algorithm
    assert root.attrs["predicted_ms"] == result.stats.predicted_ms


def test_batched_trace_shape(session, tmax, events):
    tracer = traced(session)
    centers = [ev.node for ev in events[:40]
               if ev.kind.name == "NODE_ADD"][:3]
    requests = [
        QueryRequest(kind="khop", t=tmax, nodes=(c,), k=2, single=True)
        for c in centers
    ]
    results = session.execute_batch(requests)
    root = tracer.last()
    assert root.name == "batch"
    assert root.attrs["size"] == len(requests)
    queries = [s for s in root.children if s.name == "query"]
    assert len(queries) == len(requests)
    for i, (q, result) in enumerate(zip(queries, results)):
        assert q.attrs["lane"] == f"query-{i}"
        assert q.attrs["sim_time_ms"] == result.stats.sim_time_ms
    # coalesced execution shows up as shared windows
    assert root.find("coalesce.window")
    # timeline-scheduled rounds record per-machine occupancy windows
    assert any(
        r.attrs.get("server_windows") for r in root.find("round")
    )
    # batch root reconciles with the shared timeline's end
    sim_end = max(r.stats.sim_time_ms for r in results)
    assert root.sim_ms == pytest.approx(sim_end, rel=0.01)


def test_degraded_trace_events(events, tmax):
    tgi = build_tgi(events)
    session = GraphSession.from_index(tgi)
    tracer = traced(session)
    inject_faults(tgi.cluster, FaultSchedule(
        crashes=(CrashWindow(1, 0.0),),
    ))
    tgi.cluster.enable_resilience(
        ResiliencePolicy(max_attempts=2, hedge=False)
    )
    result = session.execute(QueryRequest(
        kind="snapshot", t=tmax, allow_partial=True,
    ))
    assert result.stats.degraded_keys > 0
    root = tracer.last()
    assert root.attrs["degraded_keys"] == result.stats.degraded_keys
    event_names = [e["name"] for s in root.walk() for e in s.events]
    assert "retry" in event_names
    assert "degraded" in event_names
    # resilient rounds record their attempt number (the retry itself
    # plans no records — every replica is down — so only attempt 0
    # produced a round before the degraded return)
    attempts = [r.attrs.get("attempt") for r in root.find("round")]
    assert 0 in attempts


# -- contextvar propagation --------------------------------------------------

def test_apply_lane_spans_cross_threads(events, tmax):
    """Every replayed partition gets its own ``apply.partition`` span,
    current while it replays, so the work done inside lands on it."""
    tgi = build_tgi(events, checkpoints=8)
    session = GraphSession.from_index(tgi)
    tracer = traced(session)
    centers = [ev.node for ev in events[:40]
               if ev.kind.name == "NODE_ADD"][:3]
    session.execute_batch([
        QueryRequest(kind="khop", t=tmax, nodes=(c,), k=2, single=True)
        for c in centers
    ])
    root = tracer.last()
    parts = root.find("apply.partition")
    assert parts
    # the replay did real work inside those spans: checkpoint deltas
    # loaded, plus any gap eventlists applied (this dataset's spans are
    # covered by deltas alone, so the eventlist count may be zero)
    applied = sum(
        s.attrs.get("deltas_loaded", 0) + s.attrs.get("events_applied", 0)
        for s in parts
    )
    assert applied > 0


def test_use_span_restores_context():
    tracer = Tracer(SamplingPolicy.all())
    assert current_span() is None
    with tracer.trace("query") as root:
        assert current_span() is root
        sub = root.child("stage")
        with use_span(sub):
            assert current_span() is sub
        assert current_span() is root
        with use_span(None):
            assert current_span() is None
    assert current_span() is None


# -- off-mode bit-identity ---------------------------------------------------

def test_tracing_off_stats_bit_identical(events, tmax):
    def run(tracer):
        tgi = build_tgi(events)
        session = GraphSession.from_index(tgi)
        session.tracer = tracer
        centers = [ev.node for ev in events[:40]
                   if ev.kind.name == "NODE_ADD"][:3]
        out = []
        out.append(session.execute(
            QueryRequest(kind="snapshot", t=tmax)).stats.as_dict())
        for r in session.execute_batch([
            QueryRequest(kind="khop", t=tmax, nodes=(c,), k=2, single=True)
            for c in centers
        ]):
            out.append(r.stats.as_dict())
        return out

    baseline = run(None)
    off = run(Tracer(SamplingPolicy.off()))
    fully_traced = run(Tracer(SamplingPolicy.all()))
    # off-mode: the tracer object being attached changes nothing
    assert off == baseline
    # stronger: tracing is passive — sampled-in queries produce the
    # same stats too (no RNG consumed, no timeline perturbation)
    assert fully_traced == baseline


def test_off_tracer_retains_nothing(session, tmax):
    session.tracer = Tracer(SamplingPolicy.off())
    session.execute(QueryRequest(kind="snapshot", t=tmax))
    assert session.tracer.last() is None
    assert not session.tracer.finished


# -- sampling ----------------------------------------------------------------

def test_ratio_sampling_deterministic_stride():
    tracer = Tracer(SamplingPolicy.ratio_of(0.25))
    decisions = [tracer.should_sample() for _ in range(8)]
    assert decisions == [False, False, False, True,
                         False, False, False, True]
    # the stride consumes no RNG and two tracers agree exactly
    other = Tracer(SamplingPolicy.ratio_of(0.25))
    assert [other.should_sample() for _ in range(8)] == decisions


def test_slow_only_sampling_with_injected_clock():
    now = [0.0]
    log = SlowQueryLog(threshold_ms=100.0)
    tracer = Tracer(
        SamplingPolicy.slow_only(100.0),
        clock=lambda: now[0], slow_log=log,
    )
    assert tracer.should_sample()  # slow mode traces everything...
    with tracer.trace("query") as root:
        root.set(kind="khop")
        now[0] += 0.050  # 50 ms: under threshold
    assert tracer.last() is None  # ...but retains only slow ones
    assert log.entries() == []
    with tracer.trace("query") as root:
        root.set(kind="khop", algorithm="khop", predicted_ms=10.0,
                 sim_time_ms=12.0,
                 candidates={"khop": 10.0, "snapshot_first": 40.0})
        now[0] += 0.200  # 200 ms: retained and logged
    root = tracer.last()
    assert root is not None
    assert root.wall_ms == pytest.approx(200.0)
    entries = log.entries()
    assert len(entries) == 1
    (query,) = entries[0]["queries"]
    assert query["algorithm"] == "khop"
    # margin per candidate: predicted minus actual
    assert query["margins_ms"] == {
        "khop": pytest.approx(-2.0),
        "snapshot_first": pytest.approx(28.0),
    }


# -- export ------------------------------------------------------------------

@pytest.fixture()
def traced_batch(session, tmax, events):
    tracer = traced(session)
    centers = [ev.node for ev in events[:40]
               if ev.kind.name == "NODE_ADD"][:3]
    results = session.execute_batch([
        QueryRequest(kind="khop", t=tmax, nodes=(c,), k=2, single=True)
        for c in centers
    ])
    return tracer.last(), results


def test_chrome_trace_event_validity(traced_batch):
    root, _results = traced_batch
    doc = chrome_trace(root)
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert events
    json.dumps(doc)  # fully serializable
    for ev in events:
        assert ev["ph"] in ("X", "M", "i")
        assert isinstance(ev["pid"], int)
        if ev["ph"] == "X":
            assert ev["ts"] >= 0
            assert ev["dur"] >= 0
    lanes = {
        ev["args"]["name"]
        for ev in events
        if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    # simulated-timeline lanes: one per store machine plus query lanes
    assert any(lane.startswith("machine ") for lane in lanes)
    assert any(lane.startswith("query-") for lane in lanes)
    # round events land on machine lanes with their sim occupancy
    assert any(ev["ph"] == "X" and ev["name"] == "round" for ev in events)


def test_chrome_trace_reconciles_with_stats(traced_batch):
    root, results = traced_batch
    doc = chrome_trace(root)
    sim_end = max(r.stats.sim_time_ms for r in results)
    sim_pid_events = [
        ev for ev in doc["traceEvents"]
        if ev["ph"] == "X" and ev["pid"] == 1
    ]
    # trace-event ts/dur are integer microseconds of simulated time;
    # the batch envelope must cover every event and match the stats
    top = max(ev["ts"] + ev["dur"] for ev in sim_pid_events)
    assert top == pytest.approx(sim_end * 1000.0, rel=0.01)


def test_structured_json_export(traced_batch):
    root, _results = traced_batch
    doc = trace_to_json(root)
    assert doc["format"] == "hgs-trace-v1"
    tree = doc["root"]
    assert tree["name"] == "batch"
    json.dumps(doc)
    names = set()

    def visit(node):
        names.add(node["name"])
        for sub in node.get("children", ()):
            visit(sub)

    visit(tree)
    assert {"batch", "query", "pricing", "round"} <= names


def test_cli_trace_roundtrip(tgi, tmax, events, tmp_path, capsys):
    idx = tmp_path / "idx.bin"
    save_index(tgi, str(idx))
    out = tmp_path / "trace.json"
    center = next(ev.node for ev in events if ev.node is not None)
    rc = main(["trace", str(idx), "--out", str(out),
               "khop", str(center), str(tmax), "-k", "2"])
    assert rc == 0
    assert "0.000% drift" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    rc = main(["trace", str(idx), "--out", str(out), "--format", "json",
               "snapshot", str(tmax)])
    assert rc == 0
    assert json.loads(out.read_text())["format"] == "hgs-trace-v1"


def test_cli_trace_json_is_the_exported_span_tree(
    tgi, tmax, tmp_path, monkeypatch
):
    # hgs trace writes through obs.write_trace: the file is exactly
    # trace_to_json of the root span the tracer retained
    idx = tmp_path / "idx.bin"
    save_index(tgi, str(idx))
    out = tmp_path / "trace.json"
    roots = []
    last = Tracer.last
    monkeypatch.setattr(
        Tracer, "last", lambda self: roots.append(last(self)) or roots[-1]
    )
    rc = main(["trace", str(idx), "--out", str(out), "--format", "json",
               "snapshot", str(tmax)])
    assert rc == 0 and len(roots) == 1
    expected = json.dumps(trace_to_json(roots[0]), indent=2) + "\n"
    assert out.read_text() == expected


# -- metrics registry and Prometheus exposition ------------------------------

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+(\.[0-9]+)?$"
)


def assert_prometheus_grammar(text):
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*", line)
        else:
            assert _SAMPLE_RE.match(line) or "+Inf" in line, line


def test_registry_render_grammar_and_histogram_invariants():
    reg = MetricsRegistry()
    reg.counter("demo_total", "a counter", labels={"kind": "x"}).inc(3)
    reg.gauge("demo_gauge", "a gauge").set(1.5)
    hist = reg.histogram("demo_ms", "a histogram")
    for v in (0.5, 3.0, 40.0, 9000.0):
        hist.observe(v)
    text = reg.render()
    assert_prometheus_grammar(text)
    assert 'demo_total{kind="x"} 3' in text
    assert "# TYPE demo_ms histogram" in text
    # cumulative buckets are monotone and +Inf equals _count
    buckets = [
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("demo_ms_bucket")
    ]
    assert buckets == sorted(buckets)
    assert 'demo_ms_bucket{le="+Inf"} 4' in text
    assert "demo_ms_count 4" in text


def test_service_metrics_share_registry_bounds():
    # the service histograms read the shared boundaries — no
    # hardcoded copy in service/metrics.py
    metrics = ServiceMetrics()
    assert metrics.service_latency.bounds == DEFAULT_LATENCY_BOUNDS_MS
    metrics.record_response("alice", 200, 12.0)
    text = metrics.render_prometheus()
    assert_prometheus_grammar(text)
    # the Prometheus le labels come from the same tuple
    for bound in DEFAULT_LATENCY_BOUNDS_MS:
        assert f'le="{bound:g}"' in text
    # and the JSON snapshot shape is unchanged
    snap = metrics.snapshot()
    assert snap["requests"]["total"] == 1
    assert snap["latency"]["service_ms"]["count"] == 1
    assert "le_2.5" in snap["latency"]["service_ms"]["buckets"]


def test_separate_service_metrics_do_not_share_state():
    a, b = ServiceMetrics(), ServiceMetrics()
    a.record_rejection("rate_limited")
    assert b.snapshot()["requests"]["rejected"] == {}
    assert a.snapshot()["requests"]["rejected"] == {"rate_limited": 1}


def test_session_metrics_registry(session, tmax, events):
    center = next(ev.node for ev in events if ev.node is not None)
    session.execute(QueryRequest(
        kind="khop", t=tmax, nodes=(center,), k=2, single=True,
    ))
    assert "khop" in session.metrics.corrections()
    assert session.metrics.totals()["khop"]["queries"] == 1
    text = session.metrics.render()
    assert_prometheus_grammar(text)
    assert 'hgs_planner_correction{algorithm="khop"}' in text
    assert 'hgs_session_queries_total{kind="khop"} 1' in text
