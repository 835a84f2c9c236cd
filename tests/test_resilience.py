"""Chaos tests for the resilient fetch path: checksummed codec, fault
injection, retry/backoff, hedged reads, circuit breakers, and degraded
(allow_partial) queries — at the cluster, session, and service layers.

Every schedule is seeded, so each test replays identically; the
member-identity assertions compare faulted runs against fault-free
ground truth."""

import asyncio

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import GraphSession, TGI, TGIConfig
from repro.api import (
    DeadlineExceeded,
    QueryRequest,
    QueryStats,
    Unavailable,
    error_payload,
    request_from_spec,
    spec_from_request,
)
from repro.cancellation import cancel_scope
from repro.errors import (
    CorruptPayload,
    KeyNotFound,
    PartitionUnavailable,
    StorageError,
)
from repro.faults import (
    CorruptionFaults,
    CrashWindow,
    FaultSchedule,
    LatencySpike,
    TransientFaults,
    clear_faults,
    flapping_crashes,
    inject_faults,
)
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.codec import decode, encode
from repro.kvstore.degrade import (
    PartialCollector,
    partial_scope,
    partition_label,
)
from repro.kvstore.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ResiliencePolicy,
)
from repro.exec import PlanExecutor
from repro.service import QueryService, ServiceMetrics
from repro.workloads.citation import CitationConfig, generate_citation_events


# -- codec checksum envelope -------------------------------------------------

def test_checksum_roundtrip():
    value = {"rows": list(range(64))}
    enc = encode(value, checksum=True)
    assert enc.payload[:1] == b"K"
    assert decode(enc.payload) == value
    # checksums compose with compression
    enc2 = encode(list(range(2000)), compress=True, checksum=True)
    assert decode(enc2.payload) == list(range(2000))


def test_checksum_detects_corruption():
    enc = encode({"a": 1}, checksum=True)
    flipped = enc.payload[:-1] + bytes([enc.payload[-1] ^ 0xFF])
    with pytest.raises(CorruptPayload):
        decode(flipped)
    # a plain payload with the same flip fails as garbage, not silently
    assert decode(enc.payload) == {"a": 1}


# -- partition labels --------------------------------------------------------

def test_partition_labels():
    assert partition_label((3, 0, ("E", 7), 5)) == "ts3:p5"
    assert partition_label((-1, 0, ("V", 42), 0)) == "vc:42"


# -- fixtures: a populated cluster ------------------------------------------

def seeded_cluster(m=4, r=2, checksums=False, n=32):
    """Keys spread over 8 placements / 4 pids so every machine owns
    some rows (m=4, ring placement)."""
    c = Cluster(ClusterConfig(
        num_machines=m, replication=r, checksums=checksums,
    ))
    keys = [(0, i % 8, ("S", i), i % 4) for i in range(n)]
    for key in keys:
        c.put(key, {"row": key[2][1]})
    return c, keys


def owner_of(c, keys):
    """A machine that actually serves some of ``keys``."""
    for record in c.plan_records(keys):
        return record.server
    raise AssertionError("no records planned")


# -- fault injector ----------------------------------------------------------

def test_corruption_faults_require_checksums():
    c, _ = seeded_cluster(checksums=False)
    with pytest.raises(StorageError, match="checksums"):
        inject_faults(c, FaultSchedule(
            corruption=(CorruptionFaults(0, probability=1.0),)
        ))


def test_plain_path_raises_typed_errors():
    c, keys = seeded_cluster()
    victim = owner_of(c, keys)
    served_by_victim = {
        partition_label(rec.key) for rec in c.plan_records(keys)
        if rec.server == victim
    }
    inject_faults(c, FaultSchedule(
        transient=(TransientFaults(victim, probability=1.0),), seed=7,
    ))
    # one attempt: the victim's key group goes unserved and settles as
    # a typed outage naming exactly the partitions it was routed
    with pytest.raises(PartitionUnavailable) as err:
        c.multiget(keys)
    assert set(err.value.partitions) == served_by_victim
    clear_faults(c)
    values, _ = c.multiget(keys)
    assert len(values) == len(keys)


def test_corruption_surfaces_as_corrupt_payload():
    c, keys = seeded_cluster(checksums=True)
    victim = owner_of(c, keys)
    row = next(rec.key for rec in c.plan_records(keys)
               if rec.server == victim)
    inject_faults(c, FaultSchedule(
        corruption=(CorruptionFaults(victim, probability=1.0),), seed=3,
    ))
    # the fetch settles the corrupt rows' keys like any unserved key ...
    with pytest.raises(PartitionUnavailable) as err:
        c.multiget(keys)
    assert partition_label(row) in err.value.partitions
    # ... while the codec's own error stays CorruptPayload
    payload = c.machines[victim].get(row).payload
    with pytest.raises(CorruptPayload):
        decode(payload[:-1] + bytes([payload[-1] ^ 0xFF]))


# -- resilient retry / reroute ----------------------------------------------

def test_retries_recover_member_identical_values():
    c, keys = seeded_cluster()
    expected, _ = c.multiget(keys)
    victim = owner_of(c, keys)
    inject_faults(c, FaultSchedule(
        transient=(TransientFaults(victim, probability=0.6),), seed=11,
    ))
    c.enable_resilience(ResiliencePolicy(seed=11))
    values, stats = c.multiget(keys)
    assert values == expected
    assert stats.retries > 0 or stats.rounds == 1
    assert stats.sim_time_ms > 0


def test_crash_reroutes_to_replica():
    c, keys = seeded_cluster(r=2)
    expected, base = c.multiget(keys)
    victim = owner_of(c, keys)
    # the victim is down for the whole run; r=2 means every placement
    # has a second copy the resilient path can route to
    inject_faults(c, FaultSchedule(crashes=(CrashWindow(victim, 0.0),)))
    c.enable_resilience(ResiliencePolicy(hedge=False))
    values, stats = c.multiget(keys)
    assert values == expected
    # nothing was served by the dead machine
    assert all(r.server != victim for r in stats.requests)


def test_unreplicated_crash_raises_partition_unavailable():
    c, keys = seeded_cluster(r=1)
    victim = owner_of(c, keys)
    inject_faults(c, FaultSchedule(crashes=(CrashWindow(victim, 0.0),)))
    c.enable_resilience(ResiliencePolicy(max_attempts=2, hedge=False))
    with pytest.raises(PartitionUnavailable) as err:
        c.multiget(keys)
    assert err.value.partitions
    assert all(label.startswith("ts0:p") for label in err.value.partitions)


def test_degraded_scope_drops_dead_partitions():
    c, keys = seeded_cluster(r=1)
    expected, _ = c.multiget(keys)
    victim = owner_of(c, keys)
    inject_faults(c, FaultSchedule(crashes=(CrashWindow(victim, 0.0),)))
    c.enable_resilience(ResiliencePolicy(max_attempts=2, hedge=False))
    collector = PartialCollector()
    with partial_scope(collector):
        values, stats = c.multiget(keys)
    assert collector.degraded
    assert 0 < len(values) < len(keys)
    # the surviving subset is member-identical to fault-free ground truth
    assert values == {k: expected[k] for k in values}
    assert stats.degraded_keys == len(keys) - len(values)
    assert sorted(stats.degraded_partitions) == sorted(
        {partition_label(k) for k in collector.keys}
    )


def test_missing_key_still_raises_key_not_found():
    # degradation must not mask a genuinely absent key on live replicas
    c, keys = seeded_cluster()
    c.enable_resilience()
    with pytest.raises(KeyNotFound):
        c.multiget([keys[0], (0, 0, ("S", 999), 0)])


def test_hedged_read_escapes_latency_spike():
    c, keys = seeded_cluster(r=2)
    expected, _ = c.multiget(keys)
    victim = owner_of(c, keys)
    inject_faults(c, FaultSchedule(
        latency=(LatencySpike(victim, extra_ms=50.0),),
    ))
    c.enable_resilience(ResiliencePolicy(hedge=True, hedge_min_ms=1.0))
    values, stats = c.multiget(keys)
    assert values == expected
    assert stats.hedges > 0


# -- no policy is the one-attempt loop --------------------------------------

machines = st.integers(0, 3)
schedules = st.builds(
    FaultSchedule,
    crashes=st.lists(st.builds(
        CrashWindow, machines, st.sampled_from([0.0, 5.0]),
        st.sampled_from([None, 10.0]),
    ), max_size=2).map(tuple),
    transient=st.lists(st.builds(
        TransientFaults, machines, st.sampled_from([0.3, 1.0]),
    ), max_size=2).map(tuple),
    corruption=st.lists(st.builds(
        CorruptionFaults, machines, st.sampled_from([0.2, 1.0]),
    ), max_size=2).map(tuple),
    seed=st.integers(0, 2**16),
)


def one_round(c, keys, schedule, partial):
    """Outcome of one multiget under a freshly seeded ``schedule``."""
    inject_faults(c, schedule)
    collector = PartialCollector() if partial else None
    try:
        with partial_scope(collector):
            values, stats = c.multiget(keys, clients=2)
    except StorageError as exc:
        return type(exc), getattr(exc, "partitions", None)
    finally:
        clear_faults(c)
    return values, (
        stats.requests, stats.rounds, stats.sim_time_ms,
        stats.degraded_keys, stats.degraded_partitions,
        collector.keys if partial else None,
    )


@settings(max_examples=60, deadline=None)
@given(
    schedule=schedules,
    r=st.sampled_from([1, 2]),
    partial=st.booleans(),
    clock=st.sampled_from([0.0, 7.0]),
)
def test_no_policy_is_one_attempt(schedule, r, partial, clock):
    c, keys = seeded_cluster(r=r, checksums=True)
    c.set_clock(clock)
    plain = one_round(c, keys, schedule, partial)
    c.enable_resilience(ResiliencePolicy(max_attempts=1, hedge=False))
    assert one_round(c, keys, schedule, partial) == plain
    if partial:
        # a collector absorbs every outage: the fetch never raises
        assert isinstance(plain[0], dict)


# -- circuit breaker ---------------------------------------------------------

def test_breaker_unit_transitions():
    b = CircuitBreaker(threshold=2, cooldown_ms=100.0)
    assert b.allows(0.0) and b.state == CLOSED
    assert b.record_failure(0.0) == 0
    assert b.record_failure(1.0) == 1  # tripped
    assert b.state == OPEN
    assert not b.allows(50.0)
    assert b.allows(150.0)  # cooldown elapsed: half-open probe admitted
    assert b.state == HALF_OPEN
    b.record_failure(151.0)  # probe failed: reopen (counts as a trip)
    assert b.state == OPEN
    assert b.allows(300.0)
    b.record_success(301.0)
    assert b.state == CLOSED and b.snapshot()["trips"] == 2


def test_breaker_trips_and_recovers_via_half_open_probe():
    c, keys = seeded_cluster(r=2)
    expected, _ = c.multiget(keys)
    victim = owner_of(c, keys)
    # the victim fails every round for the first 500 sim-ms, then heals
    inject_faults(c, FaultSchedule(
        transient=(TransientFaults(victim, probability=1.0,
                                   until_ms=500.0),),
        seed=5,
    ))
    c.enable_resilience(ResiliencePolicy(
        breaker_threshold=2, breaker_cooldown_ms=200.0, hedge=False,
    ))
    trips = 0
    for i in range(4):
        c.set_clock(i * 10.0)
        values, stats = c.multiget(keys)
        assert values == expected
        trips += stats.breaker_trips
    assert trips >= 1
    assert c.breaker_snapshot()[str(victim)]["state"] == OPEN
    # past the fault window and the cooldown: the half-open probe
    # succeeds and closes the breaker again
    c.set_clock(1000.0)
    values, stats = c.multiget(keys)
    assert values == expected
    assert c.breaker_snapshot()[str(victim)]["state"] == CLOSED


# -- deadlines inside the retry loop ----------------------------------------

def test_retry_loop_is_cooperatively_cancellable():
    c, keys = seeded_cluster(r=1)
    victim = owner_of(c, keys)
    inject_faults(c, FaultSchedule(
        transient=(TransientFaults(victim, probability=1.0),), seed=2,
    ))
    c.enable_resilience(ResiliencePolicy(max_attempts=100, hedge=False))
    checks = {"n": 0}

    def check():
        checks["n"] += 1
        if checks["n"] > 2:
            raise DeadlineExceeded("deadline exceeded mid-retry")

    with cancel_scope(check):
        with pytest.raises(DeadlineExceeded):
            c.multiget(keys)
    # the scope fired inside the retry loop, not before the first round
    assert checks["n"] > 2


# -- session-level chaos -----------------------------------------------------

@pytest.fixture(scope="module")
def events():
    return generate_citation_events(
        CitationConfig(num_nodes=300, citations_per_node=4, seed=42)
    )


def build_tgi(events, r=2, m=4, checksums=False):
    tgi = TGI(TGIConfig(
        events_per_timespan=1200,
        eventlist_size=150,
        micro_partition_size=32,
        cluster=ClusterConfig(
            num_machines=m, replication=r, checksums=checksums,
        ),
    ))
    tgi.build(events)
    return tgi


@pytest.fixture(scope="module")
def tgi(events):
    return build_tgi(events)


@pytest.fixture(scope="module")
def tmax(events):
    return events[-1].time


def fresh_session(tgi):
    return GraphSession.from_index(tgi)


def khop_request(node, t, k=2, **kwargs):
    return QueryRequest(
        kind="khop", t=t, nodes=(node,), k=k, single=True, **kwargs
    )


def test_flapping_machine_mid_query_member_identity(tgi, tmax):
    session = fresh_session(tgi)
    cluster = tgi.cluster
    centers = [1, 3, 5, 7, 11, 13, 17, 19]
    baseline = {
        node: sorted(session.execute(khop_request(node, tmax)).value.nodes())
        for node in centers
    }
    # one machine flaps: down 40ms of every 100ms; queries land at
    # staggered sim instants so some hit the down window mid-retry
    inject_faults(cluster, FaultSchedule(
        crashes=flapping_crashes(1, period_ms=100.0, down_ms=40.0),
        transient=(TransientFaults(1, probability=0.3),),
        seed=9,
    ))
    cluster.enable_resilience(ResiliencePolicy(seed=9))
    try:
        for i, node in enumerate(centers):
            cluster.set_clock(i * 25.0)
            result = session.execute(khop_request(node, tmax))
            assert sorted(result.value.nodes()) == baseline[node]
    finally:
        cluster.disable_resilience()
        clear_faults(cluster)
        cluster.set_clock(0.0)


def test_chaos_mid_batch_member_identity(tgi, tmax):
    session = fresh_session(tgi)
    cluster = tgi.cluster
    requests = [khop_request(node, tmax) for node in (1, 2, 3, 4, 5)]
    baseline = [
        sorted(r.value.nodes())
        for r in session.execute_batch(requests)
    ]
    victim = 2
    inject_faults(cluster, FaultSchedule(
        crashes=(CrashWindow(victim, 0.0),), seed=13,
    ))
    cluster.enable_resilience(ResiliencePolicy(seed=13, hedge=False))
    try:
        results = session.execute_batch(requests, capture_errors=True)
        for got, want in zip(results, baseline):
            assert got.ok, got.error
            assert sorted(got.value.nodes()) == want
    finally:
        cluster.disable_resilience()
        clear_faults(cluster)


#: "no policy" is one attempt with no breakers or hedging; both settle
#: unserved keys the same way
POLICIES = (None, ResiliencePolicy(max_attempts=2, hedge=False))


def arm(cluster, policy):
    cluster.disable_resilience()
    if policy is not None:
        cluster.enable_resilience(policy)


def test_coalesced_batch_owner_death_fails_typed(events, tmax, monkeypatch):
    # r=1: a dead machine's partitions are gone for good — batchmates
    # must survive and the affected requests must fail *typed*, from
    # the one shared execution (no request is re-run on its own)
    tgi = build_tgi(events, r=1)
    session = fresh_session(tgi)

    def hist_request(node):
        return QueryRequest(
            kind="node_histories", ts=1, te=tmax, nodes=(node,),
            single=True,
        )

    # 2-hop neighborhoods span the whole cluster and must die with the
    # victim; the history requests were picked (per fault-free routing)
    # to avoid it entirely and must survive the shared window
    requests = [
        khop_request(1, tmax), khop_request(2, tmax),
        hist_request(4), hist_request(5), hist_request(8),
    ]
    baseline = session.execute_batch(requests)  # fault-free sanity
    victim = 1
    fault_free_machines = []
    for r in baseline:
        # the routing of each request, from a direct index call (sessions
        # return QueryStats, which carry counts, not request records)
        node = r.request.nodes[0]
        if r.request.kind == "khop":
            _, fetch = tgi.retrieve_khop(node, tmax, k=r.request.k)
        else:
            _, fetch = tgi.retrieve_node_history(node, 1, tmax)
        fault_free_machines.append({rec.server for rec in fetch.requests})
    assert any(victim in m for m in fault_free_machines)
    assert any(victim not in m for m in fault_free_machines)
    inject_faults(tgi.cluster, FaultSchedule(
        crashes=(CrashWindow(victim, 0.0),),
    ))
    executions = []
    execute_many = PlanExecutor.execute_many

    def counted(self, *args, **kwargs):
        executions.append(len(args[0]))
        return execute_many(self, *args, **kwargs)

    monkeypatch.setattr(PlanExecutor, "execute_many", counted)
    for policy in POLICIES:
        arm(tgi.cluster, policy)
        executions.clear()
        results = session.execute_batch(requests, capture_errors=True)
        assert len(executions) == 1, policy
        for r, machines in zip(results, fault_free_machines):
            if victim in machines:
                assert not r.ok
                # typed: PartitionUnavailable from the fetch loop, or the
                # plan-time "all replicas down" StorageError — never a
                # bare KeyError/IndexError out of the fetch internals
                assert isinstance(r.error, StorageError)
            else:
                assert r.ok, r.error
        # survivors stay member-identical to the fault-free run
        for got, want in zip(results, baseline):
            if got.ok:
                assert got.value.initial == want.value.initial
                assert got.value.events == want.value.events


def test_allow_partial_returns_degraded_result(events, tmax):
    tgi = build_tgi(events, r=1)
    session = fresh_session(tgi)
    full = session.execute(QueryRequest(kind="snapshot", t=tmax))
    victim = 1
    for policy in POLICIES:
        arm(tgi.cluster, policy)
        inject_faults(tgi.cluster, FaultSchedule(
            crashes=(CrashWindow(victim, 0.0),),
        ))
        # strict request: typed failure
        with pytest.raises(PartitionUnavailable):
            session.execute(QueryRequest(kind="snapshot", t=tmax))
        # allow_partial: partial graph + degraded block
        result = session.execute(
            QueryRequest(kind="snapshot", t=tmax, allow_partial=True)
        )
        assert result.degraded is not None
        assert result.degraded["partitions"]
        assert result.degraded["keys"] > 0
        assert 0 < result.value.num_nodes < full.value.num_nodes
        stats = result.stats.as_dict()
        assert stats["degraded"]["partitions"] == (
            result.degraded["partitions"]
        )
        # recovery: faults cleared, the same strict query is whole
        # again — proving no degraded state poisoned any cache
        clear_faults(tgi.cluster)
        again = session.execute(QueryRequest(kind="snapshot", t=tmax))
        assert again.value.num_nodes == full.value.num_nodes


def test_allow_partial_fault_free_is_not_degraded(tgi, tmax):
    session = fresh_session(tgi)
    result = session.execute(khop_request(3, tmax, allow_partial=True))
    assert result.degraded is None
    assert "degraded" not in result.stats.as_dict()


# -- wire / service ----------------------------------------------------------

def test_allow_partial_spec_round_trip():
    spec = {"kind": "khop", "node": 3, "time": 800, "k": 2,
            "allow_partial": True}
    request = request_from_spec(spec)
    assert request.allow_partial
    back = spec_from_request(request)
    assert back["allow_partial"] is True
    assert request_from_spec(back) == request
    # absent by default
    assert "allow_partial" not in spec_from_request(
        request_from_spec({"kind": "snapshot", "time": 5})
    )


def test_storage_errors_map_to_503_unavailable():
    status, payload = error_payload(
        PartitionUnavailable("partitions gone", partitions=("ts0:p1",))
    )
    assert status == 503
    assert payload["error"]["code"] == "unavailable"
    assert payload["error"]["retryable"] is True
    status, _ = error_payload(CorruptPayload("checksum mismatch"))
    assert status == 503
    # the client-side inverse rebuilds the typed error
    from repro.api import error_from_payload
    err = error_from_payload(status, payload)
    assert isinstance(err, Unavailable)


def test_metrics_fold_resilience_counters():
    metrics = ServiceMetrics()
    # the session's record of the query, which the snapshot reads
    metrics.registry.record("khop", QueryStats(
        requests=4, bytes_read=100, retries=3, hedges=1, breaker_trips=2,
        degraded_keys=5, degraded_partitions=["ts0:p1"],
    ))
    snap = metrics.snapshot()["resilience"]
    assert snap == {
        "retries": 3, "hedges": 1, "breaker_trips": 2,
        "degraded_queries": 1, "degraded_keys": 5,
    }


def test_healthz_reports_breaker_state(tgi):
    session = fresh_session(tgi)
    service = QueryService(session)
    status, payload, _ = asyncio.run(
        service._handle("GET", "/healthz", {}, b"")
    )
    assert status == 200 and "breakers" not in payload
    tgi.cluster.enable_resilience()
    try:
        status, payload, _ = asyncio.run(
            service._handle("GET", "/healthz", {}, b"")
        )
        assert status == 200
        assert payload["breakers"] == {
            str(m): {"state": "closed", "failures": 0, "trips": 0}
            for m in range(4)
        }
    finally:
        tgi.cluster.disable_resilience()


def test_resilience_stats_flow_to_query_stats(tgi, tmax):
    session = fresh_session(tgi)
    cluster = tgi.cluster
    victim = 1
    inject_faults(cluster, FaultSchedule(
        transient=(TransientFaults(victim, probability=0.7),), seed=21,
    ))
    cluster.enable_resilience(ResiliencePolicy(seed=21, hedge=False))
    try:
        retries = 0
        for i in range(6):
            cluster.set_clock(i * 10.0)
            result = session.execute(
                QueryRequest(kind="snapshot", t=tmax)
            )
            retries += result.stats.retries
            if result.stats.retries:
                block = result.stats.as_dict()["resilience"]
                assert block["retries"] == result.stats.retries
        assert retries > 0
    finally:
        cluster.disable_resilience()
        clear_faults(cluster)
        cluster.set_clock(0.0)


def test_son_fetch_reports_resilience_counters(tgi, tmax):
    # ParallelFetchStats.absorb used to fold 15 FetchStats fields by hand
    # and drop the resilience ones, so SoN/SoTS fetches under a policy
    # reported zero retries whatever the store did
    session = fresh_session(tgi)
    cluster = tgi.cluster
    want = session.nodes("id < 40").timeslice(1, tmax).fetch()
    inject_faults(cluster, FaultSchedule(
        crashes=flapping_crashes(1, period_ms=100.0, down_ms=40.0),
        transient=(TransientFaults(1, probability=0.3),),
        seed=9,
    ))
    cluster.enable_resilience(ResiliencePolicy(seed=9))
    try:
        retries = backoff = 0.0
        for i in range(8):
            cluster.set_clock(i * 25.0)
            son = session.nodes("id < 40").timeslice(1, tmax).fetch()
            assert sorted(nt.node_id for nt in son.collect()) == sorted(
                nt.node_id for nt in want.collect()
            )
            retries += son.fetch_stats.retries
            backoff += son.fetch_stats.backoff_ms
        sots = session.subgraphs(k=1).timeslice(1, tmax).fetch(centers=[3, 5])
        assert sots.fetch_stats.retries >= 0  # the field exists on SoTS too
        assert retries > 0 and backoff > 0.0
    finally:
        cluster.disable_resilience()
        clear_faults(cluster)
        cluster.set_clock(0.0)
