"""Concurrency regression tests: cache thread-safety and
member-identical concurrent execution with fair attribution.

The serving layer runs ``execute_batch`` on worker threads while other
sessions (TAF handlers, CLI queries) may hit the same shared caches, so
the lock discipline added to :mod:`repro.exec.cache` is load-bearing.
These tests hammer the structures from many threads and assert the
invariants that used to hold only single-threaded."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import GraphSession, TGI, TGIConfig
from repro.api import QueryRequest
from repro.exec import CacheRegistry, DeltaCache, StateCheckpointCache
from repro.kvstore.cluster import ClusterConfig
from repro.service import BackgroundService, ServiceClient
from repro.workloads.citation import CitationConfig, generate_citation_events
from tests.helpers import graph_parts

THREADS = 8


@pytest.fixture(scope="module")
def events():
    return generate_citation_events(
        CitationConfig(num_nodes=300, citations_per_node=4, seed=42)
    )


@pytest.fixture(scope="module")
def tmax(events):
    return events[-1].time


def build_tgi(events, cache_entries=0, checkpoints=0):
    tgi = TGI(TGIConfig(
        events_per_timespan=1200,
        eventlist_size=150,
        micro_partition_size=32,
        delta_cache_entries=cache_entries,
        checkpoint_entries=checkpoints,
        cluster=ClusterConfig(num_machines=2),
    ))
    tgi.build(events)
    return tgi


def hammer(fn, threads=THREADS):
    """Run ``fn(worker_index)`` on many threads; re-raise any failure."""
    errors = []
    barrier = threading.Barrier(threads)

    def run(i):
        barrier.wait()
        try:
            fn(i)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    workers = [
        threading.Thread(target=run, args=(i,)) for i in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    if errors:
        raise errors[0]


# -- cache structures --------------------------------------------------------

def test_cache_registry_concurrent_acquire_release():
    registry = CacheRegistry()
    rounds = 200

    def churn(i):
        for _ in range(rounds):
            slot = registry.acquire("idx", delta_entries=64)
            assert slot.delta is not None
            slot.delta.admit(("k", i), i, 8, 8)
            registry.release("idx")

    hammer(churn)
    # every acquire was released: the slot must be fully dropped
    assert registry.peek_slot("idx") is None


def test_cache_registry_interleaved_ids():
    registry = CacheRegistry()

    def churn(i):
        index_id = f"idx-{i % 2}"
        for _ in range(200):
            registry.acquire(index_id, delta_entries=16)
            registry.release(index_id)

    hammer(churn)
    assert registry.peek_slot("idx-0") is None
    assert registry.peek_slot("idx-1") is None


def test_delta_cache_concurrent_admit_lookup():
    cache = DeltaCache(max_entries=64)
    per_thread = 500

    def churn(i):
        for n in range(per_thread):
            key = ("part", n % 96)
            row = cache.lookup(key)
            if row is not None:
                assert row.value == key[1]
            cache.admit(key, key[1], 16, 16)
            if n % 50 == 0:
                cache.invalidate(("part", (n + i) % 96))

    hammer(churn)
    assert len(cache) <= 64
    stats = cache.stats()
    assert stats.hits + stats.misses == THREADS * per_thread
    # every surviving entry still maps key -> its own payload
    for key in list(cache._rows):
        row = cache.lookup(key)
        if row is not None:
            assert row.value == key[1]


def test_checkpoint_cache_concurrent_admit_lookup():
    cache = StateCheckpointCache(max_entries=32)

    def churn(i):
        for n in range(300):
            key = ("state", n % 48)
            got = cache.lookup(key)
            if got is not None:
                assert got == key[1]
            cache.admit(key, payload=key[1], series=("series",), t=key[1])
            nearest = cache.nearest(("series",), n % 48)
            if nearest is not None:
                t0, near_key = nearest
                assert t0 <= n % 48
                payload = cache.lookup(near_key)
                # the entry may have been evicted between nearest and
                # lookup; when present it must be self-consistent
                if payload is not None:
                    assert payload == t0

    hammer(churn)
    assert len(cache) <= 32
    stats = cache.stats()
    assert stats.hits + stats.misses > 0


# -- concurrent execution ----------------------------------------------------

def khop_request(node, t, k=2):
    return QueryRequest(kind="khop", t=t, nodes=(node,), k=k, single=True)


def test_concurrent_execute_member_identical(events, tmax):
    # caches + checkpoints ON: the shared structures are exercised by
    # every thread, and answers must still match the serial reference
    tgi = build_tgi(events, cache_entries=256, checkpoints=16)
    reference_tgi = build_tgi(events)
    serial = GraphSession.from_index(reference_tgi)
    nodes = [1, 2, 3, 5, 8, 13, 21, 34]
    expected = {
        node: sorted(serial.execute(khop_request(node, tmax)).value.nodes())
        for node in nodes
    }
    session = GraphSession.from_index(tgi, index_id="concurrent-test")

    def churn(i):
        for node in nodes[i % len(nodes):] + nodes[: i % len(nodes)]:
            result = session.execute(khop_request(node, tmax))
            assert sorted(result.value.nodes()) == expected[node]

    try:
        hammer(churn)
    finally:
        session.close()


def test_concurrent_batches_fair_attribution_sums(events, tmax):
    # several execute_batch calls racing on one executor: each batch's
    # fractional per-request shares must still sum exactly to its own
    # deduplicated totals (the solo-run reference; the simulation is
    # deterministic, so equal totals mean nothing leaked across batches)
    tgi = build_tgi(events)
    requests = [khop_request(node, tmax) for node in (1, 2, 3, 1, 2)]
    solo = GraphSession.from_index(tgi).execute_batch(requests)
    solo_requests = sum(r.stats.requests for r in solo)
    solo_bytes = sum(r.stats.bytes_read for r in solo)
    assert solo_requests > 0

    def run_batch(i):
        session = GraphSession.from_index(tgi)
        return session.execute_batch(requests)

    with ThreadPoolExecutor(max_workers=4) as pool:
        batches = list(pool.map(run_batch, range(8)))
    for results in batches:
        assert sum(r.stats.requests for r in results) == pytest.approx(
            solo_requests
        )
        assert sum(r.stats.bytes_read for r in results) == pytest.approx(
            solo_bytes
        )
        for reference, result in zip(solo, results):
            assert sorted(result.value.nodes()) == sorted(
                reference.value.nodes()
            )


def test_concurrent_execute_stats_are_each_querys_own(events, tmax):
    # one shared uncached session, every plan forced to Algorithm 4: a
    # query's stats must account for exactly the work *it* did — the
    # serial value of the same request — whatever its neighbors are
    # doing.  (Stats used to be read back off the shared index object,
    # so a thread could report another query's fetch.)
    import sys

    pool = [
        QueryRequest(kind="khop", t=tmax - 40 * (node % 5), nodes=(node,),
                     k=1 + node % 2, single=True, algorithm="khop")
        for node in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
    ] + [
        # histories materialize events: decoded_events is not trivially 0
        QueryRequest(kind="node_histories", ts=1, te=tmax, nodes=(node,),
                     single=True)
        for node in (4, 9)
    ]

    def counters(stats):
        return (stats.requests, stats.bytes_read, stats.rounds,
                stats.sim_time_ms, stats.decoded_events)

    serial = GraphSession.from_index(build_tgi(events))
    expected = [counters(serial.execute(request).stats) for request in pool]
    assert any(want[4] > 0 for want in expected)
    assert len(set(expected)) == len(expected)  # a swap would show

    session = GraphSession.from_index(build_tgi(events))
    wrong = []

    def churn(i):
        for n in range(30):
            j = (i * 7 + n) % len(pool)
            got = counters(session.execute(pool[j]).stats)
            if got != expected[j]:
                wrong.append((pool[j].describe(), got, expected[j]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        hammer(churn)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong, f"{len(wrong)} of {THREADS * 30}: {wrong[:3]}"


def test_concurrent_batches_share_replay_only_within_themselves(events, tmax):
    # one shared uncached session, every thread its own execute_batch of
    # overlapping Algorithm-4 k-hops: the replayed state is shared per
    # execution, never across threads, so every batch must report its
    # own members and its own stats exactly — ``coalesced_replays``
    # included, which counts what *this* batch's plans read from one
    # another
    import sys

    pools = [
        [QueryRequest(kind="khop", t=tmax - 40 * (i % 3), nodes=(node,),
                      k=2, single=True, algorithm="khop")
         for node in centers]
        for i, centers in enumerate([
            (1, 2, 3, 5, 8), (2, 3, 5, 8, 13), (34, 21, 13, 8, 5),
            (1, 1, 55, 89, 2),
        ])
    ]

    def outcome(results):
        return [
            (graph_parts(r.value), r.stats.requests, r.stats.bytes_read,
             r.stats.rounds, r.stats.sim_time_ms, r.stats.coalesced_hits,
             r.stats.coalesced_replays)
            for r in results
        ]

    serial = GraphSession.from_index(build_tgi(events))
    expected = [outcome(serial.execute_batch(pool)) for pool in pools]
    assert all(
        sum(slot[6] for slot in batch) > 0 for batch in expected
    )

    session = GraphSession.from_index(build_tgi(events))
    wrong = []

    def churn(i):
        for n in range(6):
            j = (i + n) % len(pools)
            if outcome(session.execute_batch(pools[j])) != expected[j]:
                wrong.append((i, n, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        hammer(churn)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong, f"{len(wrong)} of {THREADS * 6}: {wrong[:5]}"


def test_shared_client_under_backpressure_answers_every_caller(events, tmax):
    # eight threads share ONE ServiceClient (a kept connection each)
    # against two workers: batches form from the backlog alone, and a
    # crossed response, a lost request or a batch parked in the pool's
    # hidden queue would each show
    import sys

    nodes = (1, 2, 3, 5, 8, 13, 21, 34)
    serial = GraphSession.from_index(build_tgi(events))
    expected = {
        node: sorted(serial.execute(khop_request(node, tmax)).value.nodes())
        for node in nodes
    }
    wrong = []
    queued = []
    per_thread = 12

    with BackgroundService(
        GraphSession.from_index(build_tgi(events)), workers=2
    ) as svc, ServiceClient(port=svc.port, caller="shared") as client:
        collector = svc.service.collector

        def churn(i):
            try:
                for n in range(per_thread):
                    node = nodes[(i + n) % len(nodes)]
                    out = client.query(
                        {"kind": "khop", "node": node, "time": tmax, "k": 2}
                    )
                    if out["members"] != expected[node]:
                        wrong.append((i, n, node))
                    queued.append(collector._pool._work_queue.qsize())
            finally:
                client.close()  # this thread's connection

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            hammer(churn)
        finally:
            sys.setswitchinterval(interval)
        batches = client.metrics()["batches"]

    total = THREADS * per_thread
    assert not wrong, f"{len(wrong)} of {total}: {wrong[:5]}"
    assert batches["requests"] == total
    assert sum(batches["by_trigger"].values()) == batches["count"]
    assert set(batches["by_trigger"]) <= {"idle", "backpressure"}
    assert batches["max_size"] > 1  # the backlog did batch
    # a dispatched batch is picked up by an idle worker at once: a queue
    # deeper than the workers would mean batches were parked in the pool
    assert max(queued) <= 2
