"""The collector pause a read holds while it builds its result
(``repro.exec.cache.collector_paused``).

Nested holders turn the collector back on at the outermost release; a
body that raises still restores it; a collector the application turned
off stays off and is never collected by the pause; overlapping holders
cannot keep the young generation growing, because every release runs
the collection CPython's thresholds call for; and every read entry point
leaves the collector, and its thresholds, as it found them.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro import GraphSession
from repro.api import QueryRequest
from repro.errors import IndexError_
from repro.exec import PlanExecutor, collector_paused
from repro.exec.cache import FULL_COLLECTION_EVERY
from repro.index.tgi import TGI, TGIConfig
from repro.workloads.social import SocialConfig, generate_social_events


@pytest.fixture(scope="module")
def events():
    return generate_social_events(
        SocialConfig(num_nodes=250, num_steps=2500, seed=3)
    )


@pytest.fixture(scope="module")
def session(events):
    tgi = TGI(TGIConfig(events_per_timespan=600, eventlist_size=60,
                        micro_partition_size=16, checkpoint_entries=8))
    tgi.build(events)
    with GraphSession(tgi) as s:
        yield s


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts with the collector on; the suite's state is put
    back afterwards."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def collections():
    """Young and middle collections made so far in this process."""
    young, middle, _old = gc.get_stats()
    return young["collections"] + middle["collections"]


def test_nested_holders_turn_it_back_on_at_the_outermost_release():
    @collector_paused
    def inner():
        return gc.isenabled()

    with collector_paused:
        assert not gc.isenabled()
        with collector_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()
        assert inner() is False
        assert not gc.isenabled()
    assert gc.isenabled()


def test_many_threads_never_see_the_collector_on_while_holding():
    """More holder threads than cores, switching as often as the
    interpreter allows: a lost update of the holder count would turn the
    collector on under a holder, or leave it off after the last one."""
    seen_on = []

    def hold():
        for _ in range(2000):
            with collector_paused:
                with collector_paused:
                    if gc.isenabled():
                        seen_on.append(threading.get_ident())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen_on == []
    assert collector_paused._holders == 0
    assert gc.isenabled()


def test_a_body_that_raises_still_restores_the_collector(session, events):
    with pytest.raises(RuntimeError):
        with collector_paused:
            raise RuntimeError("boom")
    assert gc.isenabled()
    # a lone k-hop around a center that does not exist raises
    dead = QueryRequest(kind="khop", t=events[-1].time, nodes=(-7,), k=1,
                        single=True)
    with pytest.raises(IndexError_):
        session.execute(dead)
    assert gc.isenabled()


def test_a_collector_the_application_disabled_stays_off(session, events):
    gc.disable()
    before = [s["collections"] for s in gc.get_stats()]
    with collector_paused:
        # keep the young generation past its threshold at the release
        junk = [[] for _ in range(3 * gc.get_threshold()[0])]
    for t in (events[len(events) // 3].time, events[-1].time):
        session.execute(QueryRequest(kind="snapshot", t=t))
        session.execute_batch([
            QueryRequest(kind="khop", t=t, nodes=(1, 2), k=2),
            QueryRequest(kind="snapshot", t=t),
        ])
    assert gc.get_count()[0] > gc.get_threshold()[0]
    assert not gc.isenabled()
    assert [s["collections"] for s in gc.get_stats()] == before
    del junk


def test_overlapping_queries_collect_at_every_release(
    session, events, monkeypatch
):
    """One query held open in a second thread keeps the collector off,
    yet each query this thread finishes leaves the young generation
    within its threshold."""
    started, release = threading.Event(), threading.Event()
    finalize = GraphSession._finalize
    holder = []

    def held(self, *args, **kwargs):
        if threading.current_thread() in holder:
            started.set()
            release.wait(60)
        return finalize(self, *args, **kwargs)

    monkeypatch.setattr(GraphSession, "_finalize", held)
    answers = []
    thread = threading.Thread(target=lambda: answers.append(
        session.execute(QueryRequest(kind="snapshot", t=events[-1].time))
    ))
    holder.append(thread)
    thread.start()
    try:
        assert started.wait(60)
        made = collections()
        step = max(1, len(events) // 50)
        for ev in events[::step][:50]:
            session.execute(QueryRequest(kind="snapshot", t=ev.time))
            assert gc.get_count()[0] <= gc.get_threshold()[0]
            assert not gc.isenabled()
        assert collections() > made  # the releases did collect
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive() and len(answers) == 1
    assert gc.isenabled()


def _entry_points(session, events):
    lo, hi = events[0].time, events[-1].time
    mid = events[len(events) // 2].time
    son = session.nodes("id < 40").timeslice(lo, hi).fetch()
    return {
        "execute": lambda spy: session.execute(
            QueryRequest(kind="snapshot", t=mid)
        ),
        "execute_batch": lambda spy: session.execute_batch([
            QueryRequest(kind="khop", t=mid, nodes=(1, 2), k=2),
            QueryRequest(kind="node_histories", ts=lo, te=mid,
                         nodes=(1, 3)),
        ]),
        "son_fetch": lambda spy: session.nodes("id < 40")
        .timeslice(lo, hi).fetch(),
        "sots_fetch": lambda spy: session.subgraphs(k=1)
        .timeslice(lo, hi).fetch(centers=[1, 2]),
        "node_compute_temporal": lambda spy: son.NodeComputeTemporal(
            lambda state: spy() or 0, 4
        ),
        "evolution": lambda spy: son.GetGraph().Evolution(
            lambda g: spy() or g.num_edges, 4
        ),
        "retrieve_snapshot": lambda spy: session.tgi.retrieve_snapshot(mid),
    }


ENTRY_POINTS = [
    "execute", "execute_batch", "son_fetch", "sots_fetch",
    "node_compute_temporal", "evolution", "retrieve_snapshot",
]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_leaves_the_collector_as_it_found_it(
    session, events, monkeypatch, name, enabled
):
    run = _entry_points(session, events)[name]
    seen = []

    def spy():
        seen.append(gc.isenabled())

    execute_many = PlanExecutor.execute_many

    def spied(self, *args, **kwargs):
        spy()
        return execute_many(self, *args, **kwargs)

    monkeypatch.setattr(PlanExecutor, "execute_many", spied)
    (gc.enable if enabled else gc.disable)()
    thresholds = gc.get_threshold()
    assert thresholds[2] >= FULL_COLLECTION_EVERY  # the checkpoint cache's
    run(spy)
    assert seen and not any(seen)  # the work ran paused
    assert gc.isenabled() is enabled
    assert gc.get_threshold() == thresholds
