"""A free snapshot-first is not contested.

When the snapshot at ``t`` is an exact materialized-snapshot checkpoint,
snapshot-first's plan names no key: it reads no store row and prices
0.0, so no Algorithm-4 plan can beat it, nor touch fewer rows on a tie.
``auto`` then chooses it without planning or pricing Algorithm 4 — no
``TGIPlanner.plan_khop`` call — and reports it as the one candidate.
Every other path prices both candidates as before: a near-warm snapshot,
a snapshot priced 0.0 only through a batch's shared keys, and every
forced algorithm.
"""

from __future__ import annotations

import pytest

from repro import GraphSession
from repro.api import QueryRequest
from repro.cli import main
from repro.errors import IndexError_
from repro.graph.static import Graph
from repro.index.tgi import TGI, TGIConfig, TGIPlanner
from repro.kvstore.cluster import ClusterConfig
from repro.obs import SamplingPolicy, Tracer
from repro.session import open_graph
from repro.session.pricing import FREE_SNAPSHOT_NOTE
from repro.storage import save_index
from tests.helpers import counted, graph_parts, random_history
from tests.oracle import oracle_parts

SF, KHOP = "snapshot-first", "khop"
UNKNOWN = -7


@pytest.fixture(scope="module")
def events():
    return random_history(steps=300, seed=11)


@pytest.fixture(scope="module")
def t(events):
    return events[-1].time - 3


def build(events, checkpoint_entries=256):
    tgi = TGI(TGIConfig(
        events_per_timespan=150, eventlist_size=25, micro_partition_size=8,
        checkpoint_entries=checkpoint_entries,
        cluster=ClusterConfig(num_machines=3),
    ))
    tgi.build(events)
    return tgi


@pytest.fixture()
def session(events):
    return GraphSession(build(events))


@pytest.fixture(scope="module")
def alive(events, t):
    return sorted(Graph.replay(events, until=t).nodes())


@pytest.fixture(scope="module")
def dead(events, t, alive):
    """A node the timespan of ``t`` knows, not alive at ``t``."""
    span = build(events, checkpoint_entries=0)._span_at(t)
    return next(
        ev.node for ev in events
        if ev.node is not None and ev.node not in alive
        and span.pid_of(ev.node) is not None
    )


def khop(t, centers, k=2, algorithm="auto", single=True):
    return QueryRequest(
        kind="khop", t=t, nodes=tuple(centers), k=k, single=single,
        algorithm=algorithm,
    )


def warm_snapshot(session, t):
    session.execute(QueryRequest(kind="snapshot", t=t))
    assert session.planner.plan_snapshot(t).num_keys == 0


def observed(request, value):
    if request.single:
        return graph_parts(value)
    return [None if g is None else graph_parts(g) for g in value]


@pytest.mark.parametrize("k", [1, 2])
def test_exact_warm_auto_khop_skips_algorithm4(
    session, monkeypatch, events, t, alive, dead, k
):
    warm_snapshot(session, t)
    calls = counted(monkeypatch, TGIPlanner, "plan_khop")
    unions = []
    union_khops = TGIPlanner.union_khops
    monkeypatch.setattr(TGIPlanner, "union_khops", staticmethod(
        lambda *args: unions.append(args) or union_khops(*args)
    ))
    lone = khop(t, [alive[0]], k=k)
    several = khop(
        t, [alive[1], dead, alive[2], UNKNOWN], k=k, single=False
    )
    results = [session.execute(r) for r in (lone, several)]
    assert calls[0] == len(unions) == 0
    for request, result in zip((lone, several), results):
        assert result.stats.algorithm == SF
        assert result.stats.candidates == {SF: 0.0}
        assert result.stats.predicted_ms == 0.0
        assert result.stats.requests == 0
        forced = session.execute(
            khop(t, request.nodes, k=k, algorithm=KHOP,
                 single=request.single)
        )
        assert observed(request, result.value) == observed(
            request, forced.value
        )
        truth = [oracle_parts(events, c, k, t) for c in request.nodes]
        assert observed(request, result.value) == (
            truth[0] if request.single else truth
        )
    assert observed(several, results[1].value)[1::2] == [None, None]


def test_the_pricing_span_records_the_lone_candidate(session, t, alive):
    warm_snapshot(session, t)
    tracer = Tracer(SamplingPolicy.all())
    session.tracer = tracer
    result = session.execute(khop(t, [alive[0]]))
    (pricing,) = tracer.last().find("pricing")
    assert pricing.attrs["chosen"] == SF == result.stats.algorithm
    assert pricing.attrs["candidates"] == {SF: 0.0}


@pytest.mark.parametrize("center", ["dead", "unknown"])
def test_a_lone_dead_center_still_raises(
    session, monkeypatch, t, dead, center
):
    warm_snapshot(session, t)
    calls = counted(monkeypatch, TGIPlanner, "plan_khop")
    request = khop(t, [dead if center == "dead" else UNKNOWN])
    with pytest.raises(IndexError_):
        session.execute(request)
    with pytest.raises(IndexError_):
        session.execute_batch([request])
    assert calls[0] == 0


def test_the_all_warm_tie_now_goes_to_snapshot_first(
    session, monkeypatch, t, alive
):
    """The intended change of choice: with the snapshot and every
    expected partition state exact-warm, both candidates price 0.0.
    ``_TIE_ORDER`` would send that tie to Algorithm 4, whose bound "may
    touch fewer" rows — impossible when snapshot-first touches none."""
    warm_snapshot(session, t)
    for center in alive:  # every partition state a k-hop at t may read
        session.execute(khop(t, [center], algorithm=KHOP))
    forced = session.execute(khop(t, [alive[0]], algorithm=KHOP))
    assert forced.stats.candidates == {SF: 0.0, KHOP: 0.0}
    calls = counted(monkeypatch, TGIPlanner, "plan_khop")
    tie = session.execute(khop(t, [alive[0]]))
    assert tie.stats.algorithm == SF
    assert tie.stats.candidates == {SF: 0.0}
    assert calls[0] == 0
    assert graph_parts(tie.value) == graph_parts(forced.value)


def test_a_near_warm_snapshot_prices_both(session, monkeypatch, t, alive):
    warm_snapshot(session, t)
    assert session.planner.plan_snapshot(t + 1).num_keys > 0
    calls = counted(monkeypatch, TGIPlanner, "plan_khop")
    result = session.execute(khop(t + 1, [alive[0]]))
    assert set(result.stats.candidates) == {SF, KHOP}
    assert calls[0] == 1


@pytest.mark.parametrize("algorithm", [SF, KHOP])
def test_forced_algorithms_price_both(
    session, monkeypatch, t, alive, algorithm
):
    warm_snapshot(session, t)
    calls = counted(monkeypatch, TGIPlanner, "plan_khop")
    result = session.execute(khop(t, [alive[0]], algorithm=algorithm))
    assert result.stats.algorithm == algorithm
    assert set(result.stats.candidates) == {SF, KHOP}
    assert result.stats.candidates[SF] == 0.0
    assert calls[0] == 1


def test_a_snapshot_free_only_through_shared_keys_prices_both(
    events, monkeypatch, t, alive
):
    """Checkpoints off: a snapshot request ahead in the batch makes every
    key of the k-hop's candidates shared, so both price 0.0 — but the
    snapshot plan names keys, both are priced and the tie still goes to
    Algorithm 4."""
    session = GraphSession(build(events, checkpoint_entries=0))
    calls = counted(monkeypatch, TGIPlanner, "plan_khop")
    _snap, result = session.execute_batch([
        QueryRequest(kind="snapshot", t=t), khop(t, [alive[0]]),
    ])
    assert result.stats.candidates == {SF: 0.0, KHOP: 0.0}
    assert result.stats.algorithm == KHOP
    assert calls[0] == 1


def test_explain_says_why(session, t, alive):
    warm_snapshot(session, t)
    out = session.explain(khop(t, [alive[0]]))
    assert f"note: {FREE_SNAPSHOT_NOTE}" in out
    assert "candidates: snapshot-first=0.00 sim-ms -> snapshot-first" in out
    assert "  - khop:" not in out
    # a forced request prices (and prints) both, without the note
    out = session.explain(khop(t, [alive[0]], algorithm=SF))
    assert FREE_SNAPSHOT_NOTE not in out and "  - khop:" in out


def test_cli_explain_says_why(events, tmp_path, capsys, t, alive):
    """``hgs query`` opens the index in the cache registry, so a session
    over the same file in this process warms the snapshot it reads."""
    index = tmp_path / "i.hgs"
    save_index(build(events), index)
    argv = ["query", str(index), "--explain", "khop", str(alive[0]),
            str(t), "-k", "2"]
    with open_graph(index) as session:
        assert main(argv) == 0
        cold = capsys.readouterr().out
        warm_snapshot(session, t)
        assert main(argv) == 0
        warm = capsys.readouterr().out
    assert FREE_SNAPSHOT_NOTE not in cold and "  - khop:" in cold
    assert f"note: {FREE_SNAPSHOT_NOTE}" in warm
    assert "  - snapshot-first: 0.00 sim-ms — chosen" in warm
    assert "  - khop:" not in warm
