"""One replayed state per execution: the k-hop plans of one ``_run``
share a merged ``PartialState`` per ``(timespan, t)``
(``repro.index.tgi.query.ReplayShare``), the way they already share one
fetch per key.

What is held here: values are what a serial loop and the raw log give
(a); each partition is replayed once per execution and nothing outlives
it (b); every stat that existed before the share is where it was (c);
results stay the caller's own (d); a partition one plan's fetch lost
stays lost for that plan whatever a batchmate folds in later (e)."""

import gc

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import GraphSession, TGI, TGIConfig
from repro.api import QueryRequest
from repro.errors import IndexError_, PartitionUnavailable
from repro.faults import CrashWindow, FaultSchedule, clear_faults, inject_faults
from repro.graph.static import Graph
from repro.index.tgi.query import PartialState, ReplayShare
from repro.index.tgi.states import PartitionStates, triage
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.cost import COUNTER_NAMES, Counters
from repro.kvstore.resilience import ResiliencePolicy
from repro.workloads.citation import CitationConfig, generate_citation_events
from tests.helpers import counted, graph_parts, random_history, small_tgi
from tests.oracle import oracle_parts


def khop(node, t, k=2, algorithm="khop", **kwargs):
    return QueryRequest(
        kind="khop", t=t, nodes=(node,), k=k, single=True,
        algorithm=algorithm, **kwargs,
    )


# -- (a) values ----------------------------------------------------------------

CONFIGS = {
    "cold": {},
    "checkpoints": {"checkpoint_entries": 64},
    "delta-cache": {"delta_cache_entries": 512},
}


@st.composite
def overlapping_batches(draw):
    """A churning history and one batch of k-hops crowded onto two time
    points and a handful of centers: duplicates, a dead center, a
    multi-center request (auto or shared-frontier) beside single
    ones."""
    steps = draw(st.integers(min_value=160, max_value=320))
    seed = draw(st.integers(min_value=0, max_value=50))
    events = random_history(steps=steps, seed=seed, edge_attr_churn=True)
    t_min, t_max = events[0].time, events[-1].time
    times = st.sampled_from(draw(st.lists(
        st.integers(min_value=t_min + 20, max_value=t_max),
        min_size=2, max_size=2, unique=True,
    )))
    last = max(ev.node for ev in events)
    pool = draw(st.lists(
        st.integers(min_value=0, max_value=last),
        min_size=3, max_size=5, unique=True,
    ))
    # an id the history never creates: dead at every t
    centers = st.sampled_from(pool + [last + 7])
    k = st.integers(min_value=1, max_value=3)
    request = st.one_of(
        st.builds(
            khop, centers, times, k,
            algorithm=st.sampled_from(["khop", "auto"]),
        ),
        st.builds(
            QueryRequest, kind=st.just("khop"), t=times, k=k,
            nodes=st.lists(centers, min_size=2, max_size=4).map(tuple),
            algorithm=st.sampled_from(["auto", "khop"]),
        ),
    )
    batch = draw(st.lists(request, min_size=4, max_size=10))
    return events, batch


def comparable(value):
    if isinstance(value, list):
        return [comparable(item) for item in value]
    return None if value is None else graph_parts(value)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(overlapping_batches())
def test_batch_slots_equal_serial_loop_and_log_replay(config, mix):
    events, batch = mix
    session = GraphSession.from_index(small_tgi(events, **CONFIGS[config]))
    serial = GraphSession.from_index(small_tgi(events))
    results = session.execute_batch(batch, capture_errors=True)
    for request, result in zip(batch, results):
        try:
            want = serial.execute(request).value
        except IndexError_:  # a lone dead center
            assert isinstance(result.error, IndexError_), request
            assert oracle_parts(
                events, request.nodes[0], request.k, request.t
            ) is None
            continue
        assert result.error is None, (request, result.error)
        assert comparable(result.value) == comparable(want), request
        got = result.value if isinstance(result.value, list) else [result.value]
        for center, g in zip(request.nodes, got):
            assert comparable(g) == oracle_parts(
                events, center, request.k, request.t
            ), (request, center)


@pytest.mark.parametrize("replicate", [False, True])
@pytest.mark.parametrize("checkpoint_entries", [0, 64])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=50), st.data())
def test_folded_state_equals_log_replay_on_the_covered_scope(
    checkpoint_entries, replicate, seed, data
):
    """What every k-hop and history plan reads — the loader's merged
    state — is the log's, node for node and edge dict for edge dict, for
    any partition subset: cold, exact-warm (the same ``t`` again) and
    near-seeded (just after it), with and without replication; and the
    planner's non-perturbing triage sorts the partitions exactly as the
    executing one then does."""
    events = random_history(steps=300, seed=seed, edge_attr_churn=True)
    tgi = small_tgi(
        events, replicate_boundary=replicate,
        checkpoint_entries=checkpoint_entries,
    )
    t1 = data.draw(st.integers(events[0].time + 20, events[-1].time - 8))
    for t in (t1, t1, t1 + data.draw(st.integers(1, 6))):
        span = tgi._span_at(t)
        pids = data.draw(st.sets(
            st.integers(0, span.num_pids - 1), min_size=1, max_size=4,
        ))
        warm, near, cold = triage(tgi, span, pids, t, replicate)
        path_groups, ekeys = tgi._snapshot_plan(
            span, t, pids=set(cold), include_aux=replicate
        )
        planned = [key for group in path_groups for key in group] + ekeys
        planned += [key for seed_ in near.values() for key in seed_[1]]

        extra = Counters()
        states = PartitionStates(tgi, span, t, replicate, extra)
        stage = states.stage(pids, "probe")
        keys = stage.keys() if stage is not None else []
        assert sorted(keys) == sorted(planned)
        assert (
            extra.checkpoint_hits, extra.checkpoint_near_hits,
            extra.checkpoint_misses,
        ) == (
            (len(warm), len(near), len(cold)) if checkpoint_entries
            else (0, 0, 0)
        )
        states.settle(tgi.executor.fetch(keys).values)
        assert states.loaded == pids and not states.dropped
        covered = states.covered
        assert covered == span.scope_of(pids, replicate)

        g = Graph.replay(events, until=t)
        nodes = states.merged.nodes
        assert set(nodes) == {n for n in covered if g.has_node(n)}
        for n, state in nodes.items():
            assert dict(state.A) == g.node_attrs(n), (t, n)
            assert set(state.E) == g.neighbors(n), (t, n)
        assert {
            e: attrs for e, attrs in states.merged.edge_attrs.items() if attrs
        } == {
            e: attrs for e, attrs in g.attributed_edges().items()
            if e[0] in covered or e[1] in covered
        }, t


# -- fixtures for the counted tests --------------------------------------------

@pytest.fixture(scope="module")
def events():
    return generate_citation_events(
        CitationConfig(num_nodes=300, citations_per_node=4, seed=42)
    )


@pytest.fixture(scope="module")
def tmax(events):
    return events[-1].time


def build_tgi(events, **overrides):
    config = dict(
        events_per_timespan=1200, eventlist_size=150,
        micro_partition_size=16,
        cluster=ClusterConfig(num_machines=4),
    )
    config.update(overrides)
    tgi = TGI(TGIConfig(**config))
    tgi.build(events)
    return tgi


#: eight centers whose 2-hop neighborhoods at ``tmax`` overlap but differ
#: (they touch 19, 14, 17, 12, 8, 5, 14 and 9 of the span's 19 partitions)
CENTERS = (1, 25, 28, 207, 221, 235, 242, 249)


def plan_keys(tgi, center, t, k=2):
    """What one center's Algorithm-4 plan fetches when it runs alone:
    ``(micro-path keys, all keys)``."""
    plan, _finalize, _extra = tgi._khops_plan([center], t, k)
    stages = tgi.executor.execute(plan).stages
    micro = {
        key for stage in stages for group in stage.groups
        if group.role == "micro-path" for key in group.keys
    }
    return micro, {key for stage in stages for key in stage.keys()}


# -- (b) counts ----------------------------------------------------------------

def test_each_partition_is_replayed_once_per_execution(
    events, tmax, monkeypatch
):
    tgi = build_tgi(events)
    per_plan = [plan_keys(tgi, c, tmax)[0] for c in CENTERS]
    distinct = set().union(*per_plan)
    loaded = sum(len({key[3] for key in micro}) for micro in per_plan)
    partitions = len({key[3] for key in distinct})
    assert loaded > partitions  # the neighborhoods do overlap

    session = GraphSession.from_index(tgi)
    requests = [khop(c, tmax) for c in CENTERS]
    loads = counted(monkeypatch, PartialState, "load_delta")
    gc.collect()  # earlier tests' garbage is not this one's business
    gc.disable()  # a share kept alive by a cycle must show below
    try:
        first = session.execute_batch(requests)
        # once per distinct micro-path row the batch fetched — not once
        # per plan that declared it
        assert loads[0] == len(distinct)
        # a partition is either replayed or read from the share
        skipped = sum(r.stats.coalesced_replays for r in first)
        assert skipped + partitions == loaded
        # the share is one execution's: nothing references it afterwards
        # (no attribute, no uncollected cycle) ...
        for owner in (session, tgi, tgi.executor):
            assert not any(
                isinstance(value, ReplayShare)
                for value in vars(owner).values()
            )
        assert not any(
            isinstance(obj, ReplayShare) for obj in gc.get_objects()
        )
        # ... so the next execution replays everything again
        second = session.execute_batch(requests)
        assert loads[0] == 2 * len(distinct)
        assert [r.stats.coalesced_replays for r in second] == [
            r.stats.coalesced_replays for r in first
        ]
    finally:
        gc.enable()


def test_a_single_plan_reads_nothing_from_the_share(events, tmax):
    session = GraphSession.from_index(build_tgi(events))
    assert session.execute(khop(221, tmax)).stats.coalesced_replays == 0
    # a multi-center request on the shared frontier is one plan too
    many = QueryRequest(
        kind="khop", t=tmax, nodes=CENTERS, k=2, algorithm="khop"
    )
    assert session.execute(many).stats.coalesced_replays == 0
    # two different ones in one batch are two plans: each may read what
    # the other replayed first, and a duplicate does no work
    head = QueryRequest(
        kind="khop", t=tmax, nodes=CENTERS[:5], k=2, algorithm="khop"
    )
    tail = QueryRequest(
        kind="khop", t=tmax, nodes=CENTERS[3:], k=2, algorithm="khop"
    )
    out = session.execute_batch([head, tail, tail])
    assert out[0].stats.coalesced_replays + out[1].stats.coalesced_replays > 0
    assert out[2].stats.coalesced_replays == 0


# -- (c) stats unmoved ---------------------------------------------------------

#: Per slot ``(requests, bytes_read, rounds, merged_rounds, coalesced_hits,
#: coalesced_bytes_saved, sim_time_ms, overlap_saved_ms, predicted_ms)`` of
#: the eight-center batch, recorded on the commit before the share existed.
PINNED_BATCH = [
    (8.27381, 3377.983333, 3, 3, 10, 4631, 18.798496, -5.079766, 13.858496),
    (5.107143, 2235.733333, 1, 1, 26, 11409, 15.838359, -14.538496, 0.0),
    (6.87381, 2964.183333, 1, 1, 32, 14428, 18.798496, -17.710059, 0.0),
    (4.635714, 1956.392857, 1, 1, 22, 9608, 18.798496, -18.094941, 0.0),
    (2.77381, 1389.0, 0, 0, 16, 8525, 15.838359, -15.838359, 0.0),
    (1.621429, 864.057143, 1, 1, 8, 4731, 15.838359, -14.807051, 0.0),
    (5.040476, 2288.266667, 1, 1, 26, 12513, 18.798496, -17.841895, 0.0),
    (3.67381, 1644.383333, 0, 0, 18, 9248, 18.798496, -18.798496, 0.0),
]
#: The same fields for ``khop(221, tmax)`` executed alone, after the batch
#: (its price does not depend on the batch having run).
PINNED_SINGLE = (16, 8525, 3, 0, 0, 0, 8.710254, 0.0, 13.858496)

TRAFFIC = (
    "requests", "bytes_read", "rounds", "merged_rounds", "coalesced_hits",
    "coalesced_bytes_saved", "sim_time_ms", "overlap_saved_ms",
    "predicted_ms",
)
#: every other pre-existing counter reads 0 on an uncached, fault-free run
QUIET = sorted(
    set(COUNTER_NAMES) - set(TRAFFIC)
    - {"coalesced_replays", "degraded_partitions"}
)


def traffic(stats):
    return tuple(round(getattr(stats, name), 6) for name in TRAFFIC)


def test_existing_stats_are_where_they_were(events, tmax):
    tgi = build_tgi(events)
    session = GraphSession.from_index(tgi)
    batch = session.execute_batch([khop(c, tmax) for c in CENTERS])
    single = session.execute(khop(221, tmax))
    assert [traffic(r.stats) for r in batch] == PINNED_BATCH
    assert traffic(single.stats) == PINNED_SINGLE
    for result in batch + [single]:
        assert result.stats.algorithm == "khop"
        assert result.stats.degraded_partitions == []
        assert [getattr(result.stats, name) for name in QUIET] == (
            [0] * len(QUIET)
        )
    # fair shares still sum to the deduplicated totals
    union = set().union(*(plan_keys(tgi, c, tmax)[1] for c in CENTERS))
    dedup = tgi.executor.fetch(sorted(union)).stats
    assert sum(r.stats.requests for r in batch) == pytest.approx(
        dedup.num_requests
    )
    assert sum(r.stats.bytes_read for r in batch) == pytest.approx(
        dedup.bytes_read
    )


# -- (d) isolation -------------------------------------------------------------

def test_a_mutated_result_changes_no_batchmate_and_no_later_query():
    history = random_history(
        steps=300, seed=3, edge_attr_churn=True, bare_edges=True
    )
    session = GraphSession.from_index(small_tgi(history))
    t = history[-1].time
    alive = sorted(session.execute(
        QueryRequest(kind="snapshot", t=t)
    ).value.nodes())[:4]
    requests = [khop(c, t) for c in alive] + [khop(alive[0], t)]
    clean = [graph_parts(r.value) for r in session.execute_batch(requests)]
    batch = [r.value for r in session.execute_batch(requests)]
    victim = batch[0]
    for n in victim.nodes():
        victim.node_attrs(n)["rogue"] = True
    edges = list(victim.edges())
    assert 0 < len(victim.attributed_edges()) < len(edges)  # some are bare
    for eid in edges:
        victim.edge_attrs(*eid)["rogue"] = True
    assert all(attrs["rogue"] for attrs in victim.attributed_edges().values())
    assert len(victim.attributed_edges()) == len(edges)
    victim.add_node(10**6, {"rogue": True})
    victim.add_edge(10**6, alive[0])
    assert [graph_parts(g) for g in batch[1:]] == clean[1:]
    again = session.execute_batch(requests)
    assert [graph_parts(r.value) for r in again] == clean


# -- (e) degraded --------------------------------------------------------------

def test_a_partition_one_plan_lost_stays_lost_for_it(events, tmax):
    """Machine 1 is down for hop 1's window only (r=1, one attempt).
    Center 1 reaches partitions 0 and 17 — both on machine 1 — in hop 1
    and loses them; center 12 reaches them in hop 2, after the machine
    is back, and folds them into the shared state *before* the victims
    finalize (it sits first in the batch)."""
    tgi = build_tgi(
        events, cluster=ClusterConfig(num_machines=6, replication=1)
    )
    span = tgi._span_at(tmax)
    lost = {0, 17}

    def stage_pids(center):
        plan, _finalize, _extra = tgi._khops_plan([center], tmax, 2)
        return [
            {key[3] for key in stage.keys()}
            for stage in tgi.executor.execute(plan).stages
        ]

    # the schedule's premise, from fault-free routing
    victim_stages, mate_stages = stage_pids(1), stage_pids(12)
    assert lost <= victim_stages[1]
    assert lost <= mate_stages[2]
    assert not lost & (mate_stages[0] | mate_stages[1])

    session = GraphSession.from_index(tgi)
    requests = [
        khop(12, tmax), khop(15, tmax),
        khop(1, tmax), khop(1, tmax, allow_partial=True),
    ]
    baseline = session.execute_batch(requests)
    inject_faults(tgi.cluster, FaultSchedule(
        crashes=(CrashWindow(1, 3.0, 12.0),), seed=5,
    ))
    tgi.cluster.enable_resilience(
        ResiliencePolicy(max_attempts=1, hedge=False)
    )
    try:
        results = session.execute_batch(requests, capture_errors=True)
    finally:
        tgi.cluster.disable_resilience()
        clear_faults(tgi.cluster)
    mate, other, strict, partial = results
    labels = sorted(f"ts{span.tsid}:p{pid}" for pid in lost)
    # the strict victim fails typed, naming what it lost
    assert isinstance(strict.error, PartitionUnavailable)
    assert sorted(strict.error.partitions) == labels
    # the partial victim names it and holds nothing of it, although the
    # share held both partitions by the time it finalized
    assert partial.error is None
    assert partial.degraded["partitions"] == labels
    owned = set().union(*(span.members[pid] for pid in lost))
    assert owned & set(baseline[3].value.nodes())
    assert not owned & set(partial.value.nodes())
    assert set(partial.value.nodes()) < set(baseline[3].value.nodes())
    # batchmates are whole, and the mate did fetch what the victims lost
    for got, want in zip((mate, other), baseline):
        assert got.error is None and got.degraded is None
        assert graph_parts(got.value) == graph_parts(want.value)
    assert owned & set(mate.value.nodes())
