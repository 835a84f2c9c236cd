"""Pricing off the card table is the records' price, bit for bit.

``Cluster.price`` sums the routed rows' cards without building a
request record; ``plan_records`` builds the records ``multiget``'s first
attempt issues.  Over drawn clusters (``m`` machines, replication ``r``,
1-3 clients), faults evaluated at the cluster clock (a failed machine, a
crash window with the clock inside or outside it, a latency spike) and
writes that move cards (overwrites with larger and smaller values,
inserts between existing keys, deletes), the two agree exactly: the same
float, or the same typed error; and every card table equals one rebuilt
from its node's rows.  At r > 1 the routing itself is held to a
reference copy of the holder-list branch it replaced.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import KeyNotFound, StorageError
from repro.faults import CrashWindow, FaultSchedule, LatencySpike, inject_faults
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.cost import CostModel, RequestRecord, simulate_plan
from repro.kvstore.node import StorageNode
from repro.kvstore.resilience import OPEN, ResiliencePolicy
from tests.helpers import counted

#: The cluster clock: inside the drawn crash window, before it, after it.
CLOCKS = (50.0, 10.0, 120.0)


def key(i, pid):
    return (i % 3, i % 4, ("S", i // 5), pid)


@st.composite
def scenarios(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 24))
    return dict(
        m=m,
        r=draw(st.integers(1, m)),
        clients=draw(st.sampled_from((1, 2, 3))),
        compress=draw(st.booleans()),
        apply=draw(st.booleans()),
        sizes=draw(st.lists(st.integers(0, 3000), min_size=n, max_size=n)),
        writes=draw(st.lists(
            st.tuples(
                st.sampled_from(("overwrite", "insert", "delete")),
                st.integers(0, n - 1),
                st.integers(0, 3000),
            ),
            max_size=8,
        )),
        failed=draw(st.none() | st.integers(0, m - 1)),
        fail_first=draw(st.booleans()),
        crash=draw(st.none() | st.integers(0, m - 1)),
        spike=draw(st.none() | st.integers(0, m - 1)),
        clock=draw(st.sampled_from(CLOCKS)),
        asked=draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)),
        missing=draw(st.booleans()),
    )


def build(sc):
    model = CostModel()
    if sc["apply"]:
        model = model.with_apply()
    cluster = Cluster(ClusterConfig(
        num_machines=sc["m"], replication=sc["r"], compress=sc["compress"],
        cost_model=model,
    ))
    keys = [key(i, 2 * i) for i in range(len(sc["sizes"]))]
    for k, size in zip(keys, sc["sizes"]):
        cluster.put(k, "x" * size)
    cluster.price(keys)  # every card table is built before the writes
    if sc["failed"] is not None and sc["fail_first"]:
        cluster.fail_machine(sc["failed"])  # the writes leave it stale
    for op, i, size in sc["writes"]:
        if op == "overwrite":
            cluster.put(keys[i], "y" * size)
        elif op == "insert":
            # lands between two existing rows of one placement, so the
            # rank of every later row on its machine moves
            cluster.put(key(i, 2 * i + 1), "z" * size)
        else:
            cluster.delete(keys[i])
    if sc["failed"] is not None and not sc["fail_first"]:
        cluster.fail_machine(sc["failed"])
    inject_faults(cluster, FaultSchedule(
        crashes=(
            () if sc["crash"] is None
            else (CrashWindow(sc["crash"], 40.0, 80.0),)
        ),
        latency=(
            () if sc["spike"] is None
            else (LatencySpike(sc["spike"], 2.5, 0.0, 100.0),)
        ),
    ))
    cluster.set_clock(sc["clock"])
    asked = [keys[i] for i in sc["asked"]]
    if sc["missing"]:
        asked.append(key(99, 0))
    return cluster, asked


def fresh_cards(node):
    """The card table rebuilt from the node's rows as they are now."""
    return {
        key: (rank, value.stored_size, value.raw_size, value.compressed)
        for rank, (key, value) in enumerate(node.items())
    }


def outcome(fn, *args, **kwargs):
    """``fn``'s value, or its typed error and message."""
    try:
        return fn(*args, **kwargs)
    except StorageError as exc:
        return type(exc), str(exc)


@settings(max_examples=250, deadline=None)
@given(scenarios())
def test_price_is_the_records_price(sc):
    cluster, asked = build(sc)
    clients, model = sc["clients"], cluster.config.cost_model
    records = outcome(cluster.plan_records, asked, clients)
    # the writes dropped or refreshed every card they moved
    for node in cluster.machines:
        assert node.cards() == fresh_cards(node)
    price = outcome(cluster.price, asked, clients)
    if not isinstance(records, list):
        assert price == records  # the same typed error, word for word
        return
    if model.costs_apply:
        assert price == simulate_plan(records, model) + sum(
            model.estimated_apply_time(r.raw_bytes) for r in records
        )
    else:
        assert price == simulate_plan(records, model)
    # what was priced is what the first attempt issues, at the clock
    _, stats = cluster.multiget(asked, clients)
    assert stats.requests == records
    assert stats.sim_time_ms == simulate_plan(records, model)


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_warm_price_builds_no_record_and_reads_no_row(sc):
    cluster, asked = build(sc)
    first = outcome(cluster.price, asked, sc["clients"])
    with pytest.MonkeyPatch.context() as mp:
        built = counted(mp, RequestRecord, "__init__")
        gets = counted(mp, StorageNode, "get")
        ranks = counted(mp, StorageNode, "rank")
        assert outcome(cluster.price, asked, sc["clients"]) == first
    assert (built[0], gets[0], ranks[0]) == (0, 0, 0)


def reference_route(cluster, keys, now, avoid=None, breakers=False):
    """``Cluster._route`` as it chose among several replicas with a
    holder list and a ``min`` by load: the routing the one-pass branch
    must reproduce, key for key."""
    plen = cluster._placement_len
    down = cluster._down_at(now)
    tables = [machine.cards() for machine in cluster.machines]
    allows = (
        cluster._breaker_allows if breakers and cluster._breakers else None
    )
    groups = [[] for _ in tables]

    def load(holder):
        return len(groups[holder[0]])

    blocked = []
    for k in keys:
        replicas = cluster.replicas_for(k[:plen])
        live = [m for m in replicas if m not in down] if down else replicas
        holding = [
            (m, card) for m in live
            for card in (tables[m].get(k),) if card is not None
        ]
        if not holding:
            if len(live) == len(replicas):
                raise KeyNotFound(f"key {k!r} not on any live replica")
            blocked.append(k)
            continue
        if allows is not None:
            holding = [h for h in holding if allows(h[0], now)]
            if not holding:
                blocked.append(k)
                continue
        if avoid:
            failed_on = avoid.get(k)
            if failed_on:
                holding = [
                    h for h in holding if h[0] not in failed_on
                ] or holding
        best, card = (
            holding[0] if len(holding) == 1 else min(holding, key=load)
        )
        groups[best].append((card, k))
    return groups, blocked


@st.composite
def routings(draw):
    r = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(r, 5))
    n = draw(st.integers(1, 30))
    machines = st.integers(0, m - 1)
    return dict(
        m=m, r=r, n=n,
        # down while some keys are written (a stale replica after
        # recovery), and down while routing
        stale=draw(st.sets(machines, max_size=m - 1)),
        stale_from=draw(st.integers(0, n)),
        down=draw(st.sets(machines, max_size=m)),
        # open breakers, each opened at a drawn instant: before the
        # cooldown (refuses) or past it (admits one probe)
        breakers=draw(st.dictionaries(
            machines, st.sampled_from((0.0, 90.0)), max_size=m,
        )),
        avoid=draw(st.dictionaries(
            st.integers(0, n), st.sets(machines, max_size=3), max_size=n,
        )),
        asked=draw(st.lists(st.integers(0, n), max_size=2 * n)),
    )


def build_routing(sc):
    cluster = Cluster(ClusterConfig(num_machines=sc["m"], replication=sc["r"]))
    for i in range(sc["n"]):  # key n is never written
        if i == sc["stale_from"]:
            for machine in sc["stale"]:
                cluster.fail_machine(machine)
        cluster.put(key(i, i), "x" * (i % 7))
    for machine in sc["stale"]:
        cluster.recover_machine(machine)
    for machine in sc["down"]:
        cluster.fail_machine(machine)
    cluster.enable_resilience(ResiliencePolicy(breaker_cooldown_ms=50.0))
    for machine, opened_at in sc["breakers"].items():
        breaker = cluster._breaker(machine)
        breaker.state, breaker.opened_at = OPEN, opened_at
    keys = [key(i, i) for i in sc["asked"]]
    avoid = {key(i, i): failed for i, failed in sc["avoid"].items()}
    return cluster, keys, avoid


@settings(max_examples=300, deadline=None)
@given(routings(), st.booleans())
def test_multi_replica_routing_is_the_reference_routing(sc, breakers):
    # one cluster each: asking a breaker past its cooldown changes it
    got_cluster, keys, avoid = build_routing(sc)
    want_cluster, _, _ = build_routing(sc)
    now = 100.0
    got = outcome(got_cluster._route, keys, now, avoid, breakers)
    want = outcome(reference_route, want_cluster, keys, now, avoid, breakers)
    assert got == want
    assert {
        m: (b.state, b.opened_at) for m, b in got_cluster._breakers.items()
    } == {
        m: (b.state, b.opened_at) for m, b in want_cluster._breakers.items()
    }
