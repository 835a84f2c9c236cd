"""Shared test utilities: clean random event streams and ground truths."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List

import hypothesis.strategies as st

from repro.graph.events import Event, EventBuilder
from repro.graph.static import Graph
from repro.index.tgi import TGI, TGIConfig
from repro.index.tgi.states import PartitionStates
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.cost import Counters, FetchStats
from repro.types import canonical_edge
from tests.oracle import ground_truth_history


def random_history(
    steps: int = 300,
    seed: int = 0,
    attr_churn: bool = True,
    deletions: bool = True,
    edge_attr_churn: bool = False,
    bare_edges: bool = False,
) -> List[Event]:
    """A random but *consistent* event stream: every event is applicable in
    strict mode (nodes exist before edges, edges removed before node
    deletion, etc.).  ``edge_attr_churn`` turns half of the attribute
    steps into ``EDGE_ATTR_SET`` / ``EDGE_ATTR_DEL`` on live edges and
    ``bare_edges`` adds every other edge without attributes (both off by
    default, which leaves every existing seed's stream as it was)."""
    rng = random.Random(seed)
    eb = EventBuilder()
    events: List[Event] = []
    alive: set = set()
    edges: set = set()
    attr_keys: dict = {}  # live edge -> its attribute keys, once churned
    next_node = 0
    t = 0
    for _ in range(steps):
        t += 1
        roll = rng.random()
        if roll < 0.30 or len(alive) < 4:
            events.append(eb.node_add(t, next_node, {"v": next_node % 5}))
            alive.add(next_node)
            next_node += 1
        elif roll < 0.70 and len(alive) >= 2:
            u, v = rng.sample(sorted(alive), 2)
            eid = canonical_edge(u, v)
            if eid not in edges:
                attrs = {"w": rng.randint(1, 9)}
                if bare_edges and len(events) % 2:
                    attrs = None
                    attr_keys[eid] = set()
                events.append(eb.edge_add(t, *eid, attrs))
                edges.add(eid)
        elif roll < 0.80 and deletions and edges:
            eid = rng.choice(sorted(edges))
            events.append(eb.edge_delete(t, *eid))
            edges.discard(eid)
            attr_keys.pop(eid, None)
        elif roll < 0.86 and deletions and len(alive) > 6:
            n = rng.choice(sorted(alive))
            for eid in [e for e in sorted(edges) if n in e]:
                events.append(eb.edge_delete(t, *eid))
                edges.discard(eid)
                attr_keys.pop(eid, None)
            events.append(eb.node_delete(t, n))
            alive.discard(n)
        elif edge_attr_churn and roll < 0.93 and edges:
            eid = rng.choice(sorted(edges))
            keys = attr_keys.setdefault(eid, {"w"})
            if keys and rng.random() < 0.4:
                key = rng.choice(sorted(keys))
                keys.discard(key)
                events.append(eb.edge_attr_del(t, *eid, key))
            else:
                key = rng.choice("pq")
                keys.add(key)
                events.append(
                    eb.edge_attr_set(t, *eid, key, rng.randint(0, 99))
                )
        elif attr_churn and alive:
            n = rng.choice(sorted(alive))
            events.append(eb.node_attr_set(t, n, "x", rng.randint(0, 99)))
    return events


#: Node ids of every kind a packed row's id table holds, next to plain
#: ints: beyond-int64 ints, strings, bools and floats.
MIXED_IDS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**63, -(2**63) - 1, 2**70]),
    st.text(max_size=3),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
)


def relabelled(events: List[Event]) -> List[Event]:
    """The same stream with every node id ``n`` renamed ``f"n{n}"``:
    string ids are stored as id-table rows and fall off the pure-id
    bisection prune."""
    def name(n):
        return None if n is None else f"n{n}"

    return [replace(ev, node=name(ev.node), other=name(ev.other))
            for ev in events]


def assert_history_equivalent(index, events, node, ts, te, compare_events=True):
    """Assert an index's node history matches the replay ground truth."""
    want_state, want_events = ground_truth_history(events, node, ts, te)
    got = index.get_node_history(node, ts, te)
    assert got.initial == want_state, (
        f"initial state mismatch for node {node}: {got.initial} != {want_state}"
    )
    if compare_events:
        assert list(got.events) == want_events, (
            f"event mismatch for node {node}"
        )
    else:
        from repro.index.interface import NodeHistory

        want = NodeHistory(node, ts, te, want_state, tuple(want_events))
        assert [s for _, s in got.versions()] == [
            s for _, s in want.versions()
        ], f"version-state mismatch for node {node}"


def run_each_alone(executor, plans, clients: int = 1):
    """The serial reference for ``execute_many``: each plan through
    ``executor.execute``, back to back.  Returns the per-plan results and
    their stats summed (clocks added, every round counted)."""
    results = [executor.execute(plan, clients) for plan in plans]
    total = FetchStats()
    for result in results:
        total.merge(result.stats)
    return results, total


def counted(monkeypatch, owner, name):
    """Rebind ``owner.name`` to a counting pass-through; returns the
    one-element call counter."""
    calls = [0]
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def graph_parts(g):
    """Everything a :class:`Graph` holds, as plain comparable containers,
    read without asking ``g`` for a writable map or set (audits run this
    over cached payloads, which must not take containers of their own)."""
    attributed = g.attributed_edges()
    attrs, adj = g.node_attr_maps(), g.adjacency()
    return (
        g.directed,
        {n: dict(attrs[n]) for n in g.nodes()},
        {n: set(adj[n]) for n in g.nodes()},
        {e: dict(attributed.get(e, ())) for e in g.edges()},
    )


def small_tgi(events, **overrides):
    """A many-span, many-partition TGI over a ``random_history``, with
    boundary replication on: a partition's primary+aux rows replay to the
    complete state of its scope (the self-containment invariant,
    ``repro.index.tgi.states``), so a cold recomputation is an oracle for
    every state whatever the fetch shape."""
    config = dict(
        events_per_timespan=150, eventlist_size=25, micro_partition_size=8,
        replicate_boundary=True, cluster=ClusterConfig(num_machines=3),
    )
    config.update(overrides)
    tgi = TGI(TGIConfig(**config))
    tgi.build(events)
    return tgi


def cold_partition_state(twin, tsid, pid, t, include_aux):
    """One partition's state at ``t``, fetched and replayed from the
    root on ``twin`` — an index with no checkpoint cache, so nothing is
    seeded, admitted or shared."""
    states = PartitionStates(
        twin, twin._spans[tsid], t, include_aux, Counters()
    )
    stage = states.stage({pid}, "audit")
    states.settle(twin.executor.fetch(stage.keys()).values)
    return states.merged


def audit_checkpoints(tgi, twin):
    """Assert that every payload in ``tgi.checkpoints`` still equals a
    cold recomputation on ``twin`` — an index over the same events built
    with the same layout but no checkpoint cache.  This is the invariant
    behind sharing payloads between readers: whatever the queries so far
    did with the values they were given, no admitted state has changed.
    Returns the number of payloads audited."""
    entries = dict(tgi.checkpoints._entries)
    for key, entry in entries.items():
        if key[0] == "snapshot":
            _tag, _tsid, t = key
            want = twin.get_snapshot(t)
            assert graph_parts(entry.payload) == graph_parts(want), key
        else:
            _tag, tsid, pid, t, include_aux = key
            state = cold_partition_state(twin, tsid, pid, t, include_aux)
            nodes, edge_attrs = entry.payload
            assert nodes == state.nodes, key
            assert edge_attrs == state.edge_attrs, key
    return len(entries)


def per_edge_graph(
    node_attrs, adjacency, edge_attrs=None, directed=False, explicit_edges=()
):
    """Node-centric parts materialized the way ``Delta.to_graph``,
    ``PartialState.to_graph`` and ``Graph.subgraph`` did before
    ``Graph.from_parts``: ``add_node`` per node, ``add_edge`` per
    explicit ``(u, v, attrs)`` edge, then one ``has_edge`` / ``add_edge``
    per edge-list entry.  The reference the bulk loader is held to."""
    edge_attrs = edge_attrs or {}
    g = Graph(directed=directed)
    for n, attrs in node_attrs.items():
        g.add_node(n, dict(attrs))
    for u, v, attrs in explicit_edges:
        if g.has_node(u) and g.has_node(v):
            g.add_edge(u, v, attrs)
    for n, nbrs in adjacency.items():
        for nbr in nbrs:
            if g.has_node(n) and g.has_node(nbr) and not g.has_edge(n, nbr):
                eid = canonical_edge(n, nbr, directed)
                g.add_edge(n, nbr, dict(edge_attrs.get(eid, ())))
    return g


# ----------------------------------------------------------------------
# reference key derivation (the per-query loops the TGI ran before its
# TimespanInfo key tables; kept as the oracle the tables are held to)
# ----------------------------------------------------------------------
def reference_snapshot_plan(tgi, span, t, pids=None, include_aux=False):
    """``TGI._snapshot_plan`` derived by scanning every pid list and
    hashing every key's ``sid``: the same ``(path_groups, ekeys)``."""
    from repro.index.tgi.layout import (
        TAG_AUX_EVENTLIST,
        TAG_AUX_SNAPSHOT,
        TAG_EVENTLIST,
        TAG_SNAPSHOT,
        delta_key,
        sid_of_pid,
    )

    ns = tgi.config.placement_groups
    leaf = max(
        [i for i, cp in enumerate(span.checkpoints) if cp <= t], default=0
    )
    path_groups = []
    for did in span.tree.path_to_leaf(leaf):
        group = []
        for pid in span.snapshot_pids.get(did, []):
            if pids is None or pid in pids:
                group.append(delta_key(
                    span.tsid, sid_of_pid(pid, ns), TAG_SNAPSHOT, did, pid
                ))
        if include_aux:
            for pid in span.aux_snapshot_pids.get(did, []):
                if pids is None or pid in pids:
                    group.append(delta_key(
                        span.tsid, sid_of_pid(pid, ns),
                        TAG_AUX_SNAPSHOT, did, pid,
                    ))
        path_groups.append(group)
    ekeys = []
    for j in range(leaf, len(span.eventlist_ranges)):
        if span.eventlist_ranges[j][0] >= t:
            break
        for pid in span.eventlist_pids.get(j, []):
            if pids is None or pid in pids:
                ekeys.append(delta_key(
                    span.tsid, sid_of_pid(pid, ns), TAG_EVENTLIST, j, pid
                ))
        if include_aux:
            for pid in span.aux_eventlist_pids.get(j, []):
                if pids is None or pid in pids:
                    ekeys.append(delta_key(
                        span.tsid, sid_of_pid(pid, ns),
                        TAG_AUX_EVENTLIST, j, pid,
                    ))
    return path_groups, ekeys


def reference_gap_keys(tgi, span, t0, t, pid=None, include_aux=False):
    """Eventlist keys carrying events in ``(t0, t]`` — every partition's
    (``pid=None``) or one partition's, as ``states.gap_eventlist_keys``
    selects them — by a linear scan of the scopes."""
    from repro.index.tgi.layout import (
        TAG_AUX_EVENTLIST,
        TAG_EVENTLIST,
        delta_key,
        sid_of_pid,
    )

    ns = tgi.config.placement_groups
    keys = []
    for j, (ts_j, te_j) in enumerate(span.eventlist_ranges):
        if te_j <= t0 or ts_j >= t:
            continue
        for tag, pid_lists in (
            (TAG_EVENTLIST, span.eventlist_pids),
            (TAG_AUX_EVENTLIST, span.aux_eventlist_pids),
        ):
            if tag == TAG_AUX_EVENTLIST and not (include_aux and pid is not None):
                continue
            for p in pid_lists.get(j, []):
                if pid is None or p == pid:
                    keys.append(
                        delta_key(span.tsid, sid_of_pid(p, ns), tag, j, p)
                    )
    return keys


def reference_pid_scope(span, pids, include_aux):
    """Nodes covered by ``pids`` by scanning ``node_pid``."""
    scope = {n for n, p in span.node_pid.items() if p in pids}
    if include_aux:
        for pid in pids:
            scope |= set(span.boundary.get(pid, frozenset()))
    return scope


def reference_expected_khop_pids(span, pid0, k, candidates=None, margin=1.5):
    """``repro.stats.model.expected_khop_pids`` as first written: the
    greedy growth re-sorts the remaining candidates for every pick.
    The oracle the scored selection is held to."""
    import math

    from repro.stats.model import KhopEstimate

    cand = (
        sorted(candidates) if candidates is not None
        else sorted(span.reachable_pids(pid0, k))
    )
    if pid0 not in cand:
        cand.append(pid0)
    total_nodes = max(1, span.nodes)
    p0 = span.partitions.get(pid0)
    d_first = (
        p0.avg_degree if p0 is not None and p0.nodes else span.avg_degree
    )
    d_later = max(span.avg_degree - 1.0, 1.0)
    frontier = 1.0
    reached = 1.0
    for hop in range(max(0, k)):
        d = max(d_first, 1.0) if hop == 0 else d_later
        frontier = frontier * d * max(0.0, 1.0 - reached / total_nodes)
        reached = min(reached + frontier, float(total_nodes))
    reached = min(reached * margin, float(total_nodes))
    expected = 0.0
    for pid in cand:
        part = span.partitions.get(pid)
        size = part.nodes if part is not None else 0
        if size <= 0:
            continue
        expected += 1.0 - (1.0 - size / total_nodes) ** reached
    count = min(len(cand), max(1, math.ceil(expected)))
    chosen = [pid0]
    chosen_set = {pid0}
    weight = {}
    for other, w in span.adjacent(pid0).items():
        if other in cand:
            weight[other] = weight.get(other, 0) + w
    remaining = [pid for pid in cand if pid != pid0]
    while len(chosen) < count and remaining:
        remaining.sort(
            key=lambda pid: (
                -weight.get(pid, 0),
                -(span.partitions[pid].nodes
                  if pid in span.partitions else 0),
                pid,
            )
        )
        pick = remaining.pop(0)
        chosen.append(pick)
        chosen_set.add(pick)
        for other, w in span.adjacent(pick).items():
            if other in cand and other not in chosen_set:
                weight[other] = weight.get(other, 0) + w
    return KhopEstimate(tuple(chosen), reached, len(cand))
