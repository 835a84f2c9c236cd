"""Copy-on-write graphs, held to an eager deep-copy reference.

``Graph.copy`` shares every node's neighbor set and attribute map with
its source, and a graph copies a node's containers on its first write
to that node.  Here every graph of a chain of copies is shadowed by a
reference that was copied eagerly (every container fresh, as ``copy``
did before it shared them) and receives the same writes; after each
write, every graph of the chain must still equal its own reference —
the one written to, and every graph that shares containers with it.
Induced subgraphs share their members' containers too, and are held to
the same rule against an induced subgraph built edge by edge."""

import pickle

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import GraphSession, QueryRequest
from repro.deltas.columnar import ColumnarEventList, pack_eventlist
from repro.errors import GraphError
from repro.graph.events import Event, EventKind
from repro.graph.static import Graph
from repro.index.tgi import TGI, TGIConfig
from repro.storage import load_index, save_index
from tests.helpers import random_history

_IDS = st.integers(0, 7)
_STR_IDS = st.sampled_from([f"n{i}" for i in range(8)])
_KEYS = st.sampled_from(["w", "label"])
_ATTRS = st.dictionaries(_KEYS, st.integers(0, 3), max_size=2)


def eager_copy(g):
    """The reference copy: nothing shared with ``g``."""
    ref = Graph(directed=g.directed)
    ref._nodes = {n: dict(a) for n, a in g._nodes.items()}
    ref._adj = {n: set(s) for n, s in g._adj.items()}
    ref._num_edges = g._num_edges
    ref._edge_attrs = {e: dict(a) for e, a in g._edge_attrs.items() if a}
    return ref


def assert_same(got, want):
    """Equal in everything a graph holds, read without owning a node."""
    assert got.directed == want.directed
    assert got._nodes == want._nodes
    assert got._adj == want._adj
    assert got.attributed_edges() == want.attributed_edges()
    assert got.num_edges == want.num_edges


def assert_owned_containers_are_private(chain):
    """A node a graph owns has containers no other graph holds."""
    held = {}
    for i, g in enumerate(chain):
        for table in (g._nodes, g._adj):
            for container in table.values():
                held.setdefault(id(container), set()).add(i)
    for i, g in enumerate(chain):
        owned = g._nodes.keys() if g._owned is None else g._owned
        for n in owned & g._nodes.keys():
            assert held[id(g._nodes[n])] == {i}
            assert held[id(g._adj[n])] == {i}


@st.composite
def graphs(draw, ids=_IDS):
    """Directed or not, with self-loops and node and edge attributes."""
    g = Graph(directed=draw(st.booleans()))
    for n in draw(st.lists(ids, max_size=8, unique=True)):
        g.add_node(n, draw(_ATTRS))
    alive = sorted(g.nodes())
    if alive:
        for _ in range(draw(st.integers(0, 14))):
            g.add_edge(
                draw(st.sampled_from(alive)), draw(st.sampled_from(alive)),
                draw(_ATTRS),
            )
    return g


@st.composite
def events(draw, time, ids=_IDS):
    """One event of any kind, on ids that may or may not be nodes."""
    kind = draw(st.sampled_from(list(EventKind)))
    edge = kind in (EventKind.EDGE_ADD, EventKind.EDGE_DELETE,
                    EventKind.EDGE_ATTR_SET, EventKind.EDGE_ATTR_DEL)
    attr = kind in (EventKind.NODE_ATTR_SET, EventKind.NODE_ATTR_DEL,
                    EventKind.EDGE_ATTR_SET, EventKind.EDGE_ATTR_DEL)
    if kind in (EventKind.NODE_ADD, EventKind.EDGE_ADD):
        value = draw(st.none() | _ATTRS)
    elif kind in (EventKind.NODE_ATTR_SET, EventKind.EDGE_ATTR_SET):
        value = draw(st.integers(0, 3))
    else:
        value = None
    return Event(
        time, time, kind, draw(ids),
        other=draw(ids) if edge else None,
        key=draw(_KEYS) if attr else None,
        value=value,
    )


@st.composite
def writes(draw, ids=_IDS):
    """One write: ``(op, args)``, applied alike to a graph and its
    reference."""
    op = draw(st.sampled_from([
        "copy", "add_node", "add_edge", "remove_node", "remove_edge",
        "apply_event", "apply_columnar", "neighbors", "node_attrs",
        "edge_attrs",
    ]))
    if op == "copy":
        return op, ()
    if op == "add_node":
        return op, (draw(ids), draw(_ATTRS))
    if op == "add_edge":
        return op, (draw(ids), draw(ids), draw(_ATTRS))
    if op in ("remove_node", "neighbors"):
        return op, (draw(ids),)
    if op == "remove_edge":
        return op, (draw(ids), draw(ids))
    if op == "apply_event":
        return op, (draw(events(1, ids)),)
    if op == "apply_columnar":
        count = draw(st.integers(1, 6))
        evs = tuple(draw(events(t, ids)) for t in range(1, count + 1))
        return op, (evs,)
    if op == "node_attrs":
        return op, (draw(ids), draw(_KEYS), draw(st.integers(0, 3)))
    return op, (draw(ids), draw(ids), draw(_KEYS), draw(st.integers(0, 3)))


def write(g, op, args):
    """Apply one write to ``g``; the :class:`GraphError` it raised, or
    ``None``."""
    try:
        if op == "apply_event":
            g.apply_event(args[0])
        elif op == "apply_columnar":
            evs = args[0]
            g.apply_columnar([ColumnarEventList(
                pack_eventlist(0, evs[-1].time, evs)
            )])
        elif op == "neighbors":
            # toggle a self-loop through the handed-out set (symmetric,
            # so later writes stay well-defined; the edge count is not
            # told, on either graph)
            nbrs = g.neighbors(args[0])
            nbrs.symmetric_difference_update({args[0]})
        elif op == "node_attrs":
            n, key, value = args
            g.node_attrs(n)[key] = value
        elif op == "edge_attrs":
            u, v, key, value = args
            g.edge_attrs(u, v)[key] = value
        else:
            getattr(g, op)(*args)
    except GraphError as exc:
        return type(exc)
    return None


@given(
    source=graphs(),
    script=st.lists(
        st.tuples(st.integers(0, 7), writes()), min_size=1, max_size=14
    ),
)
@settings(max_examples=300, deadline=None)
def test_every_graph_of_a_copy_chain_equals_its_eager_reference(
    source, script
):
    chain = [source, source.copy()]  # sharing from the first write on
    refs = [eager_copy(source), eager_copy(source)]
    for pick, (op, args) in script:
        i = pick % len(chain)
        if op == "copy":
            chain.append(chain[i].copy())
            refs.append(eager_copy(refs[i]))
        else:
            assert write(chain[i], op, args) == write(refs[i], op, args)
        for got, want in zip(chain, refs):
            assert_same(got, want)
        assert_owned_containers_are_private(chain)


@given(source=graphs(), node=_IDS, key=_KEYS)
@settings(max_examples=100, deadline=None)
def test_copies_of_copies_and_second_copies_stay_apart(source, node, key):
    """The three chain shapes by name: a copy of a copy, a copy taken
    after a partial privatization, and a second copy of the source."""
    want = eager_copy(source)
    first = source.copy()
    of_first = first.copy()
    if first.has_node(node):
        first.node_attrs(node)[key] = "first"  # a partial privatization
        first.neighbors(node).add(node)
    after = first.copy()
    second = source.copy()
    after.add_node(100, {key: "after"})
    if after.has_node(node):
        after.node_attrs(node)[key] = "after"
        after.remove_node(node)
    second.apply_event(Event(1, 1, EventKind.NODE_DELETE, node))
    for g in (source, of_first):
        assert_same(g, want)
    assert not second.has_node(node)
    if first.has_node(node):
        assert first.node_attrs(node)[key] == "first"
    assert_owned_containers_are_private(
        [source, first, of_first, after, second]
    )


def test_a_copy_shares_every_node_until_its_first_write():
    g = Graph()
    for n in range(4):
        g.add_node(n, {"n": n})
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    dup = g.copy()
    assert all(dup._adj[n] is g._adj[n] for n in g.nodes())
    assert all(dup._nodes[n] is g._nodes[n] for n in g.nodes())
    dup.add_edge(0, 2)
    assert dup._adj[1] is g._adj[1] and dup._adj[3] is g._adj[3]
    assert dup._adj[0] is not g._adj[0] and dup._adj[2] is not g._adj[2]
    assert g.neighbors(0) == {1} and g.neighbors(2) == {3}
    # reads through the read-only views own nothing
    assert dup.adjacency()[1] is g.adjacency()[1]
    assert dup.degree(1) == 1 and dup.node_attr_maps()[1] is g._nodes[1]


def test_graphs_pickled_together_stay_apart_after_loading():
    g = Graph(directed=True)
    for n in range(3):
        g.add_node(n, {"n": n})
    g.add_edge(0, 1, {"w": 1})
    g.add_edge(1, 1)
    dup = g.copy()
    want = eager_copy(g)
    loaded, loaded_dup = pickle.loads(pickle.dumps([g, dup]))
    # pickle keeps the sharing ...
    assert loaded_dup._adj[0] is loaded._adj[0]
    # ... and the ownership that makes it safe
    loaded_dup.add_edge(0, 2)
    loaded_dup.node_attrs(1)["n"] = "rogue"
    loaded_dup.remove_node(1)
    assert_same(loaded, want)
    assert loaded_dup.has_edge(0, 2) and not loaded_dup.has_node(1)


class _PickledWithoutOwnership:
    """Pickles as a ``Graph`` whose state has no ``_owned`` slot — how
    a graph was pickled before ownership was recorded."""

    def __init__(self, g):
        self.g = g

    def __reduce__(self):
        _, slots = self.g.__reduce_ex__(2)[2]
        slots.pop("_owned", None)
        return object.__new__, (Graph,), (None, slots)


def test_a_graph_pickled_without_ownership_owns_every_node():
    g = Graph()
    g.add_node(0, {"a": 1})
    g.add_node(1)
    g.add_edge(0, 1)
    # a graph that owns every node pickles without the slot, as before
    # it existed (saved indexes keep their bytes); a copy does not
    assert b"_owned" not in pickle.dumps(g)
    assert b"_owned" in pickle.dumps(g.copy())
    loaded = pickle.loads(pickle.dumps(_PickledWithoutOwnership(g)))
    assert loaded._owned is None
    assert_same(loaded, g)
    nbrs = loaded._adj[0]
    loaded.neighbors(0).add(0)
    assert loaded._adj[0] is nbrs  # owned: written in place, not copied


# -- induced subgraphs ---------------------------------------------------------
# ``subgraph`` and ``khop_subgraph`` share every member's attribute map
# with the source, and the neighbor set of every member whose neighbors
# are all members; they are held to an induced subgraph built edge by
# edge, and then to the same copy-on-write rule as a copy chain.

def hops_from(g, root, k):
    """The nodes within ``k`` hops of ``root``, by ``k`` scans of the
    edge list (out-edges when directed)."""
    reached = {root}
    for _ in range(k):
        reached |= {v for u, v in g.edges() if u in reached} | (
            set() if g.directed
            else {u for u, v in g.edges() if v in reached}
        )
    return reached


def induced_reference(g, keep):
    """The subgraph of ``g`` induced on ``keep``, built node by node and
    edge by edge, every container fresh."""
    want = Graph(directed=g.directed)
    for n in keep:
        want.add_node(n, g.node_attr_maps()[n])
    attrs = g.attributed_edges()
    for u, v in g.edges():
        if u in keep and v in keep:
            want.add_edge(u, v, attrs.get((u, v)))
    return want


@st.composite
def induced_cases(draw):
    """``(ids, source, how, arg)``: int or str ids; a k-hop of a member
    root (isolated or not; ``arg`` is ``(root, k)``) or a plain subgraph
    on drawn ids (``arg`` is the id list, missing ids included)."""
    ids = draw(st.sampled_from((_IDS, _STR_IDS)))
    g = draw(graphs(ids))
    lone = 8 if ids is _IDS else "n8"
    if draw(st.booleans()):
        g.add_node(lone, draw(_ATTRS))  # a node no edge touches
    if draw(st.booleans()):
        return ids, g, "subgraph", draw(st.lists(ids, max_size=8))
    root = draw(st.sampled_from(sorted(g.nodes()))) if len(g) else lone
    if root not in g:
        g.add_node(root)
    return ids, g, "khop", (root, draw(st.sampled_from((0, 1, 2, 3))))


@given(
    case=induced_cases(),
    picks=st.lists(st.integers(0, 7), max_size=12),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_induced_subgraphs_share_and_stay_apart(case, picks, data):
    ids, source, how, arg = case
    before = eager_copy(source)
    if how == "khop":
        root, k = arg
        keep = hops_from(source, root, k)
        assert source.khop_nodes(root, k) == keep
        sub = source.khop_subgraph(root, k)
        # every member closer than k hops shares its neighbor set
        inner = hops_from(source, root, k - 1) if k else set()
        assert all(sub._adj[n] is source._adj[n] for n in inner)
    else:
        keep = source._nodes.keys() & set(arg)
        sub = source.subgraph(arg)
    assert all(sub._nodes[n] is source._nodes[n] for n in keep)
    assert sub._owned == set() and source._owned == set()
    assert_same(sub, induced_reference(source, keep))
    assert_same(source, before)
    # every write, to the source or to the result (or to a copy of
    # either), shows in the graph written alone
    chain, refs = [source, sub], [before, eager_copy(sub)]
    for pick in picks:
        op, args = data.draw(writes(ids))
        i = pick % len(chain)
        if op == "copy":
            chain.append(chain[i].copy())
            refs.append(eager_copy(refs[i]))
        else:
            assert write(chain[i], op, args) == write(refs[i], op, args)
        for got, want in zip(chain, refs):
            assert_same(got, want)
        assert_owned_containers_are_private(chain)


def test_a_khop_subgraph_copies_only_its_outer_ring():
    g = Graph()
    for n in range(6):
        g.add_node(n, {"n": n})
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 4)):
        g.add_edge(u, v)  # node 5 is isolated
    sub = g.khop_subgraph(1, 2)
    assert set(sub.nodes()) == {0, 1, 2, 3} and sub.num_edges == 3
    assert all(sub._nodes[n] is g._nodes[n] for n in sub.nodes())
    assert all(sub._adj[n] is g._adj[n] for n in (0, 1, 2))
    assert sub._adj[3] == {2} and sub._adj[3] is not g._adj[3]
    # a walk that runs out of nodes first has no outer ring
    whole = g.khop_subgraph(0, 9)
    assert all(whole._adj[n] is g._adj[n] for n in range(5))
    # k = 0: the root alone, its set intersected
    assert g.khop_subgraph(1, 0)._adj == {1: set()}
    assert g.khop_subgraph(5, 2)._adj[5] is g._adj[5]
    # writes on either side privatize, and show on that side only
    sub.node_attrs(1)["n"] = "sub"
    sub.add_edge(0, 2)
    g.add_edge(1, 5)
    assert g._nodes[1] == {"n": 1} and not g.has_edge(0, 2)
    assert not sub.has_node(5) and sub.degree(1) == 2


def test_a_warm_snapshot_first_khop_leaves_a_saved_index_unchanged(tmp_path):
    """The k-hop shares the cached snapshot's containers and resets the
    snapshot's ownership; nothing of that reaches a saved file, which
    holds no reader state at all."""
    events = random_history(steps=300, seed=3)
    tgi = TGI(TGIConfig(
        events_per_timespan=150, eventlist_size=25, micro_partition_size=8,
        checkpoint_entries=16,
    ))
    tgi.build(events)
    session = GraphSession.from_index(tgi)
    t = events[-1].time
    truth = Graph.replay(events, until=t)
    center = max(sorted(truth.nodes()), key=truth.degree)
    request = QueryRequest(
        kind="khop", t=t, nodes=(center,), k=2, single=True,
        algorithm="snapshot-first",
    )
    session.execute(request)  # replays the snapshot and caches it
    (cached,) = (e.payload for e in tgi.checkpoints._entries.values())
    save_index(tgi, tmp_path / "before.hgs")
    warm = session.execute(request)
    assert warm.stats.checkpoint_hits == 1 and warm.stats.requests == 0
    assert warm.value._nodes[center] is cached._nodes[center]
    assert warm.value._adj[center] is cached._adj[center]
    assert warm.value == truth.khop_subgraph(center, 2)
    save_index(tgi, tmp_path / "after.hgs")
    assert (tmp_path / "after.hgs").read_bytes() == (
        tmp_path / "before.hgs"
    ).read_bytes()


def test_warm_delta_cache_reads_leave_a_saved_index_unchanged(tmp_path):
    """Rows a read decoded and cached (part-thawed micro-delta rows
    among them) and the delta cache's counters stay out of a saved
    file; the loaded index's delta cache is empty, counters at zero."""
    events = random_history(steps=300, seed=3)
    tgi = TGI(TGIConfig(
        events_per_timespan=150, eventlist_size=25, micro_partition_size=8,
        delta_cache_entries=256,
    ))
    tgi.build(events)
    save_index(tgi, tmp_path / "before.hgs")
    session = GraphSession.from_index(tgi)
    t = events[-1].time
    truth = Graph.replay(events, until=t)
    center = max(sorted(truth.nodes()), key=truth.degree)
    for _ in range(2):
        session.execute(QueryRequest(
            kind="khop", t=t, nodes=(center,), k=2, single=True,
            algorithm="khop",
        ))
        session.execute(QueryRequest(
            kind="node_histories", ts=t // 2, te=t, nodes=(center,),
        ))
    assert tgi.delta_cache.stats().hits > 0 and len(tgi.delta_cache) > 0
    save_index(tgi, tmp_path / "after.hgs")
    assert (tmp_path / "after.hgs").read_bytes() == (
        tmp_path / "before.hgs"
    ).read_bytes()
    loaded = load_index(tmp_path / "after.hgs")
    kept = loaded.delta_cache.stats()
    assert (kept.entries, kept.hits, kept.misses, kept.max_entries) == (
        0, 0, 0, 256
    )
