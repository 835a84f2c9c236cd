"""Copy-on-write graphs, held to an eager deep-copy reference.

``Graph.copy`` shares every node's neighbor set and attribute map with
its source, and a graph copies a node's containers on its first write
to that node.  Here every graph of a chain of copies is shadowed by a
reference that was copied eagerly (every container fresh, as ``copy``
did before it shared them) and receives the same writes; after each
write, every graph of the chain must still equal its own reference —
the one written to, and every graph that shares containers with it."""

import pickle

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.deltas.columnar import ColumnarEventList, pack_eventlist
from repro.errors import GraphError
from repro.graph.events import Event, EventKind
from repro.graph.static import Graph

_IDS = st.integers(0, 7)
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
def graphs(draw):
    """Directed or not, with self-loops and node and edge attributes."""
    g = Graph(directed=draw(st.booleans()))
    for n in draw(st.lists(_IDS, max_size=8, unique=True)):
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
def events(draw, time):
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
        time, time, kind, draw(_IDS),
        other=draw(_IDS) if edge else None,
        key=draw(_KEYS) if attr else None,
        value=value,
    )


@st.composite
def writes(draw):
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
        return op, (draw(_IDS), draw(_ATTRS))
    if op == "add_edge":
        return op, (draw(_IDS), draw(_IDS), draw(_ATTRS))
    if op in ("remove_node", "neighbors"):
        return op, (draw(_IDS),)
    if op == "remove_edge":
        return op, (draw(_IDS), draw(_IDS))
    if op == "apply_event":
        return op, (draw(events(1)),)
    if op == "apply_columnar":
        count = draw(st.integers(1, 6))
        return op, (tuple(draw(events(t)) for t in range(1, count + 1)),)
    if op == "node_attrs":
        return op, (draw(_IDS), draw(_KEYS), draw(st.integers(0, 3)))
    return op, (draw(_IDS), draw(_IDS), draw(_KEYS), draw(st.integers(0, 3)))


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
