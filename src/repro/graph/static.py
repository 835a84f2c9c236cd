"""In-memory property graph: the materialized form of one snapshot.

``Graph`` is the object handed to user analysis code (TAF's ``Graph``
operator returns one).  It supports node/edge attributes, directed or
undirected semantics, event application/replay, and structural queries used
by the retrieval algorithms (neighbors, induced subgraphs, k-hop
neighborhoods).
"""

from __future__ import annotations

from typing import (
    Any, Dict, Iterable, Iterator, Mapping, Optional, Set, Tuple,
)

from repro.errors import EventError, GraphError
from repro.graph.events import Event, EventKind
from repro.types import AttrMap, EdgeId, NodeId, TimePoint, canonical_edge

# EventKind values as plain ints for the columnar bulk-apply kernel (the
# packed kinds column stores the raw uint8).
_K_NODE_ADD = int(EventKind.NODE_ADD)
_K_NODE_DELETE = int(EventKind.NODE_DELETE)
_K_EDGE_ADD = int(EventKind.EDGE_ADD)
_K_EDGE_DELETE = int(EventKind.EDGE_DELETE)
_K_NODE_ATTR_SET = int(EventKind.NODE_ATTR_SET)
_K_NODE_ATTR_DEL = int(EventKind.NODE_ATTR_DEL)
_K_EDGE_ATTR_SET = int(EventKind.EDGE_ATTR_SET)
_K_EDGE_ATTR_DEL = int(EventKind.EDGE_ATTR_DEL)


class Graph:
    """A static property graph (one snapshot of the evolving graph).

    Nodes carry attribute maps; edges carry attribute maps and are
    undirected by default (the paper's experiments use undirected graphs;
    direction is supported because the data model in Sec. 3.1 includes it).

    Representation invariant.  ``_adj`` maps every node to its neighbor
    set (out-neighbors when directed) and is the only record of which
    edges exist: undirected adjacency is symmetric, a self-loop is
    listed once, ``_num_edges`` is the count.  ``_edge_attrs`` is sparse
    — a subset of the edges keyed by canonical id, with a map only for
    an edge that has attributes or whose map :meth:`edge_attrs` handed
    out for writing; an absent entry and an empty one mean the same.

    Ownership rule (copy-on-write per node).  :meth:`copy` copies the
    three top-level maps and each edge attribute map, and shares every
    node's neighbor set and attribute map with its source.  An induced
    subgraph (:meth:`subgraph`, :meth:`khop_subgraph`) shares each
    member's attribute map the same way, and each member's neighbor set
    too unless the member may have a neighbor outside the result: that
    one gets a fresh set, intersected with the members.  ``_owned``
    records the nodes whose two containers this graph alone holds:
    ``None`` means all of them (a graph no copy or subgraph was ever
    taken of or from), and after either both graphs own nothing — the
    source's ownership is reset once the new graph's maps are built.
    Before it writes to a node's containers a graph takes its own
    copies of them unless it owns the node already (:meth:`_own`), so
    a write never shows in another graph; a node a graph creates is
    its own from the start.
    The writable accessors :meth:`neighbors` and :meth:`node_attrs` own
    the node before they hand its container out; readers that must not
    pay that go through :meth:`adjacency` and :meth:`node_attr_maps`.
    """

    __slots__ = (
        "directed", "_nodes", "_adj", "_num_edges", "_edge_attrs", "_owned",
    )

    def __init__(self, directed: bool = False) -> None:
        self.directed = directed
        self._nodes: Dict[NodeId, AttrMap] = {}
        self._adj: Dict[NodeId, Set[NodeId]] = {}
        self._num_edges = 0
        self._edge_attrs: Dict[EdgeId, AttrMap] = {}
        self._owned: Optional[Set[NodeId]] = None

    def __getstate__(self) -> Any:
        # a graph that owns every node pickles as it did before
        # ownership was recorded, so a saved index keeps its bytes
        state = {name: getattr(self, name) for name in self.__slots__}
        if self._owned is None:
            del state["_owned"]
        return None, state

    def __setstate__(self, state: Any) -> None:
        # a graph pickled without ownership shares nothing
        self._owned = None
        for name, value in state[1].items():
            setattr(self, name, value)

    def _own(self, node: NodeId) -> None:
        """Make ``node``'s containers this graph's own before a write
        (nothing to do when it owns them already)."""
        owned = self._owned
        if owned is not None and node not in owned:
            self._privatize(node)

    def _privatize(self, node: NodeId) -> None:
        """Copy a shared node's neighbor set and attribute map."""
        self._owned.add(node)
        self._adj[node] = set(self._adj[node])
        self._nodes[node] = dict(self._nodes[node])

    def _create(self, node: NodeId, attrs: AttrMap) -> None:
        """Add a node that is not in the graph, with fresh containers."""
        self._nodes[node] = attrs
        self._adj[node] = set()
        if self._owned is not None:
            self._owned.add(node)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, attrs: Optional[AttrMap] = None) -> None:
        """Add ``node``; re-adding an existing node resets its attributes
        (to a new map: the shared one is left alone)."""
        fresh = dict(attrs) if attrs else {}
        if node in self._nodes:
            self._nodes[node] = fresh
        else:
            self._create(node, fresh)

    @classmethod
    def from_parts(
        cls,
        node_attrs: Mapping[NodeId, Any],
        adjacency: Mapping[NodeId, Iterable[NodeId]],
        edge_attrs: Optional[Mapping[EdgeId, Any]] = None,
        directed: bool = False,
    ) -> "Graph":
        """Bulk-load a graph from node-centric parts: node and adjacency
        containers are filled directly, nothing is allocated per edge.

        ``node_attrs`` maps every node to its attributes (a dict or an
        iterable of pairs; copied).  ``adjacency`` maps nodes to their
        edge lists (out-neighbors when directed) and alone decides which
        edges exist: entries naming a node outside ``node_attrs`` are
        dangling and dropped by one set intersection per node, and an
        undirected edge listed by only one endpoint is still an edge
        (its mirror entry is added).  ``edge_attrs`` is read by
        canonical edge id (non-empty maps copied); it may cover more
        edges than the graph ends up with.  Equivalent to ``add_node``
        per node, then ``add_edge`` per not-yet-present edge-list entry.

        This is the loader for parts nobody proved symmetric: in-memory
        deltas (:meth:`Delta.to_graph
        <repro.deltas.base.Delta.to_graph>`, and so the baseline
        indexes), k-hop partial states (``PartialState.to_graph``) and
        TAF's induced graphs (``taf.node_t.induced_graph``).  A stored
        snapshot path loads through :meth:`Delta.load_snapshot
        <repro.deltas.base.Delta.load_snapshot>`, which shares
        :meth:`_assemble` and :meth:`_settle_edges` with this one and
        skips the mirror walk (and, on a whole path, the dangling drop).
        """
        g = cls._assemble(
            {n: dict(a) if a else {} for n, a in node_attrs.items()},
            adjacency,
            directed,
        )
        if not directed:
            adj = g._adj
            for u, nbrs in adj.items():
                for v in nbrs:
                    if u not in adj[v]:
                        adj[v].add(u)  # v != u: not the set being walked
        g._settle_edges(edge_attrs)
        return g

    @classmethod
    def _assemble(
        cls,
        nodes: Dict[NodeId, AttrMap],
        adjacency: Mapping[NodeId, Iterable[NodeId]],
        directed: bool,
        closed: bool = False,
    ) -> "Graph":
        """The bulk loaders' shared core: a graph over ``nodes`` (node
        id -> a fresh attribute map; the dict is taken over) whose
        neighbor sets are ``adjacency``'s edge lists less the entries
        naming no node of ``nodes`` — one set intersection per node; a
        node without an edge list gets an empty set.  A ``closed``
        adjacency is the caller's promise that every key and every
        entry already names a node of ``nodes`` (a whole stored snapshot
        path): each list becomes its set as it is, inserted in list
        order like the intersection, so the sets iterate alike.  Its
        edges are not settled yet: the caller runs :meth:`_settle_edges`
        once the adjacency is final."""
        g = cls(directed=directed)
        g._nodes = nodes
        if closed:
            adj = g._adj = dict(zip(adjacency, map(set, adjacency.values())))
        else:
            alive = set(nodes)
            adj = g._adj = {
                n: alive.intersection(nbrs)
                for n, nbrs in adjacency.items() if n in alive
            }
        if len(adj) != len(nodes):
            for n in nodes:
                adj.setdefault(n, set())
        return g

    def _settle_edges(self, source: Optional[Mapping[EdgeId, Any]]) -> None:
        """Count the edges the adjacency holds, then copy out of
        ``source`` the non-empty maps of those edges, walking whichever
        of the two is smaller."""
        adj, directed = self._adj, self.directed
        count = sum(map(len, adj.values()))
        if not directed:  # both endpoints list an edge, a self-loop once
            count += sum(map(set.__contains__, adj.values(), adj))
            count //= 2
        self._num_edges = count
        if source and len(source) <= count:
            self._edge_attrs = {
                e: dict(a) for e, a in source.items()
                if a and (directed or e[0] <= e[1])
                and e[1] in adj.get(e[0], ())
            }
        elif source:
            get = source.get
            self._edge_attrs = {
                e: dict(a) for e in self.edges() for a in (get(e),) if a
            }

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._nodes:
            raise GraphError(f"node {node} not in graph")
        adj, directed, edge_attrs = self._adj, self.directed, self._edge_attrs
        del self._nodes[node]
        out = adj.pop(node)  # its own containers are dropped, not written
        if directed:
            ins = [u for u, nbrs in adj.items() if node in nbrs]
            self._num_edges -= len(out) + len(ins)
        else:
            ins = [v for v in out if v != node]
            self._num_edges -= len(out)
        for u in ins:
            self._own(u)
            adj[u].discard(node)
        if edge_attrs:
            for v in out:
                edge_attrs.pop(canonical_edge(node, v, directed), None)
            for u in ins:
                edge_attrs.pop(canonical_edge(u, node, directed), None)

    def add_edge(
        self, u: NodeId, v: NodeId, attrs: Optional[AttrMap] = None
    ) -> None:
        """Add edge ``(u, v)``; both endpoints must already exist.
        Re-adding an existing edge resets its attributes."""
        if u not in self._nodes or v not in self._nodes:
            raise GraphError(f"edge ({u}, {v}) references a missing node")
        if v not in self._adj[u]:
            self._own(u)
            self._adj[u].add(v)
            if not self.directed:
                self._own(v)
                self._adj[v].add(u)
            self._num_edges += 1
        if attrs:
            self._edge_attrs[canonical_edge(u, v, self.directed)] = dict(attrs)
        elif self._edge_attrs:
            self._edge_attrs.pop(canonical_edge(u, v, self.directed), None)

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) not in graph")
        self._apply(_K_EDGE_DELETE, u, v, None)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def has_node(self, node: NodeId) -> bool:
        return node in self._nodes

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self._adj.get(u, ())

    def node_attrs(self, node: NodeId) -> AttrMap:
        """The node's attribute map, writable (so owned first)."""
        if node not in self._nodes:
            raise GraphError(f"node {node} not in graph")
        self._own(node)
        return self._nodes[node]

    def edge_attrs(self, u: NodeId, v: NodeId) -> AttrMap:
        """The edge's attribute map, writable: an attribute-less edge
        gets its (empty) map on first request, so code that only reads
        goes through :meth:`attributed_edges` instead."""
        eid = canonical_edge(u, v, self.directed)
        attrs = self._edge_attrs.get(eid)
        if attrs is None:
            if not self.has_edge(u, v):
                raise GraphError(f"edge ({u}, {v}) not in graph")
            attrs = self._edge_attrs[eid] = {}
        return attrs

    def attributed_edges(self) -> Dict[EdgeId, AttrMap]:
        """The edges that carry attributes, by canonical id, with their
        live maps (read-only by convention); every other edge has none."""
        return {e: a for e, a in self._edge_attrs.items() if a}

    def nodes(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def edges(self) -> Iterator[EdgeId]:
        """Canonical edge ids in adjacency order (smaller endpoint
        first when undirected)."""
        directed = self.directed
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if directed or u <= v:
                    yield (u, v)

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """Neighbor ids of ``node`` (out-neighbors when directed), as the
        graph's writable set (so owned first)."""
        if node not in self._adj:
            raise GraphError(f"node {node} not in graph")
        self._own(node)
        return self._adj[node]

    def adjacency(self) -> Mapping[NodeId, Set[NodeId]]:
        """Every node's live neighbor set, read-only: a set may be
        shared with copies of this graph."""
        return self._adj

    def node_attr_maps(self) -> Mapping[NodeId, AttrMap]:
        """Every node's live attribute map, read-only: a map may be
        shared with copies of this graph."""
        return self._nodes

    def degree(self, node: NodeId) -> int:
        try:
            return len(self._adj[node])
        except KeyError:
            raise GraphError(f"node {node} not in graph") from None

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self._nodes == other._nodes
            and self._adj == other._adj
            and self.attributed_edges() == other.attributed_edges()
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"<Graph {kind} n={self.num_nodes} m={self.num_edges}>"

    def copy(self) -> "Graph":
        """Copy-on-write copy: new top-level maps and edge attribute
        maps, every node's neighbor set and attribute map shared until
        either graph first writes to that node (see the class's
        ownership rule).  The one write to ``self`` is the reset of its
        ownership to nothing, made after the maps are copied and the
        same however often it is made, so concurrent copies of a graph
        no one writes are safe.  Attribute *values* are shared — the
        event replay treats them as immutable (replaced, never mutated
        in place), so a copy can never observe changes through them."""
        g = Graph(directed=self.directed)
        g._nodes = self._nodes.copy()
        g._adj = self._adj.copy()
        g._num_edges = self._num_edges
        g._edge_attrs = {
            e: dict(a) for e, a in self._edge_attrs.items() if a
        }
        g._owned = set()
        self._owned = set()
        return g

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------
    def apply_event(self, ev: Event, strict: bool = False) -> None:
        """Mutate the graph according to one atomic event.

        With ``strict=False`` (the default, matching how a store replays
        possibly-redundant deltas) inapplicable events are tolerated:
        re-adding an existing node keeps its attributes, deleting a missing
        edge is a no-op.  With ``strict=True`` such events raise
        :class:`EventError`.
        """
        if strict:
            problem = self._inapplicable(ev)
            if problem is not None:
                raise EventError(problem)
        self._apply(ev.kind, ev.node, ev.other, (ev.key, ev.value, None))

    def _inapplicable(self, ev: Event) -> Optional[str]:
        """What lenient replay would tolerate about ``ev`` on this graph
        as it stands (``None`` when it applies cleanly)."""
        kind, node, other, key = ev.kind, ev.node, ev.other, ev.key
        attrs = self._nodes.get(node)
        if kind == EventKind.NODE_ADD:
            return None if attrs is None else f"node {node} already exists"
        if kind in (EventKind.NODE_DELETE, EventKind.NODE_ATTR_SET):
            return f"node {node} does not exist" if attrs is None else None
        if kind == EventKind.NODE_ATTR_DEL:
            missing = attrs is None or key not in attrs
            return f"attribute {key} missing on {node}" if missing else None
        if kind == EventKind.EDGE_ADD:
            for endpoint in (node, other):
                if endpoint not in self._nodes:
                    return f"endpoint {endpoint} does not exist"
            exists = self.has_edge(node, other)
            return f"edge {ev.edge} already exists" if exists else None
        if not self.has_edge(node, other):
            return f"edge {ev.edge} does not exist"
        if kind == EventKind.EDGE_ATTR_DEL:
            eid = canonical_edge(node, other, self.directed)
            if key not in self._edge_attrs.get(eid, ()):
                return f"edge attribute {key} missing on {ev.edge}"
        return None

    def _apply(
        self, kind: int, node: Any, other: Any, entry: Optional[tuple]
    ) -> None:
        """Lenient application of one event given as its columns (``entry``
        is its ``(key, value, old)``): the kernel under ``apply_event``
        and ``apply_columnar``.  It owns a node before it writes to the
        node's containers (the ownership test inlined: this is the
        replay loop)."""
        nodes, adj, edge_attrs = self._nodes, self._adj, self._edge_attrs
        directed, owned = self.directed, self._owned
        key, value, _old = entry if entry is not None else (None, None, None)
        if kind == _K_EDGE_ADD:
            # auto-create endpoints: real traces (e.g. raw citation dumps)
            # reference nodes before their explicit creation records
            if node not in nodes:
                self._create(node, {})
            if other not in nodes:
                self._create(other, {})
            if other not in adj[node]:
                if owned is not None:
                    if node not in owned:
                        self._privatize(node)
                    if not directed and other not in owned:
                        self._privatize(other)
                adj[node].add(other)
                if not directed:
                    adj[other].add(node)
                self._num_edges += 1
                if value:
                    eid = canonical_edge(node, other, directed)
                    edge_attrs[eid] = dict(value)
        elif kind == _K_EDGE_DELETE:
            nbrs = adj.get(node)
            if nbrs is not None and other in nbrs:
                if owned is not None:
                    if node not in owned:
                        self._privatize(node)
                    if not directed and other not in owned:
                        self._privatize(other)
                adj[node].discard(other)
                if not directed:
                    adj[other].discard(node)
                self._num_edges -= 1
                if edge_attrs:
                    edge_attrs.pop(
                        canonical_edge(node, other, directed), None
                    )
        elif kind == _K_NODE_ADD:
            if node not in nodes:
                self._create(node, dict(value) if value else {})
        elif kind == _K_NODE_DELETE:
            if node in nodes:
                self.remove_node(node)
        elif kind == _K_NODE_ATTR_SET:
            if node not in nodes:
                self._create(node, {})
            elif owned is not None and node not in owned:
                self._privatize(node)
            nodes[node][key] = value
        elif kind == _K_NODE_ATTR_DEL:
            attrs = nodes.get(node)
            if attrs is not None and key in attrs:
                if owned is not None and node not in owned:
                    self._privatize(node)
                del nodes[node][key]
        elif kind == _K_EDGE_ATTR_SET:
            if other in adj.get(node, ()):
                eid = canonical_edge(node, other, directed)
                edge_attrs.setdefault(eid, {})[key] = value
        elif kind == _K_EDGE_ATTR_DEL:
            attrs = edge_attrs.get(canonical_edge(node, other, directed))
            if attrs is not None and key in attrs:
                del attrs[key]
        else:  # pragma: no cover - exhaustive over EventKind
            raise EventError(f"unknown event kind {kind!r}")

    def apply_events(self, events: Iterable[Event], strict: bool = False) -> None:
        for ev in events:
            self.apply_event(ev, strict=strict)

    def apply_columnar(
        self,
        eventlists: Any,
        until: Optional[TimePoint] = None,
        after: Optional[TimePoint] = None,
    ) -> None:
        """Bulk-apply columnar eventlists in global ``(time, seq)`` order.

        ``eventlists`` is a sequence of ``ColumnarEventList`` rows;
        replicated copies across lists (edge events are stored with both
        endpoints' partitions) are deduplicated by seq.  Replays straight
        off the packed columns with the same lenient semantics as
        ``apply_event(strict=False)``, without materializing ``Event``
        objects.  ``after`` skips events at or before that time — replay
        covers ``(after, until]``, which is how a snapshot seeded from an
        earlier materialized state advances over just the gap.
        """
        # imported lazily: repro.deltas.__init__ imports this module
        from repro.deltas.columnar import _NO_OTHER, merged_order

        cels = [el for el in eventlists if len(el)]
        if not cels:
            return
        windows, order = merged_order(cels, until=until, after=after)
        row = self._apply
        if order is None:
            for li, cel in enumerate(cels):
                lo, hi = windows[li]
                if hi <= lo:
                    continue
                kinds, ncol, ocol = cel._kinds, cel._nodes, cel._others
                get_side = cel._side_entries().get
                for i in range(lo, hi):
                    o = ocol[i]
                    row(kinds[i], ncol[i], None if o == _NO_OTHER else o,
                        get_side(i))
        else:
            cols = [
                (c._kinds, c._nodes, c._others, c._side_entries())
                for c in cels
            ]
            for li, i in order:
                kinds, ncol, ocol, side = cols[li]
                o = ocol[i]
                row(kinds[i], ncol[i], None if o == _NO_OTHER else o,
                    side.get(i))

    @classmethod
    def replay(
        cls,
        events: Iterable[Event],
        until: Optional[TimePoint] = None,
        directed: bool = False,
    ) -> "Graph":
        """Materialize the snapshot as of ``until`` by replaying ``events``.

        Events with ``time > until`` are ignored.  This is the ground-truth
        (*Log*) reconstruction every index implementation is tested against.
        """
        g = cls(directed=directed)
        for ev in events:
            if until is not None and ev.time > until:
                break
            g.apply_event(ev)
        return g

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """Induced subgraph on ``nodes`` (missing ids are ignored),
        copy-on-write like :meth:`copy`: every member's attribute map
        is shared with this graph, and every member gets a fresh
        neighbor set, its own intersected with the members (symmetric by
        the class invariant, so nothing is re-validated).  The cost
        follows the subgraph, not the whole graph."""
        keep = self._nodes.keys() & nodes
        return self._induced(keep, keep)

    def _rings(
        self, root: NodeId, k: int
    ) -> Tuple[Set[NodeId], Set[NodeId]]:
        """Breadth-first walk of ``k`` hops from ``root``: the members
        within ``k`` hops, and the outermost ring — the members at
        exactly ``k`` hops, empty when the walk ran out of nodes first.
        Every other member's neighbors all lie within ``k`` hops."""
        if root not in self._nodes:
            raise GraphError(f"node {root} not in graph")
        adj = self._adj
        seen = {root}
        frontier = {root}
        for _ in range(k):
            nxt: Set[NodeId] = set()
            for n in frontier:
                nxt |= adj[n]
            nxt -= seen
            if not nxt:
                return seen, nxt
            seen |= nxt
            frontier = nxt
        return seen, frontier

    def khop_nodes(self, root: NodeId, k: int) -> Set[NodeId]:
        """Ids of all nodes within ``k`` hops of ``root`` (including it)."""
        return self._rings(root, k)[0]

    def khop_subgraph(self, root: NodeId, k: int) -> "Graph":
        """Induced subgraph on the k-hop neighborhood of ``root``,
        copy-on-write like :meth:`copy`: every member's attribute map is
        shared with this graph, and so is the neighbor set of every
        member closer than ``k`` hops to ``root`` (its neighbors are all
        members); only the outermost ring gets a fresh, intersected
        set."""
        keep, outer = self._rings(root, k)
        return self._induced(keep, outer)

    def _induced(self, keep: Set[NodeId], outer: Set[NodeId]) -> "Graph":
        """The subgraph induced on ``keep``, sharing every member's
        containers except the neighbor sets of ``outer``, which are
        intersected with ``keep`` (a member not in ``outer`` must have
        no neighbor outside ``keep``).  The result owns nothing, and
        the one write to ``self`` is :meth:`copy`'s: its ownership is
        reset to nothing after the maps are built."""
        nodes, adj = self._nodes, self._adj
        g = Graph(directed=self.directed)
        g._nodes = {n: nodes[n] for n in keep}
        g._adj = {
            n: adj[n] & keep if n in outer else adj[n] for n in keep
        }
        g._settle_edges(self._edge_attrs)
        g._owned = set()
        self._owned = set()
        return g

    def to_networkx(self):  # pragma: no cover - thin convenience shim
        """Export to a ``networkx`` graph for interoperability."""
        import networkx as nx

        g = nx.DiGraph() if self.directed else nx.Graph()
        for n, attrs in self._nodes.items():
            g.add_node(n, **attrs)
        g.add_edges_from(self.edges())
        for (u, v), attrs in self._edge_attrs.items():
            g.add_edge(u, v, **attrs)
        return g
