"""In-memory property graph: the materialized form of one snapshot.

``Graph`` is the object handed to user analysis code (TAF's ``Graph``
operator returns one).  It supports node/edge attributes, directed or
undirected semantics, event application/replay, and structural queries used
by the retrieval algorithms (neighbors, induced subgraphs, k-hop
neighborhoods).
"""

from __future__ import annotations

import copy as _copy
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple,
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
    """

    __slots__ = ("directed", "_nodes", "_adj", "_edge_attrs")

    def __init__(self, directed: bool = False) -> None:
        self.directed = directed
        self._nodes: Dict[NodeId, AttrMap] = {}
        # adjacency: node -> set of neighbor ids (out-neighbors if directed)
        self._adj: Dict[NodeId, Set[NodeId]] = {}
        self._edge_attrs: Dict[EdgeId, AttrMap] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, attrs: Optional[AttrMap] = None) -> None:
        """Add ``node``; re-adding an existing node resets its attributes."""
        self._nodes[node] = dict(attrs) if attrs else {}
        self._adj.setdefault(node, set())

    @classmethod
    def from_parts(
        cls,
        node_attrs: Mapping[NodeId, Any],
        adjacency: Mapping[NodeId, Iterable[NodeId]],
        edge_attrs: Optional[Mapping[EdgeId, Any]] = None,
        directed: bool = False,
    ) -> "Graph":
        """Bulk-load a graph from node-centric parts, filling the three
        containers directly instead of one ``add_edge`` per edge.

        ``node_attrs`` maps every node to its attributes (a dict or an
        iterable of pairs; copied).  ``adjacency`` maps nodes to their
        edge lists (out-neighbors when directed) and alone decides which
        edges exist: entries naming a node outside ``node_attrs`` are
        dangling and dropped by one set intersection per node, an
        undirected edge is written once, from its smaller endpoint, and
        an edge listed by only one endpoint is still an edge (its mirror
        entry is added).  ``edge_attrs`` is looked up by canonical edge
        id for every edge written (copied); it may cover more edges
        than the graph ends up with.  Equivalent to ``add_node`` per
        node, then ``add_edge`` per not-yet-present edge-list entry.
        """
        g = cls(directed=directed)
        nodes = g._nodes = {
            n: dict(a) if a else {} for n, a in node_attrs.items()
        }
        alive = set(nodes)
        adj = g._adj = {
            n: alive.intersection(nbrs)
            for n, nbrs in adjacency.items() if n in alive
        }
        if len(adj) != len(nodes):
            for n in nodes:
                adj.setdefault(n, set())
        edges = g._edge_attrs
        if directed:
            for u, nbrs in adj.items():
                for v in nbrs:
                    edges[(u, v)] = {}
        else:
            entries = loops = 0
            for u, nbrs in adj.items():
                entries += len(nbrs)
                for v in nbrs:
                    if u < v:
                        edges[(u, v)] = {}
                    elif u > v:
                        if u not in adj[v]:
                            edges[(v, u)] = {}
                    else:
                        edges[(u, u)] = {}
                        loops += 1
            if entries != 2 * len(edges) - loops:
                # some edge is listed by one endpoint only: mirror it
                for u, v in edges:
                    adj[u].add(v)
                    adj[v].add(u)
        if edge_attrs:
            for eid, attrs in edges.items():
                found = edge_attrs.get(eid)
                if found:
                    attrs.update(found)
        return g

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._nodes:
            raise GraphError(f"node {node} not in graph")
        for nbr in list(self._adj[node]):
            self.remove_edge(node, nbr)
        if self.directed:
            # incoming edges are not tracked in _adj[node]; scan for them
            for (u, v) in [e for e in self._edge_attrs if e[1] == node]:
                self.remove_edge(u, v)
        del self._nodes[node]
        del self._adj[node]

    def add_edge(
        self, u: NodeId, v: NodeId, attrs: Optional[AttrMap] = None
    ) -> None:
        """Add edge ``(u, v)``; both endpoints must already exist."""
        if u not in self._nodes or v not in self._nodes:
            raise GraphError(f"edge ({u}, {v}) references a missing node")
        eid = canonical_edge(u, v, self.directed)
        self._edge_attrs[eid] = dict(attrs) if attrs else {}
        self._adj[u].add(v)
        if not self.directed:
            self._adj[v].add(u)

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        eid = canonical_edge(u, v, self.directed)
        if eid not in self._edge_attrs:
            raise GraphError(f"edge ({u}, {v}) not in graph")
        del self._edge_attrs[eid]
        self._adj[u].discard(v)
        if not self.directed:
            self._adj[v].discard(u)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def has_node(self, node: NodeId) -> bool:
        return node in self._nodes

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return canonical_edge(u, v, self.directed) in self._edge_attrs

    def node_attrs(self, node: NodeId) -> AttrMap:
        try:
            return self._nodes[node]
        except KeyError:
            raise GraphError(f"node {node} not in graph") from None

    def edge_attrs(self, u: NodeId, v: NodeId) -> AttrMap:
        eid = canonical_edge(u, v, self.directed)
        try:
            return self._edge_attrs[eid]
        except KeyError:
            raise GraphError(f"edge ({u}, {v}) not in graph") from None

    def nodes(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def edges(self) -> Iterator[EdgeId]:
        return iter(self._edge_attrs)

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """Neighbor ids of ``node`` (out-neighbors when directed)."""
        try:
            return self._adj[node]
        except KeyError:
            raise GraphError(f"node {node} not in graph") from None

    def degree(self, node: NodeId) -> int:
        return len(self.neighbors(node))

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edge_attrs)

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
            and self._edge_attrs == other._edge_attrs
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"<Graph {kind} n={self.num_nodes} m={self.num_edges}>"

    def copy(self) -> "Graph":
        """Structural copy: independent node/adjacency/edge containers and
        attribute maps.  Attribute *values* are shared — the event replay
        treats them as immutable (replaced, never mutated in place), so a
        copy can never observe changes through them.  Much faster than
        ``copy.deepcopy`` for the materialized-snapshot checkpoint path.
        """
        g = Graph(directed=self.directed)
        g._nodes = {n: dict(a) for n, a in self._nodes.items()}
        g._adj = {n: set(s) for n, s in self._adj.items()}
        g._edge_attrs = {e: dict(a) for e, a in self._edge_attrs.items()}
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
        kind = ev.kind
        if kind == EventKind.NODE_ADD:
            if ev.node in self._nodes:
                if strict:
                    raise EventError(f"node {ev.node} already exists")
                return
            self.add_node(ev.node, ev.value)
        elif kind == EventKind.NODE_DELETE:
            if ev.node not in self._nodes:
                if strict:
                    raise EventError(f"node {ev.node} does not exist")
                return
            self.remove_node(ev.node)
        elif kind == EventKind.EDGE_ADD:
            assert ev.other is not None
            # auto-create endpoints in lenient mode: real traces (e.g. raw
            # citation dumps) frequently reference nodes before their
            # explicit creation records
            for endpoint in (ev.node, ev.other):
                if endpoint not in self._nodes:
                    if strict:
                        raise EventError(f"endpoint {endpoint} does not exist")
                    self.add_node(endpoint)
            if self.has_edge(ev.node, ev.other):
                if strict:
                    raise EventError(f"edge {ev.edge} already exists")
                return
            self.add_edge(ev.node, ev.other, ev.value)
        elif kind == EventKind.EDGE_DELETE:
            assert ev.other is not None
            if not self.has_edge(ev.node, ev.other):
                if strict:
                    raise EventError(f"edge {ev.edge} does not exist")
                return
            self.remove_edge(ev.node, ev.other)
        elif kind == EventKind.NODE_ATTR_SET:
            if ev.node not in self._nodes:
                if strict:
                    raise EventError(f"node {ev.node} does not exist")
                self.add_node(ev.node)
            assert ev.key is not None
            self._nodes[ev.node][ev.key] = ev.value
        elif kind == EventKind.NODE_ATTR_DEL:
            assert ev.key is not None
            attrs = self._nodes.get(ev.node)
            if attrs is None or ev.key not in attrs:
                if strict:
                    raise EventError(f"attribute {ev.key} missing on {ev.node}")
                return
            del attrs[ev.key]
        elif kind == EventKind.EDGE_ATTR_SET:
            assert ev.other is not None and ev.key is not None
            eid = canonical_edge(ev.node, ev.other, self.directed)
            attrs = self._edge_attrs.get(eid)
            if attrs is None:
                if strict:
                    raise EventError(f"edge {eid} does not exist")
                return
            attrs[ev.key] = ev.value
        elif kind == EventKind.EDGE_ATTR_DEL:
            assert ev.other is not None and ev.key is not None
            eid = canonical_edge(ev.node, ev.other, self.directed)
            attrs = self._edge_attrs.get(eid)
            if attrs is None or ev.key not in attrs:
                if strict:
                    raise EventError(f"edge attribute {ev.key} missing on {eid}")
                return
            del attrs[ev.key]
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

        ``eventlists`` is one ``ColumnarEventList`` or a sequence of them;
        replicated copies across lists (edge events are stored with both
        endpoints' partitions) are deduplicated by seq.  Replays straight
        off the packed columns with the same lenient semantics as
        ``apply_event(strict=False)``, without materializing ``Event``
        objects.  ``after`` skips events at or before that time — replay
        covers ``(after, until]``, which is how a snapshot seeded from an
        earlier materialized state advances over just the gap.
        """
        # imported lazily: repro.deltas.__init__ imports this module
        from repro.deltas.columnar import (
            _NO_OTHER,
            ColumnarEventList,
            merged_order,
        )

        if isinstance(eventlists, ColumnarEventList):
            eventlists = (eventlists,)
        cels = [el for el in eventlists if len(el)]
        if not cels:
            return
        windows, order = merged_order(cels, until=until, after=after)
        nodes, adj, edge_attrs = self._nodes, self._adj, self._edge_attrs
        directed = self.directed

        def row(kind: int, node: Any, other: Any, entry: Optional[tuple]) -> None:
            key, value, _old = entry if entry is not None else (None, None, None)
            if kind == _K_EDGE_ADD:
                # auto-create endpoints (lenient mode, see apply_event)
                if node not in nodes:
                    nodes[node] = {}
                    adj.setdefault(node, set())
                if other not in nodes:
                    nodes[other] = {}
                    adj.setdefault(other, set())
                eid = canonical_edge(node, other, directed)
                if eid not in edge_attrs:
                    edge_attrs[eid] = dict(value) if value else {}
                    adj[node].add(other)
                    if not directed:
                        adj[other].add(node)
            elif kind == _K_EDGE_DELETE:
                eid = canonical_edge(node, other, directed)
                if eid in edge_attrs:
                    del edge_attrs[eid]
                    adj[node].discard(other)
                    if not directed:
                        adj[other].discard(node)
            elif kind == _K_NODE_ADD:
                if node not in nodes:
                    nodes[node] = dict(value) if value else {}
                    adj.setdefault(node, set())
            elif kind == _K_NODE_DELETE:
                if node in nodes:
                    self.remove_node(node)
            elif kind == _K_NODE_ATTR_SET:
                attrs = nodes.get(node)
                if attrs is None:
                    attrs = {}
                    nodes[node] = attrs
                    adj.setdefault(node, set())
                attrs[key] = value
            elif kind == _K_NODE_ATTR_DEL:
                attrs = nodes.get(node)
                if attrs is not None and key in attrs:
                    del attrs[key]
            elif kind == _K_EDGE_ATTR_SET:
                attrs = edge_attrs.get(canonical_edge(node, other, directed))
                if attrs is not None:
                    attrs[key] = value
            elif kind == _K_EDGE_ATTR_DEL:
                attrs = edge_attrs.get(canonical_edge(node, other, directed))
                if attrs is not None and key in attrs:
                    del attrs[key]

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
        """Induced subgraph on ``nodes`` (missing ids are ignored).

        Induced from the kept nodes' adjacency sets, so the cost follows
        the subgraph, not the whole graph's edge count."""
        own, adj = self._nodes, self._adj
        keep = {n for n in nodes if n in own}
        return Graph.from_parts(
            {n: own[n] for n in keep},
            {n: adj[n] for n in keep},
            self._edge_attrs,
            directed=self.directed,
        )

    def khop_nodes(self, root: NodeId, k: int) -> Set[NodeId]:
        """Ids of all nodes within ``k`` hops of ``root`` (including it)."""
        if root not in self._nodes:
            raise GraphError(f"node {root} not in graph")
        seen = {root}
        frontier = {root}
        for _ in range(k):
            nxt: Set[NodeId] = set()
            for n in frontier:
                nxt |= self._adj[n]
            nxt -= seen
            if not nxt:
                break
            seen |= nxt
            frontier = nxt
        return seen

    def khop_subgraph(self, root: NodeId, k: int) -> "Graph":
        """Induced subgraph on the k-hop neighborhood of ``root``."""
        return self.subgraph(self.khop_nodes(root, k))

    def to_networkx(self):  # pragma: no cover - thin convenience shim
        """Export to a ``networkx`` graph for interoperability."""
        import networkx as nx

        g = nx.DiGraph() if self.directed else nx.Graph()
        for n, attrs in self._nodes.items():
            g.add_node(n, **attrs)
        for (u, v), attrs in self._edge_attrs.items():
            g.add_edge(u, v, **attrs)
        return g
