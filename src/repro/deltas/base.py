"""The delta framework (paper Sec. 4.1, Definitions 1-5).

A *delta* is a set of static graph components (static nodes / static
edges), closed under sum, difference, union and intersection.  Every
temporal index in the paper — Log, Copy, Copy+Log, vertex-centric,
DeltaGraph and TGI — is expressible as a collection of deltas, which is
what lets Table 1 compare them in one framework.

Component identity: a static node is identified by its node id ``I``; a
static edge by its canonical endpoint pair.  Two components with the same
identity but different state are *different versions* of the component;
delta sum resolves such conflicts in favour of the right-hand operand
(later state wins), which is why ``+`` is not commutative (paper Def. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet, Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple,
    Union,
)

from repro.errors import DeltaError
from repro.graph.static import Graph
from repro.types import AttrMap, EdgeId, NodeId, canonical_edge

# A component key is ("n", node_id) or ("e", (u, v)).
ComponentKey = Tuple[str, Union[NodeId, EdgeId]]

# Node columns: (node id -> edge list, node id -> attribute pairs).
NodeColumns = Tuple[
    Dict[NodeId, Iterable[NodeId]], Dict[NodeId, Tuple[Tuple[str, Any], ...]]
]


@dataclass(frozen=True)
class StaticNode:
    """State of one vertex at one point in time (paper Definition 1).

    Attributes:
        I: node id.
        E: edge list, captured as a frozenset of neighbor ids.
        A: attribute map (stored as a sorted tuple of pairs so the value is
           hashable and equality is structural).
    """

    I: NodeId
    E: FrozenSet[NodeId] = frozenset()
    A: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(
        node_id: NodeId,
        neighbors: Iterable[NodeId] = (),
        attrs: Optional[AttrMap] = None,
    ) -> "StaticNode":
        items = tuple(sorted((attrs or {}).items()))
        return StaticNode(node_id, frozenset(neighbors), items)

    @property
    def attrs(self) -> AttrMap:
        return dict(self.A)

    @property
    def key(self) -> ComponentKey:
        return ("n", self.I)

    def with_attr(self, k: str, v: Any) -> "StaticNode":
        attrs = self.attrs
        attrs[k] = v
        return StaticNode.make(self.I, self.E, attrs)

    def without_attr(self, k: str) -> "StaticNode":
        attrs = self.attrs
        attrs.pop(k, None)
        return StaticNode.make(self.I, self.E, attrs)

    def with_neighbor(self, n: NodeId) -> "StaticNode":
        return StaticNode(self.I, self.E | {n}, self.A)

    def without_neighbor(self, n: NodeId) -> "StaticNode":
        return StaticNode(self.I, self.E - {n}, self.A)


@dataclass(frozen=True)
class StaticEdge:
    """State of one edge at one point in time (paper Sec. 4.1).

    Contains the two endpoint ids, the direction flag, and attributes.
    """

    u: NodeId
    v: NodeId
    directed: bool = False
    A: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(
        u: NodeId,
        v: NodeId,
        attrs: Optional[AttrMap] = None,
        directed: bool = False,
    ) -> "StaticEdge":
        cu, cv = canonical_edge(u, v, directed)
        return StaticEdge(cu, cv, directed, tuple(sorted((attrs or {}).items())))

    @property
    def attrs(self) -> AttrMap:
        return dict(self.A)

    @property
    def key(self) -> ComponentKey:
        return ("e", (self.u, self.v))


GraphComponent = Union[StaticNode, StaticEdge]


class Delta:
    """A set of static graph components, keyed by component identity.

    Implements the paper's delta algebra:

    - ``a + b``   (Def. 4): union by key, with ``b``'s version winning on
      conflicts.  Not commutative; associative; ``a + EMPTY == a``.
      :meth:`sum` overlays a whole sequence the same way in one pass.
    - ``a - b``:  set difference by *full component equality* — a component
      of ``a`` survives unless an identical component exists in ``b``.
    - ``a & b``:  components identical in both (used to build DeltaGraph
      interior nodes).
    - ``a | b``:  all components from both; conflicting versions keep
      ``a``'s copy (union is only used between compatible deltas).

    ``-`` and ``&`` test for a shared component object (``is``) before
    comparing fields: consecutive checkpoint snapshots share every
    static node their eventlist did not touch, so the delta tree over
    them compares mostly by identity.  The results are those of the
    plain ``==`` definitions, because a component already equals itself
    (the dataclass compares its fields as a tuple, which tests each
    field for identity first — a NaN attribute value included).

    Static nodes are held as :class:`StaticNode` objects by id, as
    *columns* — an edge list and an attribute tuple per node id, which
    is what :meth:`to_graph` consumes — or, for an all-int row the codec
    decoded, as the row's *packed* node columns
    (:class:`~repro.deltas.columnar.PackedNodes`).  While a delta has
    packed or plain columns they are the whole truth and ``_nodes`` only
    memoises the nodes thawed out of them so far; :meth:`static_nodes`
    thaws each node at most once.  A packed row decodes whole — in one
    bulk pass, into plain columns — the first time a read needs every
    node; a scoped read that does not cover the row thaws only its
    in-scope nodes, straight from the packed columns.

    Reads look at ``_packed``, then ``_cols``, then ``_nodes``, and each
    is retired only once the next one holds the whole truth, so a reader
    racing a decode or a thaw of a shared cached row never takes a
    part-thawed ``_nodes`` for the complete set.
    """

    __slots__ = ("_nodes", "_cols", "_packed", "_edges")

    def __init__(self, components: Iterable[GraphComponent] = ()) -> None:
        self._nodes: Dict[NodeId, StaticNode] = {}
        self._cols: Optional[NodeColumns] = None
        self._packed: Any = None
        self._edges: Dict[EdgeId, StaticEdge] = {}
        for c in components:
            self.put(c)

    @classmethod
    def from_columns(
        cls,
        adjacency: Dict[NodeId, Iterable[NodeId]],
        node_attrs: Dict[NodeId, Tuple[Tuple[str, Any], ...]],
        edges: Optional[Dict[EdgeId, StaticEdge]] = None,
    ) -> "Delta":
        """A delta over node columns: ``adjacency`` and ``node_attrs``
        map the same node ids to :attr:`StaticNode.E` / ``.A`` contents.
        The delta takes ownership of the three dicts."""
        out = cls.__new__(cls)
        out._nodes = {}
        out._cols = (adjacency, node_attrs)
        out._packed = None
        out._edges = {} if edges is None else edges
        return out

    @classmethod
    def from_static(
        cls,
        nodes: Dict[NodeId, StaticNode],
        edges: Dict[EdgeId, StaticEdge],
    ) -> "Delta":
        """A delta over static nodes by id and explicit static edges by
        stored endpoint pair.  The delta takes ownership of both dicts."""
        out = cls.__new__(cls)
        out._nodes = nodes
        out._cols = None
        out._packed = None
        out._edges = edges
        return out

    @classmethod
    def from_packed(
        cls, packed: Any, edges: Dict[EdgeId, StaticEdge]
    ) -> "Delta":
        """A delta over a packed row's node columns
        (:class:`~repro.deltas.columnar.PackedNodes`) and its explicit
        edges, decoded only as far as reads need."""
        out = cls.__new__(cls)
        out._nodes = {}
        out._cols = None
        out._packed = packed
        out._edges = edges
        return out

    # -- representations --------------------------------------------------
    def static_nodes(
        self, within: Optional[AbstractSet[NodeId]] = None
    ) -> Dict[NodeId, StaticNode]:
        """The static nodes by id — all of them, or those in ``within``.
        May be the delta's own map: callers read it or copy out of it.

        Columns thaw node by node, each node once: a scoped load of one
        node does not pay for its whole partition, and the next hit on
        a cached row finds what earlier hits thawed.  A packed row that
        ``within`` does not cover thaws its in-scope nodes by slot; one
        it covers, or an unscoped read, decodes it whole first.  When
        every node has thawed the columns are dropped.
        """
        packed = self._packed
        if packed is not None:
            if within is not None and not within.issuperset(packed.ids):
                return self._thaw_packed(packed, within)
            self.columns()
            within = None  # covers the row: no second check below
        nodes, cols = self._nodes, self._cols
        every = nodes if cols is None else cols[0]
        wanted = (
            every if within is None or every.keys() <= within
            else every.keys() & within
        )
        if cols is not None:
            adjacency, attrs = cols
            for n in wanted:
                if n not in nodes:
                    nodes[n] = StaticNode(n, frozenset(adjacency[n]), attrs[n])
            if len(nodes) == len(adjacency):
                # retired only once ``nodes`` is complete: a concurrent
                # reader that finds the columns gone finds every node
                self._cols = None
        if wanted is every:
            return nodes  # complete: no later thaw writes to it
        return {n: nodes[n] for n in wanted}

    def _thaw_packed(
        self, packed: Any, within: AbstractSet[NodeId]
    ) -> Dict[NodeId, StaticNode]:
        """The in-scope nodes of a packed row, each thawed by slot once."""
        nodes = self._nodes
        wanted = packed.slots.keys() & within
        packed.thaw(wanted, nodes)
        if len(nodes) == len(packed.ids):
            # retired only once ``nodes`` is complete (see the class
            # docstring)
            self._packed = None
        return {n: nodes[n] for n in wanted}

    def static_edges(self) -> Dict[EdgeId, StaticEdge]:
        """The explicit static edges by stored endpoint pair."""
        return self._edges

    def columns(self) -> NodeColumns:
        """``(adjacency, node_attrs)`` by node id — the stored columns
        (a packed row decodes into them here, once), or the same view
        derived from thawed static nodes."""
        packed = self._packed
        if packed is not None:
            cols = self._cols = packed.columns()
            self._packed = None
            return cols
        cols = self._cols
        if cols is not None:
            return cols
        nodes = self._nodes
        return (
            {n: c.E for n, c in nodes.items()},
            {n: c.A for n, c in nodes.items()},
        )

    # -- basic protocol -------------------------------------------------
    def __len__(self) -> int:
        packed = self._packed
        if packed is not None:
            return len(packed.ids) + len(self._edges)
        cols = self._cols
        nodes = cols[0] if cols is not None else self._nodes
        return len(nodes) + len(self._edges)

    def __iter__(self) -> Iterator[GraphComponent]:
        yield from self.static_nodes().values()
        yield from self._edges.values()

    def __contains__(self, key: ComponentKey) -> bool:
        return self.get(key) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return (
            self.static_nodes() == other.static_nodes()
            and self._edges == other._edges
        )

    def __repr__(self) -> str:
        return f"<Delta cardinality={self.cardinality} size={self.size}>"

    def get(self, key: ComponentKey) -> Optional[GraphComponent]:
        kind, ident = key
        if kind == "n":
            return self.static_nodes().get(ident)  # type: ignore[arg-type]
        return self._edges.get(ident)  # type: ignore[arg-type]

    def put(self, component: GraphComponent) -> None:
        if isinstance(component, StaticNode):
            self.static_nodes()[component.I] = component
        else:
            self._edges[(component.u, component.v)] = component

    def node_ids(self) -> List[NodeId]:
        return list(self.columns()[0])

    @property
    def cardinality(self) -> int:
        """Unique number of component descriptions (paper Definition 3)."""
        return len(self)

    @property
    def size(self) -> int:
        """Total number of node/edge descriptions including edge-list
        entries (paper Definition 3): a static node counts 1 plus one per
        edge-list entry; a static edge counts 1."""
        return len(self) + sum(map(len, self.columns()[0].values()))

    # -- algebra ---------------------------------------------------------
    def _binary(self, other: object, verb: str, pick) -> "Delta":
        """``pick(a, b)`` chooses the surviving components, applied to
        the operands' node maps and to their edge maps."""
        if not isinstance(other, Delta):
            raise DeltaError(
                f"cannot {verb} Delta and {type(other).__name__}"
            )
        out = Delta()
        out._nodes = pick(self.static_nodes(), other.static_nodes())
        out._edges = pick(self._edges, other._edges)
        return out

    def __add__(self, other: "Delta") -> "Delta":
        return self._binary(other, "add", lambda a, b: {**a, **b})

    def __sub__(self, other: "Delta") -> "Delta":
        """The components of ``self`` not in ``other``; a component
        object both share is dropped without comparing fields."""
        def minus(a: Dict, b: Dict) -> Dict:
            get = b.get
            return {
                k: c for k, c in a.items()
                if (o := get(k)) is not c and o != c
            }

        return self._binary(other, "subtract", minus)

    def __and__(self, other: "Delta") -> "Delta":
        """The components in both operands; a component object both
        share is kept without comparing fields."""
        def common(a: Dict, b: Dict) -> Dict:
            small, large = (a, b) if len(a) <= len(b) else (b, a)
            get = large.get
            return {
                k: c for k, c in small.items()
                if (o := get(k)) is c or o == c
            }

        return self._binary(other, "intersect", common)

    def __or__(self, other: "Delta") -> "Delta":
        return self._binary(other, "union", lambda a, b: {**b, **a})

    @staticmethod
    def sum(deltas: Iterable["Delta"]) -> "Delta":
        """``d0 + d1 + ...`` (later deltas win per component) as one
        overlay of the operands' columns — no intermediate deltas, and
        no ``StaticNode`` thawed for rows that are still columns."""
        adjacency: Dict[NodeId, Iterable[NodeId]] = {}
        attrs: Dict[NodeId, Tuple[Tuple[str, Any], ...]] = {}
        edges: Dict[EdgeId, StaticEdge] = {}
        for d in deltas:
            adj, node_attrs = d.columns()
            adjacency.update(adj)
            attrs.update(node_attrs)
            edges.update(d._edges)
        return Delta.from_columns(adjacency, attrs, edges)

    # -- conversion -------------------------------------------------------
    @staticmethod
    def load_snapshot(rows: Iterable["Delta"], whole: bool = False) -> Graph:
        """``Delta.sum(rows).to_graph()`` without the mirror walk, for
        the rows of one stored snapshot path (TGI's ``TAG_SNAPSHOT``
        micro-deltas, in root→leaf order, over any subset of
        partitions) — the cold Algorithm-1 load.

        The rows are overlaid by :meth:`sum` (a later row wins per node
        id); the overlay's attribute maps and edge lists go to the
        shared core (:meth:`Graph._assemble`).  By default it intersects
        each edge list with the loaded ids, so an entry naming a node of
        a partition that was not fetched (a degraded fetch) is dropped.
        ``whole`` says the rows cover every partition of the path: the
        overlay is then the leaf checkpoint itself, every entry names a
        loaded node, and each list becomes its neighbor set with no
        membership probe.  No mirror walk either way: the rows must be
        symmetric on the nodes they hold.  Stored snapshot rows are,
        because every one is written once by ``build_timespan`` from the
        snapshot delta of one :class:`Graph` (symmetric adjacency), each
        node's edge list is its full adjacency, an attributed edge is in
        both endpoints' lists, and timespan rows are never rewritten.
        Anything else — an in-memory delta, a partial state — loads
        through :meth:`to_graph` / :meth:`Graph.from_parts`.
        """
        overlay = Delta.sum(rows)
        adjacency, attrs = overlay.columns()
        g = Graph._assemble(
            {n: dict(a) if a else {} for n, a in attrs.items()},
            adjacency,
            directed=False,
            closed=whole,
        )
        g._settle_edges({
            canonical_edge(u, v, False): e.A
            for (u, v), e in overlay._edges.items()
        })
        return g

    def to_graph(self, directed: bool = False) -> Graph:
        """Materialize this delta as an in-memory :class:`Graph`.

        Only edges whose both endpoints are present as static nodes are
        materialized; dangling edge-list entries (caused by partitioned
        fetches) are dropped, matching how the paper's query processors
        assemble snapshots from micro-partitions.  An edge one endpoint
        lists, or only an explicit :class:`StaticEdge` names, is still
        an edge (:meth:`Graph.from_parts` adds the mirror entries), so
        any delta loads — the ones built in memory, and the baseline
        indexes' reconstructions (DeltaGraph, Copy, Copy+Log).  A
        stored TGI snapshot path loads through :meth:`load_snapshot`.
        """
        adjacency, attrs = self.columns()
        edges = self._edges
        if edges:
            # an explicit edge is an edge even where no edge list names it
            extra: Dict[NodeId, List[NodeId]] = {}
            for (u, v) in edges:
                if u in adjacency:
                    extra.setdefault(u, []).append(v)
            adjacency = {
                **adjacency,
                **{u: (*adjacency[u], *vs) for u, vs in extra.items()},
            }
        return Graph.from_parts(
            attrs,
            adjacency,
            {canonical_edge(u, v, directed): e.A for (u, v), e in edges.items()},
            directed=directed,
        )

    @staticmethod
    def from_graph(g: Graph, node_centric: bool = False) -> "Delta":
        """Snapshot delta of ``g`` (paper Example 4: ``G(t) - G(-inf)``).

        With ``node_centric=True`` edges are folded into the static nodes'
        edge lists (the logical model of Sec. 3.1: "edges are considered as
        attributes of the nodes"); otherwise edges are separate
        :class:`StaticEdge` components (more convenient for partitioning).
        """
        out = Delta()
        adj, attrs = g.adjacency(), g.node_attr_maps()
        for n in g.nodes():
            nbrs = adj[n] if node_centric else ()
            out.put(StaticNode.make(n, nbrs, attrs[n]))
        if not node_centric:
            attributed = g.attributed_edges()
            for e in g.edges():
                out.put(StaticEdge.make(*e, attributed.get(e), g.directed))
        return out


#: The empty delta (paper: ``∆ + ∅ = ∆``).
EMPTY_DELTA = Delta()
