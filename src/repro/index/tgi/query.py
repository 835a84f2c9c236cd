"""Query-side machinery for TGI: partial state reconstruction.

A TGI fetch returns micro-deltas (checkpoint state for some scope of
nodes) plus partitioned eventlists (changes since the checkpoint).
:class:`PartialState` assembles these into per-node static states at the
query time without materializing the full graph — the property that makes
node- and neighborhood-centric retrieval cheap (Table 1's TGI row).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.deltas.base import Delta, StaticNode
from repro.deltas.columnar import _NO_OTHER, ColumnarEventList, merged_order
from repro.graph.events import EventKind
from repro.graph.static import Graph
from repro.obs.trace import current_span
from repro.types import AttrMap, EdgeId, NodeId, TimePoint, canonical_edge

# EventKind values as plain ints: the columnar kinds column stores the
# raw uint8, so the bulk kernel dispatches without Enum lookups.
_K_NODE_ADD = int(EventKind.NODE_ADD)
_K_NODE_DELETE = int(EventKind.NODE_DELETE)
_K_EDGE_ADD = int(EventKind.EDGE_ADD)
_K_EDGE_DELETE = int(EventKind.EDGE_DELETE)
_K_NODE_ATTR_SET = int(EventKind.NODE_ATTR_SET)
_K_NODE_ATTR_DEL = int(EventKind.NODE_ATTR_DEL)
_K_EDGE_ATTR_SET = int(EventKind.EDGE_ATTR_SET)
_K_EDGE_ATTR_DEL = int(EventKind.EDGE_ATTR_DEL)

#: Accumulator-miss sentinel (``None`` is a real value: node not alive).
_MISSING: Any = object()


class PartialState:
    """Mutable view of the states of a *scope* of nodes at one time point.

    Load checkpoint deltas in root→leaf order (later loads override), then
    apply events in chronological order; each operation is restricted to
    the scope, so partitions can be reconstructed independently.
    """

    def __init__(self, scope: Optional[Set[NodeId]] = None) -> None:
        self.scope = scope  # None = unrestricted
        self._nodes: Dict[NodeId, StaticNode] = {}
        self._applier: Optional["_ColumnarApplier"] = None
        self.edge_attrs: Dict[EdgeId, AttrMap] = {}

    @property
    def nodes(self) -> Dict[NodeId, StaticNode]:
        """Per-node states; freezes any pending columnar accumulators
        first, so reads always see fully-applied events."""
        applier = self._applier
        if applier is not None:
            self._applier = None
            applier.finish()
        return self._nodes

    @nodes.setter
    def nodes(self, value: Dict[NodeId, StaticNode]) -> None:
        # wholesale replacement (checkpoint seeding): any pending
        # accumulators described the dict being replaced
        self._applier = None
        self._nodes = value

    # -- loading checkpoint deltas ----------------------------------------
    def load_delta(self, delta: Delta) -> None:
        trace = current_span()
        if trace is not None:
            trace.inc("deltas_loaded", 1)
        scope = self.scope
        # one read of ``nodes`` (it freezes pending accumulators); the
        # row hands over its memoised map, or just the in-scope part
        self.nodes.update(delta.static_nodes(scope))
        for (u, v), edge in delta.static_edges().items():
            if scope is None or u in scope or v in scope:
                self.edge_attrs[(u, v)] = edge.attrs

    # -- applying events ----------------------------------------------------
    def apply_eventlists(
        self,
        lists: Sequence[Optional[ColumnarEventList]],
        until: Optional[TimePoint] = None,
        after: Optional[TimePoint] = None,
    ) -> None:
        """Bulk-replay several eventlists in global ``(time, seq)`` order,
        restricted to ``after < time <= until``, deduplicating replicated
        copies (edge events are stored with both endpoints' partitions).

        The rows replay straight off their packed columns — per-kind
        dispatch on raw ints, mutable node accumulators, one immutable
        :class:`StaticNode` per touched node — without materializing a
        single :class:`Event`.  The accumulators persist across calls (a
        partition's chain arrives as several small lists) and freeze
        lazily on the first read of :attr:`nodes`, so the per-node
        thaw/freeze cost is paid once per replayed state, not once per
        list.
        """
        lists = [el for el in lists if el is not None and len(el)]
        if not lists:
            return
        windows, order = merged_order(lists, until=until, after=after)
        applier = self._applier
        if applier is None:
            self._applier = applier = _ColumnarApplier(self)
        if order is None:
            for li, el in enumerate(lists):
                lo, hi = windows[li]
                if hi > lo:
                    applier.apply_range(el, lo, hi)
        else:
            applier.apply_order(lists, order)
        trace = current_span()
        if trace is not None:
            trace.inc(
                "events_applied",
                len(order) if order is not None
                else sum(hi - lo for lo, hi in windows),
            )

    # -- reading out ---------------------------------------------------------
    def node_state(self, node: NodeId) -> Optional[StaticNode]:
        return self.nodes.get(node)

    def to_graph(self, members: Iterable[NodeId], directed: bool = False) -> Graph:
        """Induced graph on ``members`` using the reconstructed states."""
        nodes = self.nodes
        keep = {n: nodes[n] for n in members if n in nodes}
        edge_attrs = self.edge_attrs  # keyed smaller endpoint first
        if directed and edge_attrs:
            edge_attrs = {
                **edge_attrs,
                **{(v, u): a for (u, v), a in edge_attrs.items()},
            }
        return Graph.from_parts(
            {n: st.A for n, st in keep.items()},
            {n: st.E for n, st in keep.items()},
            edge_attrs,
            directed=directed,
        )


class ReplayShare:
    """The replayed state the plans of *one execution* share: per
    ``(timespan, t, aux)`` a single merged :class:`PartialState` plus the
    set of partitions already folded into it.

    One :meth:`GraphSession._run <repro.session.GraphSession._run>` (an
    ``execute``, an ``execute_batch``, a collector window) creates one,
    hands it to every k-hop plan it compiles and drops it when it
    returns; a plan built on its own makes its own, so a lone plan runs
    the same code.  A partition several overlapping neighborhoods touch
    is then replayed by the first plan that settles it and *read* by the
    rest (``Counters.coalesced_replays``) — the replay-side twin of the
    coalescer's one fetch per key.  What is folded in is immutable from
    then on (first fold wins; results are built out of it by
    :meth:`PartialState.to_graph`, never aliased), and a plan reads a
    node only inside its own covered scope, so sharing moves no plan's
    members, declared keys or degraded bookkeeping.  Not thread-safe and
    not meant to be: it lives on one execution's stack.

    It also counts the plans attached to each state (:meth:`sole`): a
    state with one plan and no checkpoints behind it is nobody else's,
    so that plan's loader replays only the nodes it reads, growing stage
    by stage; a state several plans share replays whole partitions.
    """

    __slots__ = ("_states", "_users")

    def __init__(self) -> None:
        self._states: Dict[Tuple, Tuple[PartialState, Set[int]]] = {}
        self._users: Dict[Tuple, int] = {}

    def at(
        self, tsid: int, t: TimePoint, include_aux: bool
    ) -> Tuple[PartialState, Set[int]]:
        """Attach one plan to the merged state at ``t`` of timespan
        ``tsid``: that state and the pids folded into it so far (both
        shared: callers fold in place)."""
        key = (tsid, t, include_aux)
        found = self._states.get(key)
        if found is None:
            found = self._states[key] = (PartialState(), set())
        self._users[key] = self._users.get(key, 0) + 1
        return found

    def sole(self, tsid: int, t: TimePoint, include_aux: bool) -> bool:
        """Whether exactly one plan is attached to that state.  Final once
        execution starts: every plan of an execution is built — and
        attached — before the first one settles."""
        return self._users.get((tsid, t, include_aux)) == 1


class _ColumnarApplier:
    """Bulk replay kernel over columnar eventlist rows.

    Folds the same transition function as
    :func:`~repro.index.interface.evolve_node_state` (plus the edge
    attribute maps of the edges in scope), but accumulates each touched node
    mutably (``[attrs dict, neighbor set]``, ``None`` = not alive) and
    converts back to an immutable :class:`StaticNode` once in
    :meth:`finish` — the attrs are sorted and the neighbors frozen
    exactly as ``StaticNode.make`` does, so the result is structurally
    identical to the per-event immutable chain.  The owning
    :class:`PartialState` keeps the applier alive between
    ``apply_eventlists`` calls and finishes it lazily when its ``nodes``
    are first read.
    """

    __slots__ = ("_ps", "_scope", "_work")

    def __init__(self, ps: PartialState) -> None:
        self._ps = ps
        self._scope = ps.scope
        self._work: Dict[NodeId, Optional[List[Any]]] = {}

    def _seed(self, node: NodeId) -> Optional[List[Any]]:
        """First touch of a node: thaw its current StaticNode (if any)."""
        st = self._ps._nodes.get(node)
        cur = None if st is None else [dict(st.A), set(st.E)]
        self._work[node] = cur
        return cur

    def _row(
        self, kind: int, node: Any, other: Any, entry: Optional[Tuple]
    ) -> None:
        key, value, _old = entry if entry is not None else (None, None, None)
        scope = self._scope
        work = self._work
        # -- node state(s) (mirrors evolve_node_state per entity) --------
        if kind == _K_EDGE_ADD or kind == _K_EDGE_DELETE:
            for e in ((node,) if node == other else (node, other)):
                if scope is not None and e not in scope:
                    continue
                st = work[e] if e in work else self._seed(e)
                o = other if e == node else node
                if kind == _K_EDGE_ADD:
                    if st is None:
                        st = [{}, set()]
                        work[e] = st
                    st[1].add(o)
                elif st is not None:
                    st[1].discard(o)
        elif kind == _K_NODE_ADD:
            if scope is None or node in scope:
                work[node] = [
                    dict(value) if isinstance(value, dict) else {}, set()
                ]
        elif kind == _K_NODE_DELETE:
            if scope is None or node in scope:
                work[node] = None
        elif kind == _K_NODE_ATTR_SET:
            if scope is None or node in scope:
                st = work[node] if node in work else self._seed(node)
                if st is None:
                    st = [{}, set()]
                    work[node] = st
                st[0][key] = value
        elif kind == _K_NODE_ATTR_DEL:
            if scope is None or node in scope:
                st = work[node] if node in work else self._seed(node)
                if st is not None:
                    st[0].pop(key, None)
        # -- edge attributes (an attributed add sets the map, a bare add
        # or a delete drops it, attribute events edit it) ---------------
        if other is None:
            return
        eid = canonical_edge(node, other)
        if scope is not None and eid[0] not in scope and eid[1] not in scope:
            return
        edges = self._ps.edge_attrs
        if kind == _K_EDGE_ADD:
            if isinstance(value, dict) and value:
                edges[eid] = dict(value)
            else:
                edges.pop(eid, None)
        elif kind == _K_EDGE_DELETE:
            edges.pop(eid, None)
        elif kind == _K_EDGE_ATTR_SET:
            edges.setdefault(eid, {})[key] = value
        elif kind == _K_EDGE_ATTR_DEL:
            attrs = edges.get(eid)
            if attrs is not None:
                attrs.pop(key, None)
                if not attrs:
                    edges.pop(eid, None)

    def apply_range(self, cel: ColumnarEventList, lo: int, hi: int) -> None:
        """Replay rows ``[lo, hi)`` of one list (already (time, seq)
        sorted and seq-unique within a list).

        The four topology kinds — the bulk of every stream — are inlined
        here with everything bound to locals: this loop is the hot path
        of warm replay, and a method call per row costs as much as the
        work it dispatches to.  The rare attribute kinds drop to the
        shared :meth:`_row` dispatch.
        """
        # plain lists index ~3x faster than memoryview casts, and every
        # row reads 2-3 columns — the one-off tolist() pays for itself
        # within a handful of rows
        kinds = cel._kinds.tolist()
        nodes = cel._nodes.tolist()
        others = cel._others.tolist()
        side = cel._side_entries()
        get_side = side.get
        scope = self._scope
        unscoped = scope is None
        work = self._work
        seed = self._seed
        edges = self._ps.edge_attrs
        miss = _MISSING
        for i in range(lo, hi):
            kind = kinds[i]
            node = nodes[i]
            if kind == _K_EDGE_ADD:
                other = others[i]
                if unscoped or node in scope:
                    st = work.get(node, miss)
                    if st is miss:
                        st = seed(node)
                    if st is None:
                        work[node] = st = [{}, set()]
                    st[1].add(other)
                if node != other and (unscoped or other in scope):
                    st = work.get(other, miss)
                    if st is miss:
                        st = seed(other)
                    if st is None:
                        work[other] = st = [{}, set()]
                    st[1].add(node)
                # edge attributes: a bare add on an attr-free store is a
                # no-op, so skip the eid/dict work entirely
                value = None
                if side:
                    entry = get_side(i)
                    if entry is not None:
                        value = entry[1]
                if value is not None and isinstance(value, dict) and value:
                    eid = (node, other) if node <= other else (other, node)
                    if unscoped or eid[0] in scope or eid[1] in scope:
                        edges[eid] = dict(value)
                elif edges:
                    eid = (node, other) if node <= other else (other, node)
                    if unscoped or eid[0] in scope or eid[1] in scope:
                        edges.pop(eid, None)
            elif kind == _K_EDGE_DELETE:
                other = others[i]
                if unscoped or node in scope:
                    st = work.get(node, miss)
                    if st is miss:
                        st = seed(node)
                    if st is not None:
                        st[1].discard(other)
                if node != other and (unscoped or other in scope):
                    st = work.get(other, miss)
                    if st is miss:
                        st = seed(other)
                    if st is not None:
                        st[1].discard(node)
                if edges:
                    eid = (node, other) if node <= other else (other, node)
                    if unscoped or eid[0] in scope or eid[1] in scope:
                        edges.pop(eid, None)
            elif kind == _K_NODE_ADD:
                if unscoped or node in scope:
                    entry = get_side(i) if side else None
                    value = entry[1] if entry is not None else None
                    work[node] = [
                        dict(value) if isinstance(value, dict) else {}, set()
                    ]
            elif kind == _K_NODE_DELETE:
                if unscoped or node in scope:
                    work[node] = None
            else:
                o = others[i]
                self._row(
                    kind, node, None if o == _NO_OTHER else o, get_side(i)
                )

    def apply_order(
        self, cels: Sequence[ColumnarEventList], order: Sequence[Tuple[int, int]]
    ) -> None:
        """Replay a pre-merged, deduplicated global ``(list, row)`` order
        (from :func:`merged_order`)."""
        cols = [
            (c._kinds, c._nodes, c._others, c._side_entries()) for c in cels
        ]
        row = self._row
        for li, i in order:
            kinds, nodes, others, side = cols[li]
            o = others[i]
            row(kinds[i], nodes[i], None if o == _NO_OTHER else o, side.get(i))

    def finish(self) -> None:
        """Freeze the accumulators back into the owning state's dict.
        (Writes ``_nodes`` directly — the ``nodes`` property is what
        calls this.)"""
        nodes = self._ps._nodes
        for node, st in self._work.items():
            if st is None:
                nodes.pop(node, None)
            else:
                nodes[node] = StaticNode(
                    node, frozenset(st[1]), tuple(sorted(st[0].items()))
                )
        self._work.clear()
