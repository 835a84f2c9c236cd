"""Sets of temporal nodes and subgraphs — the TAF operands and operators
(paper Sec. 5.1).

``SON`` / ``SOTS`` objects have two phases, matching the paper's lazy
data-fetch protocol (Sec. 5.2 "Data Fetch"):

1. **specification** — ``Select`` / ``Timeslice`` / ``Filter`` calls on an
   unfetched set accumulate the query; nothing hits the store;
2. **materialized** — ``fetch()`` executes one parallel retrieval plan
   against the TGI; subsequent operators (``Select``, ``Timeslice``,
   ``NodeCompute``, ``NodeComputeTemporal``, ``NodeComputeDelta``,
   ``Compare``, ``Evolution`` via ``GetGraph``) run on the in-memory RDD.

Method names use the paper's capitalized form so its listings (Fig. 7-9)
port directly.
"""

from __future__ import annotations

import copy
import inspect
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import AnalyticsError, QueryError, TimeRangeError
from repro.exec import collector_paused
from repro.graph.events import Event
from repro.graph.static import Graph
from repro.index.interface import evolve_node_state
from repro.taf.expressions import (
    IdSpans,
    id_intervals,
    ids_within,
    parse_entity_predicate,
    parse_time_expression,
    predicate_fields,
)
from repro.taf.handler import TGIHandler
from repro.taf.node_t import NodeT, SubgraphT, induced_graph, states_by_point
from repro.taf import timepoints as tp_mod
from repro.types import NodeId, TimePoint

TimepointsSpec = Union[None, int, Sequence[TimePoint], Callable[..., List[TimePoint]]]

#: A pre-fetch id predicate: the compiled closure and, when it compiles
#: to them, the ``int`` id intervals it accepts.
IdPredicate = Tuple[Callable[[int, dict], bool], Optional[IdSpans]]


def _prune_ids(
    universe: List[NodeId], predicates: List[IdPredicate], ordered: bool
) -> List[NodeId]:
    """Apply pre-fetch id predicates to a fetch universe.  Over an
    ``ordered`` (sorted) universe of ``int`` ids a predicate with
    intervals slices it by bisection; otherwise its closure tests each
    id."""
    bisect = ordered and set(map(type, universe)) <= {int}
    for compiled, spans in predicates:
        if bisect and spans is not None:
            universe = ids_within(universe, spans)
        else:
            universe = [n for n in universe if compiled(n, {})]
    return universe


def _clip_window(
    handler: Optional[TGIHandler],
    window: Optional[Tuple[TimePoint, TimePoint]],
) -> Optional[Tuple[TimePoint, TimePoint]]:
    """``window`` (``None``: all of it) clipped to the handler's indexed
    history.  Raises :class:`TimeRangeError` for an inverted window or
    one disjoint from that history, as ``NodeT.timeslice`` does for a
    node's range."""
    if window is not None and window[0] > window[1]:
        raise TimeRangeError(f"inverted timeslice [{window[0]}, {window[1]}]")
    if handler is None:
        return window
    lo, hi = handler.history_range()
    if window is None:
        return lo, hi
    ts, te = window
    if te < lo or ts > hi:
        raise TimeRangeError(
            f"timeslice [{ts}, {te}] does not overlap the indexed "
            f"history [{lo}, {hi}]"
        )
    return max(ts, lo), min(te, hi)


def _metric_caller(f: Callable) -> Callable[[Any, Optional[NodeId]], Any]:
    """``call(operand, center)`` for a user metric: ``f(operand, center)``
    or ``f(operand)`` depending on its arity, so both ``gm.density`` and
    ``nm.LCC`` work unmodified.  The arity is resolved here, once per
    operator call, not per invocation."""
    try:
        params = [
            p
            for p in inspect.signature(f).parameters.values()
            if p.default is inspect.Parameter.empty
            and p.kind
            in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            )
        ]
        wants_two = len(params) >= 2
    except (TypeError, ValueError):
        wants_two = False
    if wants_two:
        return lambda operand, center: (
            f(operand) if center is None else f(operand, center)
        )
    return lambda operand, center: f(operand)


def _resolve_timepoints(spec: TimepointsSpec, operand: Any) -> List[TimePoint]:
    if spec is None:
        return tp_mod.all_change_points(operand)
    if isinstance(spec, int):
        return tp_mod.uniform(spec)(operand)
    if callable(spec):
        return spec(operand)
    return sorted(spec)


class ComputedValues:
    """Result of ``NodeCompute``: one value per node/subgraph."""

    def __init__(self, values: Dict[NodeId, Any], key: Optional[str] = None):
        self.values = values
        self.key = key

    def __getitem__(self, node: NodeId) -> Any:
        return self.values[node]

    def __len__(self) -> int:
        return len(self.values)

    def items(self):
        return self.values.items()

    def Max(self, key: Optional[str] = None) -> Tuple[NodeId, Any]:
        """(node, value) with the maximum value, the smallest node id
        among tied maxima; ``key`` accepted for API compatibility with
        the paper's listings."""
        if not self.values:
            raise AnalyticsError("Max over empty computed set")
        top = max(self.values.values())
        node = min(n for n, v in self.values.items() if v == top)
        return node, self.values[node]

    def Min(self, key: Optional[str] = None) -> Tuple[NodeId, Any]:
        if not self.values:
            raise AnalyticsError("Min over empty computed set")
        return min(self.values.items(), key=lambda kv: (kv[1], kv[0]))

    def Mean(self) -> float:
        if not self.values:
            raise AnalyticsError("Mean over empty computed set")
        return sum(self.values.values()) / len(self.values)


class TemporalSeriesSet:
    """Result of ``NodeComputeTemporal`` / ``NodeComputeDelta``: one scalar
    time series per node/subgraph."""

    def __init__(self, series: Dict[NodeId, List[Tuple[TimePoint, Any]]]):
        self.series = series

    def __getitem__(self, node: NodeId) -> List[Tuple[TimePoint, Any]]:
        return self.series[node]

    def __len__(self) -> int:
        return len(self.series)

    def items(self):
        return self.series.items()

    def final_values(self) -> Dict[NodeId, Any]:
        return {n: s[-1][1] for n, s in self.series.items() if s}

    def aggregate(self, fn: Callable) -> Dict[NodeId, Any]:
        """Apply a TempAggregation function (or any series→value callable)
        to every node's series."""
        return {n: fn(s) for n, s in self.series.items() if s}

    def Max(self) -> Dict[NodeId, Tuple[TimePoint, Any]]:
        """Per-node (time, value) of the series maximum."""
        from repro.taf.aggregation import series_max

        return self.aggregate(series_max)

    def Min(self) -> Dict[NodeId, Tuple[TimePoint, Any]]:
        """Per-node (time, value) of the series minimum."""
        from repro.taf.aggregation import series_min

        return self.aggregate(series_min)

    def Mean(self) -> Dict[NodeId, float]:
        """Per-node mean of the series values."""
        from repro.taf.aggregation import series_mean

        return self.aggregate(series_mean)

    def Peak(self) -> Dict[NodeId, List[Tuple[TimePoint, Any]]]:
        """Per-node local maxima of the series."""
        from repro.taf.aggregation import peaks

        return self.aggregate(peaks)


class TGraph:
    """Temporal view of a SoN as one evolving graph (``son.GetGraph()``)."""

    def __init__(self, son: "SON") -> None:
        self._son = son

    def get_start_time(self) -> TimePoint:
        return self._son.get_start_time()

    def get_end_time(self) -> TimePoint:
        return self._son.get_end_time()

    def change_points(self) -> List[TimePoint]:
        return self._son.change_points()

    def graph_at(self, t: TimePoint) -> Graph:
        return self._son.GetGraph(t)

    @collector_paused
    def Evolution(
        self, metric: Callable[[Graph], Any], timepoints: TimepointsSpec = None
    ) -> List[Tuple[TimePoint, Any]]:
        """Sample ``metric`` over time (paper operator 8).  ``timepoints``
        may be an int (uniform sample count, as in Fig. 7c), a list, a
        selector function (Fig. 9a), or None for all change points."""
        points = _resolve_timepoints(timepoints, self)
        return [
            (t, metric(g))
            for t, g in zip(points, self._son._graphs_over(points))
        ]


class _TemporalSet:
    """What a SoN and a SoTS share (paper Sec. 5.1: a SoTS is a set whose
    members are temporal subgraphs rather than temporal nodes): the
    fetched members, ``Timeslice``, and the compute operators.

    A subclass names its members (``_noun``) and supplies four hooks the
    operators are written over: a member's key (``_key``), its operand
    at one time (``_operand_at``), its operands over a grid
    (``_operands_over``) and the incremental fold over its changes
    (``_fold``)."""

    def __init__(
        self,
        handler: Optional[TGIHandler],
        members: Optional[list],
        interval: Optional[Tuple[TimePoint, TimePoint]],
    ) -> None:
        self.handler = handler
        self._members = members
        self._interval = interval
        self._pre_id_predicates: Tuple[IdPredicate, ...] = ()
        #: fetch accounting of the retrieval that materialized this set
        #: (None for unfetched or derived sets)
        self.fetch_stats = None

    # -- materialized access ---------------------------------------------
    @property
    def materialized(self) -> bool:
        return self._members is not None

    def collect(self) -> list:
        if self._members is None:
            raise QueryError(f"{self._noun} not fetched yet; call fetch()")
        return self._members

    def __iter__(self) -> Iterator:
        return iter(self.collect())

    def __len__(self) -> int:
        return len(self.collect())

    # -- specification -----------------------------------------------------
    def Timeslice(self, arg, te: Optional[TimePoint] = None):
        """Restrict the temporal scope (paper operator 2).

        ``arg`` may be a time expression string (``"t >= Jan 1,2003 and
        t < Jan 1,2004"``), a single timepoint, an explicit ``(ts, te)``
        via two arguments, or a list of timepoints (returning a list of
        sets, one per point).
        """
        if isinstance(arg, (list, tuple)) and te is None:
            return [self.Timeslice(t) for t in arg]
        if isinstance(arg, str):
            ts, tend = parse_time_expression(arg)
        elif te is not None:
            ts, tend = int(arg), int(te)
        else:
            ts = tend = int(arg)
        _clip_window(self.handler, (ts, tend))
        sliced = None
        if self._members is not None:
            sliced = [m.timeslice(ts, tend) for m in self._members]
        return self._clone(sliced, (ts, tend))

    # lowercase alias so paper-style operators read naturally from the
    # fluent session API (``session.nodes(...).timeslice(...).fetch()``)
    timeslice = Timeslice

    def _window(self) -> Tuple[TimePoint, TimePoint]:
        """The clipped window a fetch of this specification reads."""
        if self.handler is None:
            raise QueryError(
                f"cannot fetch a {self._noun} without a TGIHandler"
            )
        return _clip_window(self.handler, self._interval)

    def _clone(
        self,
        members: Optional[list] = None,
        interval: Optional[Tuple[TimePoint, TimePoint]] = None,
    ):
        """This set holding ``members`` (``None``: the specification,
        unfetched) over ``interval`` (default: this set's), without
        fetch accounting.  Predicates are tuples, so the copy shares
        them safely."""
        out = copy.copy(self)
        out._members = members
        out._interval = interval or self._interval
        out.fetch_stats = None
        return out

    def _spark(self):
        if self.handler is not None:
            return self.handler.sc
        from repro.spark.rdd import SparkContext

        return SparkContext(num_workers=1)

    def _map(self, run: Callable[[Any], Tuple[NodeId, Any]]) -> Dict:
        """``{key: value}`` of ``run`` over the members, on the RDD."""
        rdd = self._spark().parallelize(self.collect())
        return dict(rdd.map(run).collect())

    # -- compute operators ---------------------------------------------------
    def NodeCompute(
        self,
        f: Callable,
        key: Optional[str] = None,
        append: bool = False,
        at: Optional[TimePoint] = None,
    ) -> ComputedValues:
        """Paper operator 4 (map): apply ``f`` to each member's operand —
        a node's :class:`StaticNode` state, a subgraph's k-hop
        :class:`Graph` — as of ``at`` (default: the member's start), as
        ``f(operand)`` or ``f(operand, key)``.  ``key``/``append`` are
        accepted for API compatibility and recorded on the result.
        """
        call = _metric_caller(f)

        def run(member):
            name = self._key(member)
            t = at if at is not None else member.get_start_time()
            return name, call(self._operand_at(member, t), name)

        return ComputedValues(self._map(run), key=key)

    def NodeComputeTemporal(
        self,
        f: Callable,
        timepoints: TimepointsSpec = None,
    ) -> TemporalSeriesSet:
        """Paper operator 5: evaluate ``f`` afresh on every version of
        each member.  A member's operands over the whole grid come from
        one pass over its events; for a subgraph, what is O(N·T) — the
        contrast measured in Fig. 17 — is building one graph of the N
        members per point and running ``f`` on it."""
        call = _metric_caller(f)

        def run(member):
            name = self._key(member)
            points = _resolve_timepoints(timepoints, member)
            operands = self._operands_over(member, points)
            return name, [
                (t, call(operand, name))
                for t, operand in zip(points, operands)
            ]

        return TemporalSeriesSet(self._map(run))

    def NodeComputeDelta(
        self,
        f: Callable,
        f_delta: Callable,
        timepoints: TimepointsSpec = None,
    ) -> TemporalSeriesSet:
        """Paper operator 6: evaluate ``f`` once per member at its start,
        then fold each change through ``f_delta(operand_before_event,
        prev_value, event)`` instead of recomputing per version (cost
        O(N+T) for a subgraph)."""
        call = _metric_caller(f)

        def run(member):
            name = self._key(member)
            ts = member.get_start_time()
            operand, events, advance = self._fold(member, ts)
            value = call(operand, name)
            series: List[Tuple[TimePoint, Any]] = [(ts, value)]
            wanted = (
                None
                if timepoints is None
                else set(_resolve_timepoints(timepoints, member))
            )
            for ev in events:
                value = f_delta(operand, value, ev)
                operand = advance(operand, ev)
                if wanted is None or ev.time in wanted:
                    if series[-1][0] == ev.time:
                        series[-1] = (ev.time, value)
                    else:
                        series.append((ev.time, value))
            return name, series

        return TemporalSeriesSet(self._map(run))


class SON(_TemporalSet):
    """A Set of Temporal Nodes (paper Definition 7)."""

    _noun = "SoN"

    def __init__(
        self,
        handler: Optional[TGIHandler] = None,
        _nodes: Optional[List[NodeT]] = None,
        _interval: Optional[Tuple[TimePoint, TimePoint]] = None,
    ) -> None:
        super().__init__(handler, _nodes, _interval)
        self._deferred_predicates: Tuple[Callable[[NodeT], bool], ...] = ()
        self._filter_keys: Optional[List[str]] = None

    # -- the compute operators' hooks: a node's operand is its state
    _key = staticmethod(attrgetter("node_id"))
    _operand_at = staticmethod(NodeT.get_state_at)

    @staticmethod
    def _operands_over(nt: NodeT, points: Sequence[TimePoint]):
        return nt.history.states_at(points)

    @staticmethod
    def _fold(nt: NodeT, ts: TimePoint):
        node = nt.node_id
        return nt.get_state_at(ts), nt.events, (
            lambda state, ev: evolve_node_state(state, ev, node)
        )

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def node_ids(self) -> List[NodeId]:
        return sorted(nt.node_id for nt in self.collect())

    def get_start_time(self) -> TimePoint:
        return min(nt.get_start_time() for nt in self.collect())

    def get_end_time(self) -> TimePoint:
        return max(nt.get_end_time() for nt in self.collect())

    def change_points(self) -> List[TimePoint]:
        """Union of all member change points (``GetAllChangePoints``)."""
        points: Set[TimePoint] = set()
        for nt in self.collect():
            points.update(nt.change_points())
        return sorted(points)

    # ------------------------------------------------------------------
    # specification / algebra operators
    # ------------------------------------------------------------------
    def Select(self, predicate) -> "SON":
        """Entity-centric filtering (paper operator 1).

        ``predicate`` is a string (``"id < 5000"``, ``'community = "A"'``)
        or a callable over :class:`NodeT`.  String predicates hold when
        *any* version of the node satisfies them.  Pure-id predicates on an
        unfetched SoN prune the universe before data is retrieved.
        """
        if isinstance(predicate, str):
            fields = predicate_fields(predicate)
            compiled = parse_entity_predicate(predicate)
            if self._members is None and fields == {"id"}:
                out = self._clone()
                out._pre_id_predicates += (
                    (compiled, id_intervals(predicate)),
                )
                return out
            pred = _any_version_predicate(compiled)
        elif callable(predicate):
            pred = predicate
        else:
            raise QueryError("Select needs a string or callable predicate")
        if self._members is None:
            out = self._clone()
            out._deferred_predicates += (pred,)
            return out
        return self._clone([nt for nt in self._members if pred(nt)])

    select = Select

    def Filter(self, *keys: str) -> "SON":
        """Attribute projection (the Fig. 6 'filter' along the attribute
        dimension): keep only the named attribute keys."""
        if not keys:
            raise QueryError("Filter needs at least one attribute key")
        if self._members is None:
            out = self._clone()
            out._filter_keys = list(keys)
            return out
        return self._clone([nt.project_attrs(keys) for nt in self._members])

    def fetch(self) -> "SON":
        """Execute the accumulated specification against the TGI."""
        if self._members is not None:
            return self
        ts, te = self._window()
        universe = _prune_ids(
            self.handler.known_nodes(ts, te), self._pre_id_predicates,
            ordered=True,
        )
        nodes, stats = self.handler.retrieve_node_histories(universe, ts, te)
        nodes = [
            nt
            for nt in nodes
            if nt.history.initial is not None or nt.history.events
        ]
        for pred in self._deferred_predicates:
            nodes = [nt for nt in nodes if pred(nt)]
        if self._filter_keys is not None:
            nodes = [nt.project_attrs(self._filter_keys) for nt in nodes]
        out = self._clone(nodes, (ts, te))
        out.fetch_stats = stats
        return out

    # ------------------------------------------------------------------
    # graph materialization + evolution
    # ------------------------------------------------------------------
    def GetGraph(self, tp: Optional[TimePoint] = None):
        """Paper operator 3: an in-memory graph over the SoN's nodes.

        With ``tp`` returns the static :class:`Graph` at that time;
        without, returns a :class:`TGraph` supporting ``Evolution``.
        """
        if tp is None:
            return TGraph(self)
        return next(self._graphs_over((tp,)))

    def _graphs_over(self, points: Sequence[TimePoint]) -> Iterator[Graph]:
        """``GetGraph(t)`` for each of ``points``, in order: a fresh graph
        per point, with every member's states over the whole grid read in
        one pass over its events."""
        return (
            induced_graph(states)
            for states in states_by_point(self.collect(), points)
        )

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    @staticmethod
    def Compare(
        a: "SON",
        b: "SON",
        scalar: Callable[[Graph], Any],
        timepoints: Optional[Callable[["SON", "SON"], List[TimePoint]]] = None,
    ) -> Tuple[List[Any], List[Any]]:
        """Paper operator 7: evaluate a scalar function over both operands
        at common timepoints and return the two value series."""
        if timepoints is None:
            points = sorted(set(a.change_points()) | set(b.change_points())
                            | {a.get_start_time(), b.get_start_time()})
        else:
            points = sorted(set(timepoints(a, b)))
        series_a = [scalar(g) for g in a._graphs_over(points)]
        series_b = [scalar(g) for g in b._graphs_over(points)]
        return series_a, series_b

    @staticmethod
    def CompareNodes(
        a: "SON",
        b: "SON",
        scalar: Callable,
        t: Optional[TimePoint] = None,
    ) -> Dict[NodeId, Tuple[Any, Any]]:
        """Node-wise comparison: (value in a, value in b) per shared node."""
        va = a.NodeCompute(scalar, at=t)
        vb = b.NodeCompute(scalar, at=t)
        return {
            n: (va[n], vb[n]) for n in set(va.values) & set(vb.values)
        }

    @staticmethod
    def count() -> Callable[[Graph], int]:
        """Scalar function counting alive nodes (``SON.count()`` in the
        paper's Compare example, Fig. 7b)."""
        return lambda g: g.num_nodes


def _any_version_predicate(
    compiled: Callable[[int, dict], bool]
) -> Callable[[NodeT], bool]:
    def pred(nt: NodeT) -> bool:
        for _t, state in nt.get_versions():
            if state is not None and compiled(nt.node_id, state.attrs):
                return True
        return False

    return pred


class SOTS(_TemporalSet):
    """A Set of Temporal Subgraphs: k-hop neighborhoods around a set of
    center nodes, evolving over time (paper Definition 7 analogue)."""

    _noun = "SoTS"

    def __init__(
        self,
        k: int = 1,
        handler: Optional[TGIHandler] = None,
        _subgraphs: Optional[List[SubgraphT]] = None,
        _interval: Optional[Tuple[TimePoint, TimePoint]] = None,
    ) -> None:
        if k < 1:
            raise QueryError("subgraph radius k must be >= 1")
        super().__init__(handler, _subgraphs, _interval)
        self.k = k

    # -- the compute operators' hooks: a subgraph's operand at one time is
    # its k-hop; over a grid, and in the fold (graph_before_event), it is
    # the graph induced on every member — all three from the subgraph's
    # one fold, whose graph ``NodeComputeDelta`` mutates in place
    _key = staticmethod(attrgetter("center"))
    _operand_at = staticmethod(SubgraphT.get_version_at)
    _operands_over = staticmethod(SubgraphT.members_induced_over)

    @staticmethod
    def _fold(sg: SubgraphT, ts: TimePoint):
        def advance(g: Graph, ev: Event) -> Graph:
            g.apply_event(ev)
            return g

        return (*sg._fold(), advance)

    # -- specification ---------------------------------------------------
    def Select(self, predicate) -> "SOTS":
        """Restrict the *centers*; pure-id string predicates prune before
        fetch, callables filter after."""
        if self._members is None:
            if isinstance(predicate, str):
                if predicate_fields(predicate) != {"id"}:
                    raise QueryError(
                        "pre-fetch SOTS Select supports id predicates only"
                    )
                out = self._clone()
                out._pre_id_predicates += ((
                    parse_entity_predicate(predicate), id_intervals(predicate)
                ),)
                return out
            raise QueryError("pre-fetch SOTS Select needs a string predicate")
        if not callable(predicate):
            raise QueryError("post-fetch SOTS Select needs a callable")
        return self._clone([sg for sg in self._members if predicate(sg)])

    select = Select

    def fetch(self, centers: Optional[Sequence[NodeId]] = None) -> "SOTS":
        if self._members is not None:
            return self
        ts, te = self._window()
        # explicit centers keep their order: only the sorted known-node
        # universe can be sliced
        universe = _prune_ids(
            list(centers) if centers is not None
            else self.handler.known_nodes(ts, te),
            self._pre_id_predicates, ordered=centers is None,
        )
        subgraphs, stats = self.handler.retrieve_subgraphs(
            universe, self.k, ts, te
        )
        out = self._clone(subgraphs, (ts, te))
        out.fetch_stats = stats
        return out
