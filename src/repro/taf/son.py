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

import inspect
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

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
from repro.types import NodeId, TimePoint, canonical_edge

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


class SON:
    """A Set of Temporal Nodes (paper Definition 7)."""

    def __init__(
        self,
        handler: Optional[TGIHandler] = None,
        _nodes: Optional[List[NodeT]] = None,
        _interval: Optional[Tuple[TimePoint, TimePoint]] = None,
    ) -> None:
        self.handler = handler
        self._nodes = _nodes
        self._interval = _interval
        self._pre_id_predicates: List[IdPredicate] = []
        self._deferred_predicates: List[Callable[[NodeT], bool]] = []
        self._filter_keys: Optional[List[str]] = None
        #: fetch accounting of the retrieval that materialized this set
        #: (None for unfetched or derived sets)
        self.fetch_stats = None

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def materialized(self) -> bool:
        return self._nodes is not None

    def collect(self) -> List[NodeT]:
        if self._nodes is None:
            raise QueryError("SoN not fetched yet; call fetch()")
        return self._nodes

    def __iter__(self) -> Iterator[NodeT]:
        return iter(self.collect())

    def __len__(self) -> int:
        return len(self.collect())

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
    def Timeslice(self, arg, te: Optional[TimePoint] = None):
        """Restrict the temporal scope (paper operator 2).

        ``arg`` may be a time expression string (``"t >= Jan 1,2003 and
        t < Jan 1,2004"``), a single timepoint, an explicit ``(ts, te)``
        via two arguments, or a list of timepoints (returning a list of
        SoNs, one per point).
        """
        if isinstance(arg, (list, tuple)) and te is None and not isinstance(arg, str):
            return [self.Timeslice(t) for t in arg]
        if isinstance(arg, str):
            ts, tend = parse_time_expression(arg)
        elif te is not None:
            ts, tend = int(arg), int(te)
        else:
            ts = tend = int(arg)
        _clip_window(self.handler, (ts, tend))
        if self._nodes is None:
            out = self._clone(interval=(ts, tend))
            return out
        sliced = [nt.timeslice(ts, tend) for nt in self._nodes]
        return self._with_nodes(sliced)

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
            if self._nodes is None and fields == {"id"}:
                out = self._clone()
                out._pre_id_predicates.append(
                    (compiled, id_intervals(predicate))
                )
                return out
            pred = _any_version_predicate(compiled)
        elif callable(predicate):
            pred = predicate
        else:
            raise QueryError("Select needs a string or callable predicate")
        if self._nodes is None:
            out = self._clone()
            out._deferred_predicates.append(pred)
            return out
        return self._with_nodes([nt for nt in self._nodes if pred(nt)])

    def Filter(self, *keys: str) -> "SON":
        """Attribute projection (the Fig. 6 'filter' along the attribute
        dimension): keep only the named attribute keys."""
        if not keys:
            raise QueryError("Filter needs at least one attribute key")
        if self._nodes is None:
            out = self._clone()
            out._filter_keys = list(keys)
            return out
        return self._with_nodes([nt.project_attrs(keys) for nt in self._nodes])

    def fetch(self) -> "SON":
        """Execute the accumulated specification against the TGI."""
        if self._nodes is not None:
            return self
        if self.handler is None:
            raise QueryError("cannot fetch a SoN without a TGIHandler")
        ts, te = _clip_window(self.handler, self._interval)
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
        out = SON(self.handler, _nodes=nodes, _interval=(ts, te))
        out.fetch_stats = stats
        return out

    # lowercase aliases so paper-style operators read naturally from the
    # fluent session API (``session.nodes(...).timeslice(...).fetch()``)
    timeslice = Timeslice
    select = Select

    def _clone(self, interval=None) -> "SON":
        out = SON(self.handler, _interval=interval or self._interval)
        out._pre_id_predicates = list(self._pre_id_predicates)
        out._deferred_predicates = list(self._deferred_predicates)
        out._filter_keys = self._filter_keys
        return out

    def _with_nodes(self, nodes: List[NodeT]) -> "SON":
        return SON(self.handler, _nodes=nodes, _interval=self._interval)

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
    # compute operators
    # ------------------------------------------------------------------
    def NodeCompute(
        self,
        f: Callable,
        key: Optional[str] = None,
        append: bool = False,
        at: Optional[TimePoint] = None,
    ) -> ComputedValues:
        """Paper operator 4 (map): apply ``f`` to each node's state.

        ``f`` receives the node's :class:`StaticNode` state as of ``at``
        (default: the slice start).  ``key``/``append`` are accepted for
        API compatibility and recorded on the result.
        """
        rdd = self._spark().parallelize(self.collect())
        call = _metric_caller(f)

        def run(nt: NodeT):
            t = at if at is not None else nt.get_start_time()
            return (nt.node_id, call(nt.get_state_at(t), nt.node_id))

        return ComputedValues(dict(rdd.map(run).collect()), key=key)

    def NodeComputeTemporal(
        self,
        f: Callable,
        timepoints: TimepointsSpec = None,
    ) -> TemporalSeriesSet:
        """Paper operator 5: evaluate ``f`` on every version of each node
        (the node's states over the whole grid come from one pass over
        its events)."""
        rdd = self._spark().parallelize(self.collect())
        call = _metric_caller(f)

        def run(nt: NodeT):
            points = _resolve_timepoints(timepoints, nt)
            states = nt.history.states_at(points)
            return (nt.node_id, [
                (t, call(state, nt.node_id))
                for t, state in zip(points, states)
            ])

        return TemporalSeriesSet(dict(rdd.map(run).collect()))

    def NodeComputeDelta(
        self,
        f: Callable,
        f_delta: Callable,
        timepoints: TimepointsSpec = None,
    ) -> TemporalSeriesSet:
        """Paper operator 6: evaluate ``f`` once per node, then update the
        value incrementally with ``f_delta(prev_state, prev_value, event)``
        instead of recomputing per version."""
        rdd = self._spark().parallelize(self.collect())
        call = _metric_caller(f)

        def run(nt: NodeT):
            ts = nt.get_start_time()
            state = nt.get_state_at(ts)
            value = call(state, nt.node_id)
            series: List[Tuple[TimePoint, Any]] = [(ts, value)]
            wanted = (
                None
                if timepoints is None
                else set(_resolve_timepoints(timepoints, nt))
            )
            for ev in nt.events:
                value = f_delta(state, value, ev)
                state = evolve_node_state(state, ev, nt.node_id)
                if wanted is None or ev.time in wanted:
                    if series[-1][0] == ev.time:
                        series[-1] = (ev.time, value)
                    else:
                        series.append((ev.time, value))
            return (nt.node_id, series)

        return TemporalSeriesSet(dict(rdd.map(run).collect()))

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

    def _spark(self):
        if self.handler is not None:
            return self.handler.sc
        from repro.spark.rdd import SparkContext

        return SparkContext(num_workers=1)


def _any_version_predicate(
    compiled: Callable[[int, dict], bool]
) -> Callable[[NodeT], bool]:
    def pred(nt: NodeT) -> bool:
        for _t, state in nt.get_versions():
            if state is not None and compiled(nt.node_id, state.attrs):
                return True
        return False

    return pred


class SOTS:
    """A Set of Temporal Subgraphs: k-hop neighborhoods around a set of
    center nodes, evolving over time (paper Definition 7 analogue)."""

    def __init__(
        self,
        k: int = 1,
        handler: Optional[TGIHandler] = None,
        _subgraphs: Optional[List[SubgraphT]] = None,
        _interval: Optional[Tuple[TimePoint, TimePoint]] = None,
    ) -> None:
        if k < 1:
            raise QueryError("subgraph radius k must be >= 1")
        self.k = k
        self.handler = handler
        self._subgraphs = _subgraphs
        self._interval = _interval
        self._pre_id_predicates: List[IdPredicate] = []
        #: fetch accounting of the retrieval that materialized this set
        self.fetch_stats = None

    # -- specification ---------------------------------------------------
    def Timeslice(self, arg, te: Optional[TimePoint] = None):
        if isinstance(arg, str):
            ts, tend = parse_time_expression(arg)
        elif te is not None:
            ts, tend = int(arg), int(te)
        else:
            ts = tend = int(arg)
        _clip_window(self.handler, (ts, tend))
        if self._subgraphs is None:
            out = SOTS(self.k, self.handler, _interval=(ts, tend))
            out._pre_id_predicates = list(self._pre_id_predicates)
            return out
        return SOTS(
            self.k,
            self.handler,
            _subgraphs=[sg.timeslice(ts, tend) for sg in self._subgraphs],
            _interval=(ts, tend),
        )

    def Select(self, predicate) -> "SOTS":
        """Restrict the *centers*; pure-id string predicates prune before
        fetch, callables filter after."""
        if self._subgraphs is None:
            if isinstance(predicate, str):
                if predicate_fields(predicate) != {"id"}:
                    raise QueryError(
                        "pre-fetch SOTS Select supports id predicates only"
                    )
                out = SOTS(self.k, self.handler, _interval=self._interval)
                out._pre_id_predicates = self._pre_id_predicates + [
                    (parse_entity_predicate(predicate), id_intervals(predicate))
                ]
                return out
            raise QueryError("pre-fetch SOTS Select needs a string predicate")
        if not callable(predicate):
            raise QueryError("post-fetch SOTS Select needs a callable")
        return SOTS(
            self.k,
            self.handler,
            _subgraphs=[sg for sg in self._subgraphs if predicate(sg)],
            _interval=self._interval,
        )

    def fetch(self, centers: Optional[Sequence[NodeId]] = None) -> "SOTS":
        if self._subgraphs is not None:
            return self
        if self.handler is None:
            raise QueryError("cannot fetch a SoTS without a TGIHandler")
        ts, te = _clip_window(self.handler, self._interval)
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
        out = SOTS(self.k, self.handler, _subgraphs=subgraphs,
                   _interval=(ts, te))
        out.fetch_stats = stats
        return out

    # lowercase aliases matching the fluent session API
    timeslice = Timeslice
    select = Select

    # -- materialized access ------------------------------------------------
    def collect(self) -> List[SubgraphT]:
        if self._subgraphs is None:
            raise QueryError("SoTS not fetched yet; call fetch()")
        return self._subgraphs

    def __iter__(self) -> Iterator[SubgraphT]:
        return iter(self.collect())

    def __len__(self) -> int:
        return len(self.collect())

    # -- compute operators ----------------------------------------------------
    def NodeCompute(
        self,
        f: Callable,
        key: Optional[str] = None,
        append: bool = False,
        at: Optional[TimePoint] = None,
    ) -> ComputedValues:
        """Apply ``f`` to each subgraph's state (``f(graph)`` or
        ``f(graph, center)``) as of ``at`` / the slice start."""
        rdd = self._spark().parallelize(self.collect())
        call = _metric_caller(f)

        def run(sg: SubgraphT):
            t = at if at is not None else sg.get_start_time()
            g = sg.get_version_at(t)
            return (sg.center, call(g, sg.center))

        return ComputedValues(dict(rdd.map(run).collect()), key=key)

    def NodeComputeTemporal(
        self,
        f: Callable,
        timepoints: TimepointsSpec = None,
    ) -> TemporalSeriesSet:
        """Recompute ``f`` afresh on the subgraph at every change point.

        Each member's states over the whole grid come from one pass over
        its events; what is O(N·T) — the contrast measured in Fig. 17 —
        is building one graph of the N members per point and running
        ``f`` on it."""
        rdd = self._spark().parallelize(self.collect())
        call = _metric_caller(f)

        def run(sg: SubgraphT):
            points = _resolve_timepoints(timepoints, sg)
            graphs = sg.members_induced_over(points)
            return (sg.center, [
                (t, call(g, sg.center)) for t, g in zip(points, graphs)
            ])

        return TemporalSeriesSet(dict(rdd.map(run).collect()))

    def NodeComputeDelta(
        self,
        f: Callable,
        f_delta: Callable,
        timepoints: TimepointsSpec = None,
    ) -> TemporalSeriesSet:
        """Incremental evaluation: compute ``f`` once on the initial
        subgraph state, then fold each event through
        ``f_delta(graph_before_event, prev_value, event)`` (cost O(N+T))."""
        rdd = self._spark().parallelize(self.collect())
        call = _metric_caller(f)

        def run(sg: SubgraphT):
            ts = sg.get_start_time()
            g = sg.members_induced_at(ts)
            value = call(g, sg.center)
            series: List[Tuple[TimePoint, Any]] = [(ts, value)]
            wanted = (
                None
                if timepoints is None
                else set(_resolve_timepoints(timepoints, sg))
            )
            for ev in sg.member_events():
                if ev.time <= ts:
                    continue
                value = f_delta(g, value, ev)
                g.apply_event(ev)
                if wanted is None or ev.time in wanted:
                    if series[-1][0] == ev.time:
                        series[-1] = (ev.time, value)
                    else:
                        series.append((ev.time, value))
            return (sg.center, series)

        return TemporalSeriesSet(dict(rdd.map(run).collect()))

    def _spark(self):
        if self.handler is not None:
            return self.handler.sc
        from repro.spark.rdd import SparkContext

        return SparkContext(num_workers=1)
