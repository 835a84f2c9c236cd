"""`GraphSession`: the unified query facade over store + analytics.

The paper separates the historical graph store (TGI, Sec. 4) from the
analytics layer (TAF, Sec. 5); before this module, using both meant
hand-wiring four entry points — ``TGI.get_*``, ``TGIHandler.fetch_*``,
``SON``/``SOTS``, and the CLI's own plumbing — and nobody exploited the
planner.  A session owns all of it:

- the :class:`~repro.index.tgi.index.TGI` (cluster, executor, planner),
- a :class:`~repro.taf.handler.TGIHandler` + Spark context for the TAF
  operand paths,
- a slot in the **process-wide cache registry**
  (:data:`repro.exec.shared_caches`, keyed ``(index id, DeltaKey)``), so
  every session opened over the same stored index shares warm rows,

and exposes one fluent, lazily-planned query builder::

    session = open_graph("wiki.hgs")
    g       = session.at(900).snapshot().value
    hood    = session.at(900).khop(17, k=2)          # cost-based Alg 3 vs 4
    hist    = session.between(100, 900).node_histories([3, 5, 8])
    son     = session.nodes("id < 100").timeslice(100, 900).fetch()

Builder terminals compile to a :class:`~repro.api.QueryRequest`, price the
candidate plans via ``Cluster.price`` (Algorithm 3 snapshot-first
vs Algorithm 4 micro-delta k-hop, one shared frontier for several
centers) — fetch plans the :class:`~repro.index.tgi.planner.TGIPlanner`
builds with the executable builders' own stage helpers — execute the
cheapest, and return a :class:`~repro.api.QueryResult` whose
:class:`~repro.api.QueryStats` carries the chosen plan and its predicted
vs. actual cost.  ``SON``/``SOTS`` come back pre-bound to the session's
handler.

**There is one way to run a query.**  Every terminal kind compiles
(``_compile``) to exactly one fetch plan plus a finalize closure, a
call's plans run through one ``PlanExecutor.execute_many``, and each
request is finalized off its plan's values (``_finalize``).
``execute(r)`` is the batch of one — its plan run alone, the only
outcome the EWMA correction learns from; ``execute_batch`` runs many on
one coalesced timeline.  Stats travel with results (the index
returns ``(value, FetchStats)``), so threads sharing a session each
report their own work.

Retrieval-as-planning over priced alternatives, and single- and
multi-point queries answered from one shared plan, follow "Efficient
Snapshot Retrieval over Historical Graph Data" (Khurana & Deshpande,
ICDE 2013); here the unit priced is the whole fetch plan.

Direct construction of ``TGIHandler`` (and calling ``TGI.get_*`` for
anything but internal plumbing) is deprecated in favor of sessions; both
classes keep working for direct callers.
"""

from __future__ import annotations

import threading
import time as _time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.api import (
    ALGO_AUTO,
    ALGO_KHOP,
    ALGO_SNAPSHOT_FIRST,
    ALGORITHMS,
    DeadlineExceeded,
    QueryRequest,
    QueryResult,
    QueryStats,
)
from repro.cancellation import cancel_scope
from repro.errors import IndexError_, QueryError, StorageError
from repro.exec import (
    DeltaCache,
    FetchPlan,
    PipelineResult,
    PlanExecutor,
    StateCheckpointCache,
    shared_caches,
)
from repro.graph.static import Graph
from repro.index.tgi import TGI, TGIPlanner, price_plan
from repro.index.tgi.query import ReplayShare
from repro.kvstore.cost import COUNTER_NAMES, ExecutionTimeline, FetchStats
from repro.kvstore.degrade import PartialCollector, partial_scope
from repro.obs.metrics import Gauge, SessionMetrics
from repro.obs.trace import Span, Tracer, current_span
from repro.spark.rdd import SparkContext
from repro.storage import load_index
from repro.taf.handler import TGIHandler
from repro.taf.son import SON, SOTS
from repro.types import NodeId, TimePoint

#: Smoothing factor of the per-algorithm predicted→actual correction
#: EWMA: each executed query nudges its algorithm's factor 30% of the way
#: toward the observed actual/predicted ratio.
EWMA_ALPHA = 0.3

#: Candidate preference on predicted-cost ties: the targeted algorithms'
#: bounds are conservative (the fetch loads partitions lazily and may
#: touch fewer), while snapshot-first's estimate is exact — so a tie goes
#: to the targeted plan.
_TIE_ORDER = {ALGO_KHOP: 0, ALGO_SNAPSHOT_FIRST: 1}


@dataclass
class _Spec:
    """One request compiled for execution: its ``(plan, finalize,
    extra)`` triple (see :meth:`TGI._retrieve`), the recipe turning the
    finalized output into the request's value shape, and what pricing
    decided."""

    compiled: Tuple
    assemble: Callable[[Any], Any]
    algorithm: str
    predicted: Optional[float]
    #: the uncorrected model price the EWMA compares actuals against
    raw: Optional[float]
    candidates: Dict[str, float]
    #: position of this spec's plan in the run's shared plan list
    index: int = 0
    #: request slots answered by this spec (equal requests share one)
    members: int = 1
    #: the finalized first result (or the exception finalizing raised),
    #: set once and copied for every further member
    outcome: Union[QueryResult, Exception, None] = None


def _private_copy(value: Any) -> Any:
    """A duplicate request's own copy of a result value: graphs are
    mutable (callers may edit theirs), so each is copied; node states
    and histories are immutable and shared."""
    if isinstance(value, Graph):
        return value.copy()
    if isinstance(value, list):
        return [_private_copy(item) for item in value]
    return value


def open_graph(
    path: Union[str, Path],
    *,
    workers: int = 2,
    clients: int = 1,
    cache_entries: Optional[int] = None,
    checkpoint_entries: Optional[int] = None,
) -> "GraphSession":
    """Open a stored index as a :class:`GraphSession`.

    The session's cache-registry id is the resolved file path, so two
    ``open_graph`` calls on the same file — in the same process — share
    one :class:`~repro.exec.DeltaCache` (and, when enabled, one
    :class:`~repro.exec.StateCheckpointCache`) and serve each other's
    warm rows and replayed states.

    Args:
        path: an index file written by ``save_index`` / ``hgs build``.
        workers: simulated analytics workers for the TAF paths.
        clients: default parallel fetch clients per store round.
        cache_entries: shared-cache capacity; ``None`` defers to the
            index's ``delta_cache_entries`` (0 keeps caching off, which
            reproduces uncached fetch accounting exactly).
        checkpoint_entries: materialized-state checkpoint capacity
            (``None`` defers to the index's ``checkpoint_entries``).
    """
    index = load_index(path)
    if not isinstance(index, TGI):
        raise QueryError(
            f"open_graph requires a TGI index, got {type(index).__name__}; "
            "baseline index families remain queryable via load_index() "
            "and the HistoricalGraphIndex interface"
        )
    return GraphSession(
        index,
        index_id=index_id_for(path),
        workers=workers,
        clients=clients,
        cache_entries=cache_entries,
        checkpoint_entries=checkpoint_entries,
    )


def index_id_for(path: Union[str, Path]) -> str:
    """Registry id for a stored index: resolved path plus a content
    fingerprint (mtime + size), so rebuilding an index file in-process
    starts a fresh cache slot instead of serving the old file's rows."""
    resolved = Path(path).expanduser().resolve()
    st = resolved.stat()
    return f"{resolved}:{st.st_mtime_ns}:{st.st_size}"


class GraphSession:
    """One front door to a built :class:`TGI` and its analytics layer.

    Args:
        tgi: the index to serve queries from.
        index_id: registry key for cross-session cache sharing; sessions
            with equal ids share one cache.  ``None`` (the default for
            in-memory indexes) keeps the cache private to the ``tgi``
            object — same-object sessions still share through it, but
            nothing enters the process registry, whose keys must outlive
            the index object.
        spark_context: analytics cluster; built from ``workers`` if
            omitted.
        workers: simulated analytics workers when building the context.
        clients: default parallel fetch clients for store rounds.
        cache_entries: capacity of the shared delta cache; ``None`` uses
            the index's ``delta_cache_entries`` config (so the default
            session reproduces the index's configured fetch accounting),
            any positive value forces caching on, 0 forces it off.
        checkpoint_entries: capacity of the materialized-state checkpoint
            cache (``None`` = the index's ``checkpoint_entries``; 0 off).
            Warm-partition replay is seeded from these checkpoints and
            the planner prices warm plans accordingly.

    Sessions over a stored index (``index_id`` set) hold a reference on
    the process-wide registry slot; call :meth:`close` (or use the
    session as a context manager) when done — the last reference drops
    the shared caches.
    """

    def __init__(
        self,
        tgi: TGI,
        *,
        index_id: Optional[str] = None,
        spark_context: Optional[SparkContext] = None,
        workers: int = 2,
        clients: int = 1,
        cache_entries: Optional[int] = None,
        checkpoint_entries: Optional[int] = None,
    ) -> None:
        if not isinstance(tgi, TGI):
            raise QueryError(
                f"GraphSession serves TGI indexes, got {type(tgi).__name__}"
            )
        self.tgi = tgi
        self.index_id = index_id
        self._registered = False
        self._closed = False
        capacity = (
            cache_entries
            if cache_entries is not None
            else tgi.config.delta_cache_entries
        )
        ckpt_capacity = (
            checkpoint_entries
            if checkpoint_entries is not None
            else tgi.config.checkpoint_entries
        )
        if capacity < 0:
            raise QueryError("cache_entries cannot be negative")
        if ckpt_capacity < 0:
            raise QueryError("checkpoint_entries cannot be negative")
        slot = None
        if index_id is not None and (capacity > 0 or ckpt_capacity > 0):
            slot = shared_caches.acquire(
                index_id,
                delta_entries=capacity,
                checkpoint_entries=ckpt_capacity,
            )
            self._registered = True
        self.cache = None
        if capacity > 0:
            if slot is not None:
                self.cache = slot.delta
            else:
                # anonymous in-memory index: reuse its own cache or make
                # a private one — never a registry slot keyed by object
                # identity (id() reuse would alias a dead index's rows)
                self.cache = (
                    tgi.delta_cache if tgi.delta_cache is not None
                    else DeltaCache(capacity)
                )
        # rebind the index's executor so every path — direct TGI calls,
        # TAF fetches, session queries — reads through the shared cache;
        # an earlier session may have bound one to this index, and
        # capacity 0 must really mean uncached accounting
        tgi.delta_cache = self.cache
        tgi.executor = PlanExecutor(tgi.cluster, self.cache)
        self.checkpoint_cache = None
        if ckpt_capacity > 0:
            if slot is not None:
                self.checkpoint_cache = slot.checkpoints
            else:
                self.checkpoint_cache = (
                    tgi.checkpoints if tgi.checkpoints is not None
                    else StateCheckpointCache(ckpt_capacity)
                )
        # checkpoint_entries 0 must really mean replay-from-root
        tgi.checkpoints = self.checkpoint_cache
        self.sc = spark_context or SparkContext(num_workers=workers)
        self.clients = clients
        self.handler = TGIHandler(
            tgi, self.sc, clients_per_partition=clients
        )
        self.planner = TGIPlanner(tgi)
        #: Wall clock for deadline enforcement (monotonic seconds);
        #: injectable so tests can drive expiry deterministically.
        self.clock: Callable[[], float] = _time.monotonic
        #: The one registry this session's queries are recorded into
        #: (a service over the session renders it as ``/metrics``).
        self.metrics = SessionMetrics()
        # per-algorithm EWMA of observed actual/predicted sim-ms ratios,
        # as cached handles on ``metrics``' gauges; applied
        # multiplicatively to subsequent candidate pricing
        self._correction: Dict[str, Gauge] = {}
        # guards the EWMA's read-modify-write from collector worker threads
        self._lock = threading.Lock()
        #: Optional :class:`repro.obs.Tracer`.  ``None`` (the default)
        #: leaves every instrumentation site on its no-op path, so
        #: untraced accounting is bit-identical to pre-tracing builds.
        self.tracer: Optional[Tracer] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this session's reference on the shared cache registry.

        Idempotent.  The index object stays usable (its caches remain
        bound); only the registry slot's lifetime is affected — when the
        last session over an index id closes, the slot is dropped so
        long-running services don't accumulate caches for every index
        they ever opened."""
        if self._closed:
            return
        self._closed = True
        if self._registered and self.index_id is not None:
            shared_caches.release(self.index_id)

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _factor(self, algorithm: str) -> float:
        gauge = self._correction.get(algorithm)
        return gauge.value if gauge is not None else 1.0

    def _corrected(self, candidates: Dict[str, float]) -> Dict[str, float]:
        return {
            name: ms * self._factor(name) for name, ms in candidates.items()
        }

    def _observe(
        self, algorithm: str, predicted_raw: Optional[float],
        actual: float,
    ) -> None:
        """Fold one query's predicted-vs-actual outcome into the
        algorithm's correction factor."""
        if predicted_raw is None or predicted_raw <= 0.0:
            return
        ratio = actual / predicted_raw
        with self._lock:  # read-modify-write from concurrent queries
            gauge = self._correction.get(algorithm)
            if gauge is None:
                gauge = self.metrics.correction(algorithm)
                gauge.set(1.0)
                self._correction[algorithm] = gauge
            gauge.set((1.0 - EWMA_ALPHA) * gauge.value + EWMA_ALPHA * ratio)

    # ------------------------------------------------------------------
    # construction shims
    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, tgi: TGI, **kwargs) -> "GraphSession":
        """Session over an already-built (or just-loaded) index."""
        return cls(tgi, **kwargs)

    # ------------------------------------------------------------------
    # fluent builder entry points
    # ------------------------------------------------------------------
    def at(self, t: TimePoint) -> "TimeView":
        """Queries anchored at one time point (snapshot, k-hop, state)."""
        return TimeView(self, t)

    def between(self, ts: TimePoint, te: TimePoint) -> "RangeView":
        """Queries over an interval (histories, neighborhood evolution)."""
        if te < ts:
            raise QueryError(f"empty interval [{ts}, {te}]")
        return RangeView(self, ts, te)

    def nodes(self, predicate=None) -> SON:
        """A lazy :class:`~repro.taf.son.SON` pre-bound to this session's
        handler; ``predicate`` (string or callable) is applied as a
        ``Select`` before fetch."""
        son = SON(self.handler)
        if predicate is not None:
            son = son.Select(predicate)
        return son

    def subgraphs(self, k: int = 1, predicate=None) -> SOTS:
        """A lazy :class:`~repro.taf.son.SOTS` of k-hop neighborhoods
        pre-bound to this session's handler."""
        sots = SOTS(k, self.handler)
        if predicate is not None:
            sots = sots.Select(predicate)
        return sots

    # ------------------------------------------------------------------
    # request pricing
    # ------------------------------------------------------------------
    def _safe_price(
        self, plan_or_keys, clients: int,
        shared_keys: Optional[Set] = None,
    ) -> Optional[float]:
        """Price a plan, or ``None`` when the cluster cannot route it.

        Pricing walks every replica set at the cluster clock; with
        machines crashed then (fault injection, real failover) a
        placement may have no live replica and :meth:`Cluster.price`
        raises.  That must not kill the query at plan time — the fetch
        decides at fetch time whether the key recovers, reroutes,
        degrades, or fails typed — so dead placements simply make the
        candidate unpriceable."""
        try:
            return price_plan(
                self.tgi.cluster, plan_or_keys, clients=clients,
                shared_keys=shared_keys,
            )
        except StorageError:
            return None

    def _choose_khop(
        self, request: QueryRequest,
        shared_keys: Optional[Set] = None,
    ) -> Tuple[
        str, Dict[str, float], Dict[str, float], Dict[str, List[str]],
        Optional[FetchPlan],
    ]:
        """Price the two k-hop candidates and resolve the algorithm.

        ``snapshot-first`` is priced on the snapshot plan, ``khop`` on the
        targeted bound: a lone center's plan, or for several centers the
        union of every alive one's (the shared frontier fetches it once;
        of no alive center, an empty plan, as ``get_khops`` answers).
        ``shared_keys`` is the batched-execution shared-context discount
        (see :func:`~repro.index.tgi.planner.price_plan`): keys an
        already-chosen concurrent plan will fetch anyway price at zero.

        Forced choices pass through; ``auto`` takes the cheapest priced
        candidate (ties break toward the targeted bound, see
        :data:`_TIE_ORDER`), after the per-algorithm EWMA corrections
        learned from earlier queries.  With no alive center to bound, or
        no priceable candidate (dead placements under fault injection),
        it runs Algorithm 4, which raises (or degrades) without fetching
        a full snapshot.  Returns the choice, the corrected candidate
        prices (what callers report), the raw model prices (what the
        feedback loop compares actuals against), each candidate's planner
        notes (why a plan prices the way it does: stats bounds,
        checkpoint seedings, warm snapshots), and the chosen candidate's
        plan — what it was priced on, what the batch discounts for later
        members and what EXPLAIN prints (``None`` for a lone center
        unknown at ``t``)."""
        snap_plan = self.planner.plan_snapshot(request.t)
        plans = {ALGO_SNAPSHOT_FIRST: snap_plan}
        notes = {ALGO_SNAPSHOT_FIRST: list(snap_plan.notes)}
        subs: List[FetchPlan] = []
        khop_notes: List[str] = []
        for center in dict.fromkeys(request.nodes):
            try:
                sub = self.planner.plan_khop(center, request.t, k=request.k)
            except IndexError_:
                continue
            subs.append(sub)
            if sub.expected_keys is not None:
                khop_notes.append(
                    f"center {center}: expected "
                    f"{len(sub.expected_keys)}/{sub.num_keys} keys"
                )
            for note in sub.notes:
                if note not in khop_notes:
                    khop_notes.append(note)
        if not request.single:
            plans[ALGO_KHOP] = self.planner.union_khops(
                request.nodes, request.t, request.k, subs
            )
        elif subs:
            plans[ALGO_KHOP] = subs[0]
        if subs:
            notes[ALGO_KHOP] = khop_notes
        raw: Dict[str, float] = {}
        for name in notes:
            price = self._safe_price(
                plans[name], request.clients, shared_keys=shared_keys
            )
            if price is not None:
                raw[name] = price
        candidates = self._corrected(raw)
        if request.algorithm != ALGO_AUTO:
            chosen = request.algorithm
        elif not subs or not candidates:
            chosen = ALGO_KHOP
        else:
            chosen = min(
                candidates,
                key=lambda name: (candidates[name], _TIE_ORDER[name]),
            )
        self._trace_pricing(chosen, candidates, raw)
        return chosen, candidates, raw, notes, plans.get(chosen)

    def _trace_pricing(
        self,
        chosen: str,
        candidates: Dict[str, float],
        raw: Dict[str, float],
    ) -> None:
        """Attach a ``pricing`` span recording the candidate table and
        the choice (no-op unless this query is being traced)."""
        span = current_span()
        if span is not None:
            span.child(
                "pricing",
                chosen=chosen,
                candidates={k: round(v, 6) for k, v in candidates.items()},
                raw={k: round(v, 6) for k, v in raw.items()},
                corrections={
                    k: round(self._factor(k), 6) for k in candidates
                },
            ).end()

    def _plan_for(self, request: QueryRequest) -> FetchPlan:
        """The plan a non-k-hop request is priced and explained on: its
        executed plan's stages as the planner lists them from metadata —
        a lone subject's Algorithm 2 plan (a ``khop_history`` is its
        center's), else the deduplicated batched plan of the
        population."""
        if request.kind == "snapshot":
            return self.planner.plan_snapshot(request.t)
        ts, te = (
            (request.t, request.t) if request.kind == "node_state"
            else (request.ts, request.te)
        )
        if request.single or request.kind != "node_histories":
            return self.planner.plan_node_history(request.nodes[0], ts, te)
        return self.planner.plan_node_histories(request.nodes, ts, te)

    def _predict(
        self, request: QueryRequest,
        shared_keys: Optional[Set] = None,
    ) -> Tuple[Optional[float], List]:
        """Predicted cost for the non-k-hop kinds (single candidate) and
        the keys it was priced on (what a batch discounts for the
        members planned after this one)."""
        if request.kind == "khop_history":
            return None, []  # no metadata-only bound yet
        try:
            plan = self._plan_for(request)
        except IndexError_:
            # unknown node / time out of range — execution raises the
            # real error
            return None, []
        keys = plan.pricing_keys()
        # a placement with no live replica at plan time makes the plan
        # unpriceable, not unrunnable (see _safe_price)
        return (
            self._safe_price(keys, request.clients, shared_keys=shared_keys),
            keys,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        request: QueryRequest,
        *,
        deadline_at: Optional[float] = None,
    ) -> QueryResult:
        """Price, select, and run one compiled request — the batch of
        one: the same compile → run → finalize code as
        :meth:`execute_batch`, the request's one plan run alone.

        ``deadline_at`` is an absolute instant on :attr:`clock`
        (monotonic seconds); when omitted it is derived from the
        request's ``deadline_ms`` budget, counted from now.  An expired
        deadline — at entry, between fetch rounds, or at assembly —
        raises :class:`~repro.api.DeadlineExceeded`.  Cancellation is
        cooperative: the executor checks between stages and scheduling
        rounds, never mid-``multiget``, so a fetch already issued to the
        store completes before the query aborts.

        With a :attr:`tracer` attached (and this query sampled), the
        whole execution runs under a root ``query`` span: pricing,
        stages, store rounds, apply lanes and resilience events nest
        beneath it, and the finished span carries the result's
        :class:`QueryStats` as attributes.
        """
        return self._traced(
            "query", {"kind": request.kind},
            lambda: self._run([request], [deadline_at])[0],
            lambda root, result: self._annotate_query_span(
                root, request, result
            ),
        )

    def _traced(
        self,
        name: str,
        attrs: Dict[str, Any],
        body: Callable[[], Any],
        annotate: Callable[[Span, Any], None],
    ) -> Any:
        """Run ``body`` — under a root span when a :attr:`tracer` is
        attached, this call is sampled and no trace is open already —
        and let ``annotate`` project its outcome onto that span."""
        tracer = self.tracer
        if (
            tracer is None
            or current_span() is not None  # already inside a trace
            or not tracer.should_sample()
        ):
            return body()
        with tracer.trace(name, **attrs) as root:
            try:
                out = body()
            except Exception as exc:
                root.set(error=type(exc).__name__)
                raise
            annotate(root, out)
        return out

    @staticmethod
    def _annotate_query_span(
        span: Span, request: QueryRequest, result: QueryResult
    ) -> None:
        """Project the result's stats onto its span: the span tree holds
        at least everything ``QueryStats`` reports, so the terminal
        counters are a view of the trace (traffic, clock and every
        :class:`~repro.kvstore.cost.Counters` field by name,
        ``bytes_read`` as ``bytes``)."""
        stats = result.stats
        span.set(
            kind=request.kind,
            algorithm=stats.algorithm,
            predicted_ms=stats.predicted_ms,
            candidates=stats.candidates,
            bytes=stats.bytes_read,
            requests=stats.requests,
            sim_time_ms=stats.sim_time_ms,
            **{name: getattr(stats, name) for name in COUNTER_NAMES},
        )
        if result.error is not None:
            span.set(error=type(result.error).__name__)
        # the root's sim window is the query's makespan by construction,
        # so the exported trace reconciles with QueryStats.sim_time_ms
        span.set_sim(0.0, stats.sim_time_ms or 0.0)

    @staticmethod
    def _fold_degraded(
        result: QueryResult, collector: PartialCollector
    ) -> None:
        """Record what an ``allow_partial`` request's collector caught:
        the dropped partitions land on both the stats and the result's
        ``degraded`` block.  A fault-free run leaves both untouched, so
        ``degraded is None`` still means the payload is complete."""
        if not collector.degraded:
            return
        partitions = sorted(
            set(result.stats.degraded_partitions) | collector.partitions
        )
        keys = max(result.stats.degraded_keys, len(collector.keys))
        result.stats.degraded_partitions = partitions
        result.stats.degraded_keys = keys
        result.degraded = {"keys": keys, "partitions": partitions}

    def execute_batch(
        self,
        requests: Sequence[QueryRequest],
        *,
        capture_errors: bool = False,
        deadline_ats: Optional[Sequence[Optional[float]]] = None,
    ) -> List[QueryResult]:
        """Price and run several requests through one shared execution.

        Each request is priced and its algorithm chosen exactly as
        :meth:`execute` would — except later requests see the
        **shared-context discount**: keys an already-chosen concurrent
        plan will fetch anyway price at zero, because coalesced execution
        fetches them once.  The chosen plans — one per distinct request —
        then run through a single ``execute_many``: keys needed by several
        requests are fetched once (single-flight dedup) and same-window
        fetches to the store merge into one multiget round.  The batch's
        k-hop plans also share one replayed state per ``(timespan, t)``
        for the length of this call (see :meth:`_run`): a partition several
        neighborhoods touch is replayed once and read by the rest,
        reported per plan as ``coalesced_replays``; which keys each plan
        declares and fetches — and so every traffic and clock figure
        below — is unaffected.

        Returns one :class:`QueryResult` per request, in input order,
        with values member-identical to a serial :meth:`execute` loop.
        Each result's :class:`QueryStats` attributes shared work fairly:
        a row fetched for ``n`` requests contributes ``1/n`` of a request
        and ``stored_bytes/n`` bytes to each, so the per-request shares
        sum exactly to the deduplicated totals; ``coalesced_hits`` /
        ``merged_rounds`` surface how much sharing happened.

        **Equal requests are planned once.**  Requests that compare equal
        (same kind, subjects, time, ``k``, algorithm, clients, deadline
        budget and ``allow_partial``) share one compiled plan: the first
        is priced, executed and finalized; every duplicate gets a
        *private copy* of the value and the same ``algorithm`` /
        ``candidates`` / ``predicted_ms`` / ``sim_time_ms`` (and
        ``degraded`` block).  The group's fair ``requests`` and
        ``bytes_read`` are split evenly over its members, so the shares
        still sum to the deduplicated totals; every other counter
        (rounds, cache / checkpoint / coalescing outcomes, retries) stays
        on the first member, which did the work, so a sum over the batch
        counts each event once.  Deadlines stay per slot: an expired
        duplicate neither joins nor blocks its group.

        The serial baseline is a plain :meth:`execute` loop.  Every kind
        has a plan form — ``khop_history`` chains its neighbors' history
        stages behind the center's — so every kind coalesces.  The
        per-algorithm EWMA correction is *not* updated from batched
        runs — coalesced actuals reflect shared work and would mistrain
        the standalone predictions.

        ``capture_errors=True`` turns per-request failures (bad plans,
        dead nodes at assembly, expired deadlines) into
        :class:`QueryResult` slots carrying ``error`` instead of raising
        — the serving path uses this so one bad request in a window
        cannot take down its batchmates.  ``deadline_ats`` supplies
        absolute per-request deadlines on :attr:`clock` (e.g. measured
        from HTTP admission so collector queue time counts against the
        budget); unset slots fall back to each request's
        ``deadline_ms``.  Shared execution is cancelled mid-flight only
        when *every* plan-participating request carries a deadline —
        otherwise an unbounded request keeps the batch alive and late
        requests expire at their assembly check.
        """
        requests = list(requests)
        if deadline_ats is None:
            deadline_ats = [None] * len(requests)
        elif len(deadline_ats) != len(requests):
            raise ValueError("deadline_ats length must match requests length")

        def annotate(root: Span, results: List[QueryResult]) -> None:
            sim_end = 0.0
            for i, (request, result) in enumerate(zip(requests, results)):
                q = root.child("query", lane=f"query-{i}")
                self._annotate_query_span(q, request, result)
                q.end()
                sim_end = max(sim_end, result.stats.sim_time_ms or 0.0)
            root.set(sim_time_ms=sim_end)
            root.set_sim(0.0, sim_end)

        return self._traced(
            "batch", {"size": len(requests)},
            lambda: self._run(requests, deadline_ats, capture_errors),
            annotate,
        )

    def _run(
        self,
        requests: List[QueryRequest],
        deadline_ats: Sequence[Optional[float]],
        capture_errors: bool = False,
    ) -> List[QueryResult]:
        """The one way a query runs: :meth:`_compile` every distinct
        request to one plan + finalizer, execute all plans in one
        ``execute_many``, :meth:`_finalize` each request off its plan's
        values.  One distinct request asked once runs *standalone* — its
        plan alone, the outcome fed to the EWMA; anything more shares one
        coalesced timeline and is attributed fair shares of it.

        Either way the k-hop plans of one call share what they replay:
        one :class:`~repro.index.tgi.query.ReplayShare`, created here,
        handed to every plan :meth:`_compile` builds and dropped on
        return.  It must not outlive the call — replayed
        state parked on the session would be garbage the next query's
        collector walks."""
        # absolute deadlines on the session clock: the given instants,
        # else each request's ``deadline_ms`` budget counted from now
        now = self.clock()
        deadlines = [
            at if at is not None or request.deadline_ms is None
            else now + request.deadline_ms / 1000.0
            for request, at in zip(requests, deadline_ats)
        ]
        results: List[Optional[QueryResult]] = [None] * len(requests)

        def fail(i: int, exc: Exception) -> None:
            if not capture_errors:
                raise exc
            results[i] = QueryResult(
                requests[i], None, QueryStats(), error=exc
            )

        def expired(i: int) -> bool:
            return deadlines[i] is not None and self.clock() > deadlines[i]

        shared: Set = set()
        # one replayed state per (timespan, t) for every k-hop plan of
        # this execution; a local, so it dies with this call
        replay_share = ReplayShare()
        specs: List[Optional[_Spec]] = []
        plans: List[Any] = []
        # equal requests are planned once: every later one joins the
        # first's spec (deadlines stay per slot, so an expired duplicate
        # neither joins nor blocks the group)
        planned: Dict[QueryRequest, _Spec] = {}
        for i, request in enumerate(requests):
            spec = None
            if expired(i):
                fail(i, DeadlineExceeded(
                    f"deadline exceeded before planning {request.kind} query"
                ))
            elif request in planned:
                spec = planned[request]
                spec.members += 1
            else:
                try:
                    spec = planned[request] = self._compile(
                        request, shared, replay_share
                    )
                except Exception as exc:
                    fail(i, exc)
                else:
                    spec.index = len(plans)
                    plans.append(spec.compiled[0])
            specs.append(spec)
        live = [i for i, spec in enumerate(specs) if spec is not None]
        if not live:
            return results
        standalone = sum(spec.members for spec in planned.values()) == 1
        # cancel execution only when every participant is deadline-
        # bounded: the latest deadline is the first instant at which *no*
        # batchmate can still use the remaining fetches
        cancel_at = (
            max(deadlines[i] for i in live)
            if all(deadlines[i] is not None for i in live)
            else None
        )

        def check() -> None:
            if self.clock() > cancel_at:
                raise DeadlineExceeded("deadline exceeded during execution")

        # A shared-window collector keeps one request's dead partitions
        # from killing its batchmates: the fetch drops the unreachable
        # keys instead of raising, and each request settles
        # its own fate at finalize time — allow_partial requests fold
        # the drop into a degraded result, strict ones hit the missing
        # rows and fail (captured per-request when capture_errors).
        window = (
            PartialCollector()
            if capture_errors
            or any(request.allow_partial for request in requests)
            else None
        )
        try:
            with partial_scope(window), (
                cancel_scope(check) if cancel_at is not None
                else nullcontext()
            ):
                pipe = self.tgi.executor.execute_many(
                    plans,
                    clients=max(request.clients for request in requests),
                )
        except (DeadlineExceeded, StorageError) as exc:
            # under a window collector the fetch drops unserved keys
            # instead of raising, so what still escapes (no collector,
            # a missing key) fails every live slot
            for i in live:
                fail(i, exc)
            return results
        for i in live:
            request, spec = requests[i], specs[i]
            if expired(i):
                fail(i, DeadlineExceeded(
                    f"deadline exceeded assembling {request.kind} query"
                ))
                continue
            settled = spec.outcome is not None
            if not settled:
                spec.outcome = self._finalize(
                    request, spec, pipe, standalone, capture_errors
                )
            if isinstance(spec.outcome, Exception):
                fail(i, spec.outcome)
                continue
            results[i] = (
                self._duplicate_result(request, spec.outcome) if settled
                else spec.outcome
            )
            self.metrics.record(request.kind, results[i].stats)
        return results

    def _finalize(
        self,
        request: QueryRequest,
        spec: "_Spec",
        pipe: PipelineResult,
        standalone: bool,
        capture_errors: bool,
    ) -> Union[QueryResult, Exception]:
        """Finalize one compiled spec off the execution's values into its
        first member's result — or, under ``capture_errors``, the
        exception that felled it (which every member then reports)."""
        executed = pipe.results[spec.index]
        fetch = FetchStats()
        fetch.merge(executed.stats)
        # finalize under the request's own collector: allow_partial
        # requests absorb missing rows as a degraded result; strict
        # requests run scope-less so a dropped partition raises a
        # typed PartitionUnavailable into their error slot
        req_collector = PartialCollector() if request.allow_partial else None
        try:
            with partial_scope(req_collector):
                value = spec.assemble(
                    self.tgi._finish(spec.compiled, executed.values, fetch)
                )
        except Exception as exc:
            if not capture_errors:
                raise
            return exc
        stats = QueryStats.from_fetch(
            fetch,
            algorithm=spec.algorithm,
            predicted_ms=spec.predicted,
            candidates=spec.candidates,
        )
        if standalone:
            # only a plan run alone may train the EWMA
            self._observe(spec.algorithm, spec.raw, stats.sim_time_ms)
        else:
            # the request completes when its plan does on the shared
            # timeline; shared fetches are attributed fairly and the
            # spec's share split evenly over its members, so the batch's
            # shares still sum to the deduplicated totals
            report = pipe.coalesce
            stats.requests = report.fair_requests[spec.index] / spec.members
            stats.bytes_read = report.fair_bytes[spec.index] / spec.members
        result = QueryResult(request, value, stats)
        if req_collector is not None:
            self._fold_degraded(result, req_collector)
        return result

    @staticmethod
    def _duplicate_result(
        request: QueryRequest, first: QueryResult
    ) -> QueryResult:
        """The result of a batch slot whose request equals an earlier
        member's: a private copy of the value, the shared plan outcome
        (algorithm, prices, completion instant, degradation) and its even
        share of the fetch.  The work counters (rounds, cache and
        checkpoint outcomes, coalescing, retries) stay on the first
        member alone — the duplicate did none of that work, and a sum
        over the batch counts each event once."""
        done = first.stats
        stats = QueryStats(
            requests=done.requests,
            bytes_read=done.bytes_read,
            sim_time_ms=done.sim_time_ms,
            degraded_keys=done.degraded_keys,
            degraded_partitions=list(done.degraded_partitions),
            algorithm=done.algorithm,
            predicted_ms=done.predicted_ms,
            candidates=dict(done.candidates),
        )
        degraded = first.degraded
        if degraded is not None:
            degraded = {**degraded, "partitions": list(degraded["partitions"])}
        return QueryResult(
            request, _private_copy(first.value), stats, degraded=degraded
        )

    def _compile(
        self,
        request: QueryRequest,
        shared: Set,
        replay_share: Optional[ReplayShare] = None,
    ) -> "_Spec":
        """Compile one request of any kind into one exec plan plus a
        reassembly recipe, pricing candidates with the shared-context
        discount and folding the chosen plan's pricing keys into
        ``shared`` for the requests compiled after it.  ``replay_share``
        is the execution's replayed state, handed to every k-hop plan
        built (a plan compiled without one makes its own)."""
        tgi = self.tgi
        if request.kind == "khop":
            chosen, candidates, raw, _notes, plan = (
                self._choose_khop(request, shared_keys=shared)
            )
            t, k = request.t, request.k
            nodes = list(request.nodes)
            if chosen == ALGO_SNAPSHOT_FIRST:
                # read-only: assemble only filters the snapshot
                compiled = tgi._snapshot_exec_plan(t, read_only=True)

                def assemble(g, nodes=nodes, single=request.single):
                    if single:
                        if not g.has_node(nodes[0]):
                            raise IndexError_(
                                f"node {nodes[0]} not alive at t={t}"
                            )
                        return g.khop_subgraph(nodes[0], k)
                    return [
                        g.khop_subgraph(c, k) if g.has_node(c) else None
                        for c in nodes
                    ]
            else:
                # shared-frontier Algorithm 4
                compiled = tgi._khops_plan(nodes, t, k, share=replay_share)

                def assemble(graphs, nodes=nodes, single=request.single):
                    if not single:
                        return graphs
                    if graphs[0] is None:
                        raise tgi._dead_center(nodes[0], t)
                    return graphs[0]

            if plan is not None:
                shared.update(plan.pricing_keys())
            return _Spec(
                compiled=compiled, assemble=assemble, algorithm=chosen,
                predicted=candidates.get(chosen), raw=raw.get(chosen),
                candidates=candidates,
            )
        raw, pricing_keys = self._predict(request, shared_keys=shared)

        def assemble(value):
            return value

        if request.kind == "snapshot":
            algorithm = "snapshot"
            compiled = tgi._snapshot_exec_plan(request.t)
        elif request.kind == "khop_history":
            algorithm = "khop-history"
            compiled = tgi._khop_history_plan(
                request.nodes[0], request.ts, request.te
            )
        elif request.kind == "node_histories":
            algorithm = "batched-histories"
            compiled = tgi._node_histories_plan(
                list(request.nodes), request.ts, request.te
            )
            if request.single:
                def assemble(histories):
                    return histories[0]
        else:  # node_state
            algorithm = "micro-delta"
            compiled = tgi._node_histories_plan(
                list(request.nodes), request.t, request.t
            )

            def assemble(histories):
                return histories[0].initial
        predicted = (
            raw * self._factor(algorithm)
            if raw is not None
            else None
        )
        shared.update(pricing_keys)
        return _Spec(
            compiled=compiled, assemble=assemble, algorithm=algorithm,
            predicted=predicted, raw=raw,
            candidates=(
                {algorithm: predicted} if predicted is not None else {}
            ),
        )

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------
    def explain(self, request: QueryRequest) -> str:
        """The retrieval plan and its cost estimate, without fetching.

        The plan printed (``FetchPlan.describe``) is the one pricing
        used: the planner's :class:`~repro.exec.plan.FetchPlan`, whose
        stages are those the executed plan resolves to.  For k-hop
        requests the output also lists every candidate's predicted cost
        and which one ``auto`` would pick; the executor's round timeline,
        one round per stage, closes the report.
        """
        chosen: Optional[str] = None
        candidates: Dict[str, float] = {}
        candidate_notes: Dict[str, List[str]] = {}
        if request.kind == "khop":
            # the pricing pass planned every candidate: print its choice
            chosen, candidates, _raw, candidate_notes, plan = (
                self._choose_khop(request)
            )
            if plan is None:
                # a lone center unknown at t: the planner says so
                plan = self.planner.plan_khop(
                    request.nodes[0], request.t, k=request.k
                )
        else:
            plan = self._plan_for(request)

        lines = [plan.describe()]
        keys = plan.pricing_keys()
        timeline: List[str] = []
        try:
            est = price_plan(self.tgi.cluster, keys, clients=request.clients)
            timeline.append(self._timeline_estimate(plan, request.clients))
            lines.append(
                f"estimate: {len(keys)} requests, "
                f"~{est:.2f} sim-ms as one sequential round"
            )
        except StorageError as exc:
            # a placement with no live replica: execution settles that at
            # fetch time (see _safe_price), so the plan still explains
            lines.append(f"estimate: unpriceable ({exc})")
        if candidates:
            ranked = ", ".join(
                f"{name}={ms:.2f} sim-ms"
                for name, ms in sorted(candidates.items(),
                                       key=lambda kv: kv[1])
            )
            lines.append(f"candidates: {ranked} -> {chosen}")
            # per-candidate verdicts: why each plan priced as it did and,
            # for the losers, the margin it was rejected on
            best = candidates.get(chosen)
            for name, ms in sorted(candidates.items(),
                                   key=lambda kv: kv[1]):
                if name == chosen:
                    verdict = "chosen"
                elif best is not None:
                    verdict = f"rejected (+{ms - best:.2f} sim-ms vs {chosen})"
                else:
                    verdict = "rejected"
                lines.append(f"  - {name}: {ms:.2f} sim-ms — {verdict}")
                for note in candidate_notes.get(name, []):
                    lines.append(f"      note: {note}")
        return "\n".join(lines + timeline)

    def _timeline_estimate(self, plan: FetchPlan, clients: int) -> str:
        """Lay the plan's stages on an :class:`ExecutionTimeline`, one
        multiget round per stage (a later stage depends on the earlier
        ones' data) — overlap accrues only across concurrent plans, never
        within one query's dependency chain.  A round holds the stage's
        priced keys that no earlier round fetched, so the timeline agrees
        with the printed estimate: over a statistics-backed expected key
        set rather than the worst-case sound bound, and with a key two
        stages name fetched once, as the executor does."""
        unfetched = dict.fromkeys(plan.pricing_keys())
        timeline = ExecutionTimeline(self.tgi.cluster.config.cost_model)
        at = 0.0
        for stage in plan.stages:
            keys = [key for key in stage.keys() if key in unfetched]
            if not keys:
                continue
            for key in keys:
                del unfetched[key]
            timing = timeline.submit(
                self.tgi.cluster.plan_records(keys, clients=clients), at=at
            )
            at = timing.completed_ms
        return timeline.describe()


@dataclass(frozen=True)
class TimeView:
    """Queries anchored at one time point (``session.at(t)``); terminal
    methods compile a :class:`QueryRequest` and execute it — nothing is
    planned or fetched until then."""

    session: GraphSession
    t: TimePoint

    def _clients(self, clients: Optional[int]) -> int:
        return clients if clients is not None else self.session.clients

    def snapshot(self, clients: Optional[int] = None) -> QueryResult:
        """Algorithm 1: the whole graph as of ``t``."""
        return self.session.execute(QueryRequest(
            kind="snapshot", t=self.t, clients=self._clients(clients),
        ))

    def khop(
        self,
        center: Union[NodeId, Sequence[NodeId]],
        k: int = 1,
        algorithm: str = ALGO_AUTO,
        clients: Optional[int] = None,
    ) -> QueryResult:
        """k-hop neighborhood(s) at ``t``.

        A scalar ``center`` yields one :class:`~repro.graph.static.Graph`
        (raising if the node is dead, matching ``TGI.get_khop``); a
        sequence yields one graph-or-``None`` per center, all fetched by
        one shared-frontier plan.  ``algorithm`` picks Algorithm 3
        (``snapshot-first``) vs 4 (``khop``) — ``auto`` defers to plan
        pricing.
        """
        # node ids are scalars (ints, strings); anything else iterable —
        # list, tuple, set, range, generator — is a population of centers
        single = isinstance(center, (str, bytes)) or not hasattr(
            center, "__iter__"
        )
        nodes = (center,) if single else tuple(center)
        return self.session.execute(QueryRequest(
            kind="khop", t=self.t, nodes=nodes, k=k,
            algorithm=algorithm, clients=self._clients(clients),
            single=single,
        ))

    def node_state(
        self, node: NodeId, clients: Optional[int] = None
    ) -> QueryResult:
        """One node's static state at ``t`` (``None`` when not alive)."""
        return self.session.execute(QueryRequest(
            kind="node_state", t=self.t, nodes=(node,),
            clients=self._clients(clients), single=True,
        ))


@dataclass(frozen=True)
class RangeView:
    """Interval queries (``session.between(ts, te)``)."""

    session: GraphSession
    ts: TimePoint
    te: TimePoint

    def _clients(self, clients: Optional[int]) -> int:
        return clients if clients is not None else self.session.clients

    def node_history(
        self, node: NodeId, clients: Optional[int] = None
    ) -> QueryResult:
        """Algorithm 2: one node's evolution over ``[ts, te]``."""
        return self.session.execute(QueryRequest(
            kind="node_histories", ts=self.ts, te=self.te, nodes=(node,),
            clients=self._clients(clients), single=True,
        ))

    def node_histories(
        self, nodes: Sequence[NodeId], clients: Optional[int] = None
    ) -> QueryResult:
        """Batched Algorithm 2 over a node population (O(1) rounds)."""
        return self.session.execute(QueryRequest(
            kind="node_histories", ts=self.ts, te=self.te,
            nodes=tuple(nodes), clients=self._clients(clients),
        ))

    def khop_history(
        self, center: NodeId, clients: Optional[int] = None
    ) -> QueryResult:
        """Algorithm 5: 1-hop neighborhood evolution around ``center``."""
        return self.session.execute(QueryRequest(
            kind="khop_history", ts=self.ts, te=self.te, nodes=(center,),
            clients=self._clients(clients), single=True,
        ))

    def nodes(self, predicate=None) -> SON:
        """A pre-bound lazy SoN already timesliced to ``[ts, te]``."""
        return self.session.nodes(predicate).Timeslice(self.ts, self.te)

    def subgraphs(self, k: int = 1, predicate=None) -> SOTS:
        """A pre-bound lazy SoTS already timesliced to ``[ts, te]``."""
        return self.session.subgraphs(k, predicate).Timeslice(
            self.ts, self.te
        )
