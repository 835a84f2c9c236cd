"""Running, a mixin base of :class:`~repro.session.GraphSession`: the
one way a query runs — compile, execute, finalize.  Reads the session's
``tgi``, ``clock``, ``metrics`` and ``tracer``."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
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
    ALGO_SNAPSHOT_FIRST,
    DeadlineExceeded,
    QueryRequest,
    QueryResult,
    QueryStats,
)
from repro.cancellation import cancel_scope
from repro.errors import IndexError_, StorageError
from repro.exec import PipelineResult, collector_paused
from repro.graph.static import Graph
from repro.index.tgi.query import ReplayShare
from repro.kvstore.cost import COUNTER_NAMES, FetchStats
from repro.kvstore.degrade import PartialCollector, partial_scope
from repro.obs.trace import Span, current_span


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


class SessionExecution:
    """Mixin base of ``GraphSession``: compiling and running requests."""

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
        stages behind the center's — so every kind coalesces.

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

    @collector_paused
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
        plan alone, charged all of its fetch; anything more shares one
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
        if not standalone:
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
        reassembly recipe, priced with the shared-context discount — a
        k-hop before it builds the candidate it chose, any other kind on
        the plan it built — folding the keys it was priced on into
        ``shared`` for the requests compiled after it.  ``replay_share``
        is the execution's replayed state, handed to every k-hop plan
        built (a plan compiled without one makes its own)."""
        tgi = self.tgi
        if request.kind == "khop":
            chosen, candidates, _notes, plan = (
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
                predicted=candidates.get(chosen), candidates=candidates,
            )

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
        predicted, keys = None, []
        if request.kind != "khop_history":  # no metadata-only bound yet
            keys = self._compiled_keys(request, compiled[0])
            # a placement with no live replica at plan time makes the
            # plan unpriceable, not unrunnable (see _safe_price)
            predicted = self._safe_price(
                keys, request.clients, shared_keys=shared
            )
        shared.update(keys)
        return _Spec(
            compiled=compiled, assemble=assemble, algorithm=algorithm,
            predicted=predicted,
            candidates=(
                {algorithm: predicted} if predicted is not None else {}
            ),
        )
