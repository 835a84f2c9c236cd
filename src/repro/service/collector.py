"""The micro-batching request collector.

This is where the service earns its keep: PR 7 taught
:meth:`~repro.session.GraphSession.execute_batch` to run several
queries through one coalesced, pipelined execution — keys needed by
multiple queries fetched once, same-window fetches merged into shared
multiget rounds (the cross-query analogue of the paper's Algorithm 4
shared-frontier fetching).  But that only helps callers whose requests
*overlap*.  The :class:`MicroBatchCollector` batches exactly the
overlap there is, by the group-commit rule: **a batch is what arrived
while the last one ran.**

- A worker is free ⇒ the open window is dispatched at once; a lone
  request on an idle service runs as a batch of one, with no timer.
- Every worker is busy ⇒ the window stays open and accumulates; it
  closes when a batch finishes (oldest ``max_batch`` members first, the
  rest stay as the next window).  Batches are as large as the backlog:
  coalescing grows with load, never with a wait.
- ``window_ms`` (default 0) is an optional *linger*: the upper bound on
  how long a free worker holds the first request of a window for
  company.  ``max_batch`` arrivals end a linger early; a linger that
  expires while every worker is busy changes nothing until one frees.

Overlapping k-hop neighborhoods from 32 different clients then share
root-partition and spanning-delta fetches exactly as if one caller had
batched them.

Latency contract: a request waits only for a free worker (plus the
linger, when one is configured) — an idle service adds zero latency to
the next request beyond its own execution.  Requests wait in one
visible place, ``_pending``: at most ``workers`` batches are ever
handed to the pool, so its internal queue stays empty.  Fault
isolation: the batch runs with ``capture_errors=True``, so one bad
request (dead node, expired deadline) resolves to its own structured
error while its batchmates complete; a batch that raises outright
fails its own members only.

Threading model: ``submit``/``drain`` and every dispatch decision run
on the event loop; ``execute_batch`` runs on a
:class:`~concurrent.futures.ThreadPoolExecutor` (default one worker,
which also serializes session-state updates); completion callbacks hop
back to the loop thread to resolve futures.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Set

from repro.api import Draining, QueryRequest, QueryResult

from repro.service.metrics import ServiceMetrics


@dataclass
class CollectedResult:
    """One request's outcome plus its batching provenance."""

    result: QueryResult
    batch_id: int
    batch_size: int
    queue_ms: float
    exec_ms: float
    #: why the batch closed: ``idle`` (a lone request met a free worker),
    #: ``backpressure`` (a batch finished), ``full``, ``linger``, ``drain``
    trigger: str


@dataclass
class _Pending:
    request: QueryRequest
    caller: str
    deadline_at: Optional[float]
    future: "asyncio.Future[CollectedResult]"
    enqueued_at: float
    # run_in_executor does not propagate contextvars; a batch runs under
    # its oldest member's, so an active trace span (repro.obs) follows
    # the request onto the worker thread
    context: contextvars.Context


@dataclass
class _Batch:
    batch_id: int
    members: List[_Pending]
    trigger: str
    started_at: float = 0.0
    queue_mss: List[float] = field(default_factory=list)


class MicroBatchCollector:
    """Batch whatever arrived while the workers were busy."""

    def __init__(
        self,
        session: Any,
        *,
        window_ms: float = 0.0,
        max_batch: int = 32,
        workers: int = 1,
        metrics: Optional[ServiceMetrics] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.session = session
        self.window_s = max(0.0, window_ms) / 1000.0
        self.max_batch = max_batch
        self.workers = max(1, workers)
        self.metrics = metrics
        self.clock = clock
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="hgs-exec",
        )
        self._pending: List[_Pending] = []
        #: the running linger; ``None`` with requests pending means the
        #: window is closed and waits only for a free worker
        self._timer: Optional[asyncio.TimerHandle] = None
        self._inflight: Set["asyncio.Future[Any]"] = set()
        self._accepting = True
        self._batch_seq = 0
        self.batches_run = 0

    # -- submission (event-loop thread) ---------------------------------
    async def submit(
        self,
        request: QueryRequest,
        caller: str = "anon",
        deadline_at: Optional[float] = None,
    ) -> CollectedResult:
        """Queue one request into the open window and await its result.

        ``deadline_at`` is absolute on the session clock, measured from
        wherever the caller considers the request to have *arrived* —
        the HTTP layer passes admission time, so time spent waiting for
        a free worker counts against the budget.  Raises
        :class:`~repro.api.Draining` once :meth:`drain` has started.
        """
        if not self._accepting:
            raise Draining("service is draining; not accepting new queries")
        loop = asyncio.get_running_loop()
        pending = _Pending(
            request=request,
            caller=caller,
            deadline_at=deadline_at,
            future=loop.create_future(),
            enqueued_at=self.clock(),
            context=contextvars.copy_context(),
        )
        if not self._pending and self.window_s > 0.0:
            self._timer = loop.call_later(self.window_s, self._linger_over)
        self._pending.append(pending)
        self._dispatch("idle")
        return await pending.future

    def _linger_over(self) -> None:
        self._timer = None
        self._dispatch("linger")

    def _dispatch(self, trigger: str) -> None:
        """Hand the oldest pending requests to a worker — if one is free
        and the window has closed (no linger running, or ``max_batch``
        reached, or draining).  Called whenever either can have changed:
        an arrival, a finished batch, an expired linger, a drain."""
        loop = asyncio.get_running_loop()
        while self._pending and len(self._inflight) < self.workers:
            if self._timer is not None:
                if len(self._pending) >= self.max_batch:
                    trigger = "full"
                elif not self._accepting:
                    trigger = "drain"
                else:
                    return
                self._timer.cancel()
                self._timer = None
            members = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            self._batch_seq += 1
            batch = _Batch(self._batch_seq, members, trigger)
            future = loop.run_in_executor(
                self._pool, members[0].context.run, self._run_batch, batch
            )
            self._inflight.add(future)
            future.add_done_callback(
                lambda fut, batch=batch: self._finish(batch, fut)
            )

    # -- execution (worker thread) --------------------------------------
    def _run_batch(self, batch: _Batch):
        batch.started_at = self.clock()
        batch.queue_mss = [
            (batch.started_at - p.enqueued_at) * 1000.0
            for p in batch.members
        ]
        results = self.session.execute_batch(
            [p.request for p in batch.members],
            capture_errors=True,
            deadline_ats=[p.deadline_at for p in batch.members],
        )
        exec_ms = (self.clock() - batch.started_at) * 1000.0
        return results, exec_ms

    # -- completion (event-loop thread) ---------------------------------
    def _finish(self, batch: _Batch, future: "asyncio.Future[Any]") -> None:
        self._inflight.discard(future)
        # first, so the freed worker never idles while requests wait
        self._dispatch("backpressure")
        self.batches_run += 1
        if future.cancelled() or future.exception() is not None:
            exc = (
                future.exception()
                if not future.cancelled() and future.exception()
                else Draining("batch execution cancelled")
            )
            for p in batch.members:
                if not p.future.done():
                    p.future.set_exception(exc)
            return
        results, exec_ms = future.result()
        if self.metrics is not None:
            self.metrics.record_batch(
                len(batch.members), exec_ms, batch.queue_mss, batch.trigger
            )
        for p, result, queue_ms in zip(
            batch.members, results, batch.queue_mss
        ):
            if self.metrics is not None and result.ok:
                self.metrics.bill(p.caller, result.stats)
            if not p.future.done():
                p.future.set_result(
                    CollectedResult(
                        result=result,
                        batch_id=batch.batch_id,
                        batch_size=len(batch.members),
                        queue_ms=queue_ms,
                        exec_ms=exec_ms,
                        trigger=batch.trigger,
                    )
                )

    # -- lifecycle ------------------------------------------------------
    def stop_accepting(self) -> None:
        """Refuse new submissions (sync; safe from a signal handler)."""
        self._accepting = False

    async def drain(self) -> None:
        """Stop accepting, cut any linger short, and wait until every
        admitted request — pending or in flight — has resolved.
        Admitted requests complete; new ones see
        :class:`~repro.api.Draining`."""
        self._accepting = False
        while self._pending or self._inflight:
            # each finished batch dispatches the next one itself; this
            # call only has work on the first turn (an open linger)
            self._dispatch("drain")
            await asyncio.gather(
                *list(self._inflight), return_exceptions=True
            )
        self._pool.shutdown(wait=True)


__all__ = ["CollectedResult", "MicroBatchCollector"]
