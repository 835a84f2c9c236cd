"""The asyncio HTTP/1.1 front end of the query service.

Stdlib-only by constraint and by design: the server is
``asyncio.start_server`` plus a hand-rolled HTTP/1.1 request parser
(request line, headers, ``Content-Length`` body, keep-alive) — the
subset every benchmark client and ``http.client`` peer actually speaks.
Three routes:

- ``POST /query`` — one JSON spec per request (the ``hgs query
  --batch`` schema), answered with the same payload keys plus a
  ``"service"`` block recording batching provenance (batch id/size,
  time queued for a free worker, execution wall time).
- ``GET /healthz`` — liveness plus drain state.
- ``GET /metrics`` — the :class:`~repro.service.metrics.ServiceMetrics`
  snapshot (JSON) of the session's one registry: the service's
  families and the session's per-query record;
  ``?format=prometheus`` renders the same registry in Prometheus text
  exposition 0.0.4 (any other format is a 400).
- ``GET /debug/slow`` — the tracer's slow-query ring buffer
  (``?traces=1`` includes full span trees).

The request path is: middleware (request id, caller, auth) → admission
control (rate limit / load shed) → deadline stamping (budget counted
from *admission*, so collector queue time spends it) → the
micro-batching collector → structured response.  Failures of every
flavor leave as ``{"error": {code, message, retryable}}`` with the
matching status; ``Retry-After`` rides on 429s.

Graceful drain: SIGTERM flips the draining flag synchronously (the
handler runs on the loop), new queries get 503 ``draining`` while
admitted ones run to completion, then the server closes and the
process exits 0.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import signal
import sys
import threading
import time
import urllib.parse
from typing import Any, Dict, List, Optional, TextIO, Tuple, Union

from repro.api import (
    BadRequest,
    Draining,
    HeadersTooLarge,
    NotFound,
    PayloadTooLarge,
    ServiceError,
    error_payload,
    request_from_spec,
    result_payload,
)
from repro.service.admission import AdmissionController
from repro.service.collector import MicroBatchCollector
from repro.service.metrics import ServiceMetrics
from repro.service.middleware import (
    Middleware,
    RequestContext,
    default_middlewares,
)

_MAX_BODY_BYTES = 4 * 1024 * 1024
_MAX_HEADER_LINES = 100


class AccessLogger:
    """Structured JSON access logs, one line per terminal response.

    ``path="-"`` logs to stderr.  Thread-safe: the collector's worker
    threads never log directly, but tests and the background-thread
    harness may race the loop."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._owned = path != "-"
        self._fh: TextIO = (
            open(path, "a", encoding="utf-8") if self._owned else sys.stderr
        )

    def log(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._owned:
            with self._lock:
                self._fh.close()


class QueryService:
    """Route HTTP requests into one shared :class:`GraphSession`."""

    def __init__(
        self,
        session: Any,
        *,
        window_ms: float = 0.0,
        max_batch: int = 32,
        workers: int = 1,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        max_pending: Optional[int] = 256,
        default_deadline_ms: Optional[float] = None,
        auth_token: Optional[str] = None,
        access_log: Optional[AccessLogger] = None,
        middlewares: Optional[List[Middleware]] = None,
        tracer: Optional[Any] = None,
        clock=time.monotonic,
    ) -> None:
        self.session = session
        self.clock = clock
        #: explicit tracer wins; otherwise whatever the session carries
        self.tracer = tracer
        # on the session's own registry, so each query is counted once
        self.metrics = ServiceMetrics(getattr(session, "metrics", None))
        self.collector = MicroBatchCollector(
            session,
            window_ms=window_ms,
            max_batch=max_batch,
            workers=workers,
            metrics=self.metrics,
            clock=clock,
        )
        self.admission = AdmissionController(
            rate=rate, burst=burst, max_pending=max_pending, clock=clock
        )
        self.default_deadline_ms = default_deadline_ms
        self.access_log = access_log
        self.middlewares = (
            middlewares
            if middlewares is not None
            else default_middlewares(auth_token)
        )
        self.draining = False
        self._active = 0
        self._idle: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        self._writers: set = set()

    # -- lifecycle ------------------------------------------------------
    def begin_drain(self) -> None:
        """Flip to draining (sync; safe from a loop signal handler):
        new queries are refused, admitted ones keep running."""
        self.draining = True
        self.collector.stop_accepting()

    async def drain(self) -> None:
        """Complete every admitted request, then return."""
        self.begin_drain()
        await self.collector.drain()
        while self._active:
            self._idle = asyncio.Event()
            await self._idle.wait()

    async def close_connections(self) -> None:
        """Hang up idle keep-alive connections and wait for their
        handlers to exit (EOF, not cancellation, so no stray
        tracebacks).  Call after :meth:`drain`: every handler is parked
        on a read by then."""
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )

    # -- connection handling --------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except ServiceError as exc:
                    # a request that cannot be framed leaves the
                    # stream unframed: answer, then hang up
                    status, payload = error_payload(exc)
                    self.metrics.record_rejection(exc.code)
                    self._write_response(writer, status, payload, {}, False)
                    await writer.drain()
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                self._active += 1
                try:
                    status, payload, extra = await self._handle(
                        method, path, headers, body
                    )
                finally:
                    self._active -= 1
                    if self._active == 0 and self._idle is not None:
                        self._idle.set()
                self._write_response(
                    writer, status, payload, extra, keep_alive
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """The connection's next request, ``None`` at end of stream.
        Input the stream cannot be framed past raises a typed error:
        :class:`BadRequest` for a request line with fewer than two
        fields or a ``Content-Length`` that is not a non-negative
        integer, :class:`HeadersTooLarge` for more than
        ``_MAX_HEADER_LINES`` header lines, :class:`PayloadTooLarge` for
        a body over ``_MAX_BODY_BYTES``."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            raise BadRequest(f"malformed request line {line[:80]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        lines = 0
        while (raw := await reader.readline()) not in (b"\r\n", b"\n", b""):
            lines += 1
            if lines > _MAX_HEADER_LINES:
                raise HeadersTooLarge(
                    f"more than {_MAX_HEADER_LINES} header lines"
                )
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        text = headers.get("content-length", "0") or "0"
        if not (text.isascii() and text.isdigit()):
            raise BadRequest(
                f"Content-Length {text!r} is not a non-negative integer"
            )
        length = int(text)
        if length > _MAX_BODY_BYTES:
            raise PayloadTooLarge(
                f"a {length}-byte body exceeds the {_MAX_BODY_BYTES}-byte "
                f"limit"
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, Any], str],
        extra_headers: Dict[str, str],
        keep_alive: bool,
    ) -> None:
        if isinstance(payload, str):
            # Prometheus text exposition (the only non-JSON response)
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = http.client.responses.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(
            f"{name}: {value}" for name, value in extra_headers.items()
        )
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )

    # -- routing --------------------------------------------------------
    async def _handle(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, Union[Dict[str, Any], str], Dict[str, str]]:
        route, _sep, query_string = path.partition("?")
        params = urllib.parse.parse_qs(query_string)
        ctx = RequestContext(
            method=method,
            path=path,
            headers=headers,
            received_at=self.clock(),
        )
        extra: Dict[str, str] = {}
        log: Dict[str, Any] = {"method": method, "path": route}
        try:
            for middleware in self.middlewares:
                middleware(ctx)
            extra["X-Request-Id"] = ctx.request_id
            log.update(request_id=ctx.request_id, caller=ctx.caller)
            if method == "GET" and route == "/healthz":
                status, payload = 200, {
                    "status": "draining" if self.draining else "ok"
                }
                # when the cluster runs a resilience policy, liveness
                # also reports per-machine circuit-breaker state so
                # operators see which replicas are being routed around
                cluster = getattr(
                    getattr(self.session, "tgi", None), "cluster", None
                )
                if cluster is not None and (
                    getattr(cluster, "resilience", None) is not None
                ):
                    payload["breakers"] = cluster.breaker_snapshot()
            elif method == "GET" and route == "/metrics":
                status, payload = 200, self._render_metrics(params)
            elif method == "GET" and route == "/debug/slow":
                status, payload = 200, self._render_slow(params)
            elif method == "POST" and route == "/query":
                status, payload = await self._handle_query(ctx, body, log)
                err = payload.get("error") or {}
                if err.get("retry_after_s") is not None:
                    extra["Retry-After"] = str(
                        max(1, int(err["retry_after_s"] + 0.999))
                    )
            else:
                raise NotFound(f"no route for {method} {path}")
        except ServiceError as exc:
            status, payload = error_payload(exc)
            if exc.retry_after is not None:
                extra["Retry-After"] = str(
                    max(1, int(exc.retry_after + 0.999))
                )
            self.metrics.record_rejection(exc.code)
        except Exception as exc:  # noqa: BLE001 — the server must not die
            status, payload = error_payload(exc)
        wall_ms = (self.clock() - ctx.received_at) * 1000.0
        if route == "/query":
            self.metrics.record_response(ctx.caller, status, wall_ms)
        if self.access_log is not None:
            log.update(
                ts=round(time.time(), 3),
                status=status,
                wall_ms=round(wall_ms, 3),
            )
            if isinstance(payload, dict) and "error" in payload:
                log["error_code"] = payload["error"].get("code")
            self.access_log.log(log)
        return status, payload, extra

    def _render_metrics(
        self, params: Dict[str, List[str]]
    ) -> Union[Dict[str, Any], str]:
        """The metrics endpoint body: the one registry's JSON snapshot by
        default, its Prometheus text on ``format=prometheus``."""
        fmt = (params.get("format") or ["json"])[0]
        if fmt == "prometheus":
            return self.metrics.render_prometheus()
        if fmt != "json":
            raise BadRequest(f"unknown metrics format {fmt!r}")
        return self.metrics.snapshot()

    def _render_slow(
        self, params: Dict[str, List[str]]
    ) -> Dict[str, Any]:
        """The slow-query ring buffer; span trees only on ``?traces=1``
        (they dwarf the summaries)."""
        tracer = (
            self.tracer
            if self.tracer is not None
            else getattr(self.session, "tracer", None)
        )
        slow_log = getattr(tracer, "slow_log", None)
        if slow_log is None:
            return {
                "enabled": False,
                "threshold_ms": None,
                "count": 0,
                "entries": [],
            }
        include = (params.get("traces") or ["0"])[0] in ("1", "true")
        payload = slow_log.as_dict(include_traces=include)
        payload["enabled"] = True
        return payload

    async def _handle_query(
        self,
        ctx: RequestContext,
        body: bytes,
        log: Dict[str, Any],
    ) -> Tuple[int, Dict[str, Any]]:
        if self.draining:
            raise Draining(
                "service is draining; not accepting new queries"
            )
        try:
            spec = json.loads(body)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}")
        request = request_from_spec(spec)
        log["kind"] = request.kind
        self.admission.admit(ctx.caller)
        try:
            deadline_ms = (
                request.deadline_ms
                if request.deadline_ms is not None
                else self.default_deadline_ms
            )
            deadline_at = (
                ctx.received_at + deadline_ms / 1000.0
                if deadline_ms is not None
                else None
            )
            collected = await self.collector.submit(
                request, caller=ctx.caller, deadline_at=deadline_at
            )
        finally:
            self.admission.release()
        log.update(
            batch_id=collected.batch_id,
            batch_size=collected.batch_size,
            trigger=collected.trigger,
            queue_ms=round(collected.queue_ms, 3),
            exec_ms=round(collected.exec_ms, 3),
        )
        result = collected.result
        service_block = {
            "request_id": ctx.request_id,
            "batch_id": collected.batch_id,
            "batch_size": collected.batch_size,
            "queue_ms": round(collected.queue_ms, 3),
            "exec_ms": round(collected.exec_ms, 3),
        }
        if result.error is not None:
            status, payload = error_payload(result.error)
            payload["service"] = service_block
            return status, payload
        stats = result.stats.as_dict()
        log.update(
            predicted_ms=stats.get("predicted_ms"),
            sim_time_ms=stats.get("sim_time_ms"),
            algorithm=stats.get("algorithm"),
            retries=result.stats.retries,
            hedges=result.stats.hedges,
            breaker_trips=result.stats.breaker_trips,
            degraded_keys=result.stats.degraded_keys,
            degraded_partitions=list(result.stats.degraded_partitions),
        )
        payload = dict(result_payload(request, result))
        payload.update(stats)
        payload["service"] = service_block
        return 200, payload


class BackgroundService:
    """Run a :class:`QueryService` on its own thread + event loop.

    For tests, benchmarks, and the demo: ``port=0`` binds an ephemeral
    port, :meth:`start` blocks until the socket is listening and
    exposes the real port, :meth:`stop` drains and joins.  Usable as a
    context manager."""

    def __init__(
        self,
        session: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs: Any,
    ) -> None:
        self.service = QueryService(session, **service_kwargs)
        self.host = host
        self.port = port
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    def start(self) -> "BackgroundService":
        self._thread = threading.Thread(
            target=self._run, name="hgs-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("service failed to start within 10s")
        if self._failure is not None:
            raise RuntimeError(
                f"service failed to start: {self._failure!r}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced to start()
            self._failure = exc
            self._ready.set()
        finally:
            loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self.service.handle_connection, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stop.wait()
            await self.service.drain()
        finally:
            server.close()
            await server.wait_closed()
            await self.service.close_connections()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "BackgroundService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


async def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 7474,
    *,
    install_signal_handlers: bool = True,
) -> None:
    """Serve until SIGTERM/SIGINT, then drain gracefully and return.

    The signal handler only flips flags (synchronously, on the loop):
    in-flight and already-admitted queries complete, new ones are
    rejected with 503 ``draining``, and once the last response is
    written the listener closes and the coroutine returns — letting
    ``hgs serve`` exit 0."""
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def _on_signal() -> None:
        service.begin_drain()
        stop.set()

    if install_signal_handlers:
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, _on_signal)
    server = await asyncio.start_server(
        service.handle_connection, host, port
    )
    bound = server.sockets[0].getsockname()[1]
    print(f"hgs serve: listening on {host}:{bound}", flush=True)
    try:
        await stop.wait()
        print("hgs serve: draining", flush=True)
        await service.drain()
    finally:
        server.close()
        await server.wait_closed()
        await service.close_connections()
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)
    print("hgs serve: drained, exiting", flush=True)


__all__ = [
    "AccessLogger",
    "BackgroundService",
    "QueryService",
    "serve",
]
