"""Wire schema of the query API: specs, payloads, and structured errors.

One request/response shape shared by every transport: the CLI's ``hgs
query --batch`` JSON-lines mode and the HTTP service's ``POST /query``
both parse *specs* (plain JSON objects) into
:class:`~repro.api.request.QueryRequest` via :func:`request_from_spec`,
and both render executed results back to JSON via :func:`result_payload`.
Keeping the translation here — instead of inside ``cli.py`` where it
started — is what lets a service client replay a ``--batch`` file
verbatim and get byte-identical payload keys back.

Failures cross the wire as **structured errors**, never tracebacks::

    {"error": {"code": "deadline_exceeded",
               "message": "...", "retryable": true}}

:class:`ServiceError` is the carrier: every subclass fixes a stable
``code`` and the HTTP status the service maps it to, and
:func:`error_payload` folds domain errors (:class:`~repro.errors.QueryError`,
:class:`~repro.errors.IndexError_`) into the same shape so a malformed
spec and a dead k-hop center are as structured as a rate-limit rejection.
:func:`error_from_payload` is the client-side inverse.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.api.request import ALGO_AUTO, QueryRequest
from repro.api.result import QueryResult
from repro.errors import HGSError, IndexError_, QueryError, StorageError


class ServiceError(HGSError):
    """A failure with a stable wire shape (``code`` / ``message`` /
    ``retryable``) and an HTTP status for the service layer.

    ``retry_after`` (seconds) rides along on throttling/backpressure
    errors and becomes the HTTP ``Retry-After`` header.
    """

    code = "internal"
    http_status = 500
    retryable = False

    def __init__(
        self,
        message: str,
        *,
        code: Optional[str] = None,
        http_status: Optional[int] = None,
        retryable: Optional[bool] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        if code is not None:
            self.code = code
        if http_status is not None:
            self.http_status = http_status
        if retryable is not None:
            self.retryable = retryable
        self.retry_after = retry_after

    def to_payload(self) -> Dict[str, Any]:
        """The wire shape: ``{"error": {code, message, retryable}}``."""
        err: Dict[str, Any] = {
            "code": self.code,
            "message": self.message,
            "retryable": self.retryable,
        }
        if self.retry_after is not None:
            err["retry_after_s"] = round(self.retry_after, 3)
        return {"error": err}


class BadRequest(ServiceError):
    """Malformed spec: unknown kind, missing field, bad JSON."""

    code = "bad_request"
    http_status = 400


class PayloadTooLarge(ServiceError):
    """The request's ``Content-Length`` exceeds the body size the
    service reads."""

    code = "payload_too_large"
    http_status = 413


class HeadersTooLarge(ServiceError):
    """The request carries more header lines than the service reads."""

    code = "headers_too_large"
    http_status = 431


class Unauthorized(ServiceError):
    """Auth middleware rejected the request."""

    code = "unauthorized"
    http_status = 401


class NotFound(ServiceError):
    """Unknown route, or a query subject outside the indexed history."""

    code = "not_found"
    http_status = 404


class RateLimited(ServiceError):
    """Per-caller token bucket is empty; retry after ``retry_after``."""

    code = "rate_limited"
    http_status = 429
    retryable = True


class Overloaded(ServiceError):
    """Load shedding: the pending-request queue is full."""

    code = "overloaded"
    http_status = 503
    retryable = True


class Draining(ServiceError):
    """The service received SIGTERM and is flushing open windows; it
    accepts no new queries but completes the ones already admitted."""

    code = "draining"
    http_status = 503
    retryable = True


class DeadlineExceeded(ServiceError):
    """The request's ``deadline_ms`` budget ran out before (or while)
    executing; partial work is abandoned."""

    code = "deadline_exceeded"
    http_status = 504
    retryable = True


class Unavailable(ServiceError):
    """The store could not serve some partitions even after the
    resilience policy (retries, hedging, breaker reroutes) was
    exhausted.  Retryable: the faulted machines may recover."""

    code = "unavailable"
    http_status = 503
    retryable = True


#: code -> class, for client-side reconstruction.
ERROR_CLASSES: Dict[str, type] = {
    cls.code: cls
    for cls in (
        BadRequest,
        PayloadTooLarge,
        HeadersTooLarge,
        Unauthorized,
        NotFound,
        RateLimited,
        Overloaded,
        Draining,
        DeadlineExceeded,
        Unavailable,
    )
}


def error_payload(exc: Exception) -> Tuple[int, Dict[str, Any]]:
    """Fold any failure into the structured wire shape.

    Returns ``(http_status, payload)``.  :class:`ServiceError` carries
    its own status/code; domain errors map to stable codes (a malformed
    request is the caller's fault, a dead k-hop center is a missing
    resource); anything else is an opaque 500 so internals never leak
    as a traceback."""
    if isinstance(exc, ServiceError):
        return exc.http_status, exc.to_payload()
    if isinstance(exc, QueryError):
        return 400, BadRequest(str(exc)).to_payload()
    if isinstance(exc, IndexError_):
        # covers TimeRangeError: the subject isn't in the indexed history
        return 404, NotFound(str(exc)).to_payload()
    if isinstance(exc, StorageError):
        # covers PartitionUnavailable / CorruptPayload: the store could
        # not serve the request right now — retryable, unlike a
        # malformed spec or a missing subject
        return 503, Unavailable(str(exc)).to_payload()
    wrapped = ServiceError(f"{type(exc).__name__}: {exc}")
    return wrapped.http_status, wrapped.to_payload()


def error_from_payload(
    status: int,
    payload: Dict[str, Any],
    retry_after: Optional[float] = None,
) -> ServiceError:
    """Client-side inverse of :func:`error_payload`: rebuild the typed
    error a response body describes, so ``except RateLimited`` works the
    same against the HTTP service as in-process."""
    err = payload.get("error") or {}
    cls = ERROR_CLASSES.get(err.get("code"), ServiceError)
    exc = cls(
        err.get("message", f"HTTP {status}"),
        retry_after=err.get("retry_after_s", retry_after),
    )
    exc.http_status = status
    if "retryable" in err:
        exc.retryable = bool(err["retryable"])
    return exc


# ----------------------------------------------------------------------
# spec -> request
# ----------------------------------------------------------------------
def request_from_spec(
    spec: Dict[str, Any], default_algorithm: str = ALGO_AUTO
) -> QueryRequest:
    """Compile one JSON spec into a session request.

    Specs mirror the ``hgs query`` subcommands: ``{"kind": "snapshot",
    "time": t}``, ``{"kind": "node", "node": n, "ts": a, "te": b}``,
    ``{"kind": "khop", "node": n, "time": t, "k": k}`` (``"nodes":
    [...]`` batches several k-hop centers in one request).  ``clients``,
    ``algorithm``, and ``deadline_ms`` are optional per-spec overrides.
    """
    if not isinstance(spec, dict):
        raise BadRequest(
            f"request spec must be a JSON object, got {type(spec).__name__}"
        )
    kind = spec.get("kind")
    try:
        clients = int(spec.get("clients", 1))
        deadline_ms = spec.get("deadline_ms")
        if deadline_ms is not None:
            deadline_ms = float(deadline_ms)
        allow_partial = bool(spec.get("allow_partial", False))
        if kind == "snapshot":
            return QueryRequest(
                kind="snapshot", t=spec["time"], clients=clients,
                deadline_ms=deadline_ms, allow_partial=allow_partial,
            )
        if kind == "node":
            return QueryRequest(
                kind="node_histories", ts=spec["ts"], te=spec["te"],
                nodes=(spec["node"],), clients=clients, single=True,
                deadline_ms=deadline_ms, allow_partial=allow_partial,
            )
        if kind == "khop":
            if "nodes" in spec:
                nodes, single = tuple(spec["nodes"]), False
            else:
                nodes, single = (spec["node"],), True
            return QueryRequest(
                kind="khop", t=spec["time"], nodes=nodes,
                k=int(spec.get("k", 1)),
                algorithm=spec.get("algorithm", default_algorithm),
                clients=clients, single=single, deadline_ms=deadline_ms,
                allow_partial=allow_partial,
            )
    except KeyError as exc:
        raise BadRequest(
            f"{kind!r} spec is missing required field {exc.args[0]!r}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"malformed {kind!r} spec: {exc}") from exc
    except QueryError as exc:
        raise BadRequest(str(exc)) from exc
    raise BadRequest(
        f"unknown request kind {kind!r} (expected snapshot, node, or khop)"
    )


def spec_from_request(request: QueryRequest) -> Dict[str, Any]:
    """The inverse translation, for clients that hold a compiled
    request: a spec :func:`request_from_spec` maps back to an equal
    request (modulo kinds the wire schema doesn't carry)."""
    spec: Dict[str, Any]
    if request.kind == "snapshot":
        spec = {"kind": "snapshot", "time": request.t}
    elif request.kind == "node_histories" and request.single:
        spec = {
            "kind": "node", "node": request.nodes[0],
            "ts": request.ts, "te": request.te,
        }
    elif request.kind == "khop":
        spec = {"kind": "khop", "time": request.t, "k": request.k,
                "algorithm": request.algorithm}
        if request.single:
            spec["node"] = request.nodes[0]
        else:
            spec["nodes"] = list(request.nodes)
    else:
        raise BadRequest(
            f"query kind {request.kind!r} has no wire form yet"
        )
    if request.clients != 1:
        spec["clients"] = request.clients
    if request.deadline_ms is not None:
        spec["deadline_ms"] = request.deadline_ms
    if request.allow_partial:
        spec["allow_partial"] = True
    return spec


# ----------------------------------------------------------------------
# result -> payload
# ----------------------------------------------------------------------
def graph_summary(g: Any) -> Dict[str, int]:
    return {"nodes": g.num_nodes, "edges": g.num_edges}


def versions_summary(history: Any) -> list:
    return [
        {"t": t, "alive": s is not None,
         "degree": len(s.E) if s else 0,
         "attrs": s.attrs if s else None}
        for t, s in history.versions()
    ]


def result_payload(request: QueryRequest, result: QueryResult) -> dict:
    """The kind-specific half of one query's JSON output (stats are
    appended separately via ``result.stats.as_dict()``)."""
    if request.kind == "snapshot":
        payload = {"snapshot": graph_summary(result.value)}
    elif request.kind == "node_histories":
        payload = {
            "node": request.nodes[0],
            "versions": versions_summary(result.value),
        }
    elif request.single:
        payload = {
            "center": request.nodes[0],
            "k": request.k,
            "neighborhood": graph_summary(result.value),
            "members": sorted(result.value.nodes()),
        }
    else:
        payload = {
            "centers": list(request.nodes),
            "k": request.k,
            "neighborhoods": [
                graph_summary(g) if g is not None else None
                for g in result.value
            ],
        }
    if result.degraded is not None:
        payload["degraded"] = result.degraded
    return payload
