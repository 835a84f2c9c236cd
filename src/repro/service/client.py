"""A small blocking HTTP client for the query service.

Built on :mod:`http.client` (stdlib, no dependencies) and used by the
tests, the service benchmark, and ``examples/serve_demo.py``.  The
client speaks the same JSON spec schema as ``hgs query --batch`` —
:func:`~repro.api.request_from_spec` on the server parses exactly what
:meth:`ServiceClient.query` sends — and error responses come back as
the *typed* exceptions of :mod:`repro.api.wire`, so::

    try:
        client.query({"kind": "khop", "node": 3, "time": 500, "k": 2})
    except RateLimited as exc:
        sleep(exc.retry_after)

works the same against the HTTP service as against an in-process
session.  The client keeps its connection: one persistent
:class:`~http.client.HTTPConnection` *per calling thread* (a
``threading.local``, so a client shared between threads stays
thread-safe without a lock), opened on first use and reused by every
later call from that thread.  The server hangs up idle keep-alive
connections when it drains; a kept connection found dropped — before
any response byte arrived — is reopened once and the request resent
(queries are read-only, so a resend is safe).  A timeout or an error
*response* is never retried.  :meth:`ServiceClient.close` (or leaving
the ``with`` block) drops the calling thread's connection; another
thread's goes with that thread.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any, Dict, Optional

from repro.api import ServiceError, error_from_payload


#: how a request on a connection the server has hung up fails before a
#: status line is read (``RemoteDisconnected`` is a ``ConnectionResetError``)
_DROPPED = (
    ConnectionResetError,
    BrokenPipeError,
    http.client.CannotSendRequest,
)


class ServiceClient:
    """Blocking client for one ``hgs serve`` endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7474,
        *,
        caller: str = "anon",
        timeout: float = 30.0,
        auth_token: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.caller = caller
        self.timeout = timeout
        self.auth_token = auth_token
        self._local = threading.local()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Drop the calling thread's connection (the next call reopens)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- plumbing -------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return conn

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        send_headers = {
            "Content-Type": "application/json",
            "X-Caller": self.caller,
        }
        if self.auth_token:
            send_headers["Authorization"] = f"Bearer {self.auth_token}"
        if headers:
            send_headers.update(headers)
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        conn = self._connection()
        kept = conn.sock is not None

        def exchange() -> http.client.HTTPResponse:
            conn.request(method, path, body=payload, headers=send_headers)
            return conn.getresponse()

        try:
            try:
                response = exchange()
            except _DROPPED:
                if not kept:
                    raise
                # the server hung up while this connection sat idle
                conn.close()
                response = exchange()
            raw = response.read()
        except BaseException:
            # never keep a connection with an exchange half done on it
            conn.close()
            raise
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            decoded = {}
        if response.status >= 400:
            retry_after = response.getheader("Retry-After")
            raise error_from_payload(
                response.status,
                decoded,
                retry_after=float(retry_after) if retry_after else None,
            )
        return decoded

    # -- API ------------------------------------------------------------
    def query(
        self,
        spec: Dict[str, Any],
        *,
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Execute one query spec; returns the result payload (the same
        keys ``hgs query --batch`` prints, plus batching provenance
        under ``"service"``).  Raises a typed :class:`ServiceError`
        subclass on failure."""
        headers = {"X-Request-Id": request_id} if request_id else None
        return self._request("POST", "/query", body=spec, headers=headers)

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")


__all__ = ["ServiceClient", "ServiceError"]
