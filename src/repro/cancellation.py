"""Cooperative cancellation shared by the executor and the store.

The active cancellation check rides a :mod:`contextvars` variable rather
than a parameter so it reaches any call depth (``TGI.get_*`` build and
run their plans internally; ``Cluster.multiget``'s retry loop sleeps in
simulated time between attempts) without threading an argument through
every retrieval method.  It lives in its own leaf module because both
``repro.exec.executor`` and ``repro.kvstore.cluster`` need it and the
executor already imports the cluster.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Callable, Optional

#: The active cancellation check for this execution context, if any.
#: Context-local (per thread / per task), so one served request's
#: deadline never cancels another request's stages.
_CANCEL_CHECK: "contextvars.ContextVar[Optional[Callable[[], None]]]" = (
    contextvars.ContextVar("hgs_cancel_check", default=None)
)


@contextmanager
def cancel_scope(check: Callable[[], None]):
    """Run executor/store work under a cancellation check.

    ``check`` is called between stages, rounds, and retry attempts
    (never mid-multiget) and cancels the execution by raising — the
    session's deadline enforcement raises
    :class:`~repro.api.wire.DeadlineExceeded`."""
    token = _CANCEL_CHECK.set(check)
    try:
        yield
    finally:
        _CANCEL_CHECK.reset(token)


def check_cancelled() -> None:
    """Invoke the context's cancellation check (no-op outside a scope)."""
    check = _CANCEL_CHECK.get()
    if check is not None:
        check()
