"""Partial-results (degraded-mode) scope shared by store, index, session.

When a :class:`PartialCollector` is active, ``Cluster.multiget`` is
allowed to *drop* keys it could not serve by its last attempt (the only
one without a resilience policy) instead of raising, and the TGI
finalizers drop whole partitions whose rows went missing instead of
crashing on absent keys.  Without an active
collector the same situations raise a typed
:class:`~repro.errors.PartitionUnavailable` — degradation is strictly
opt-in (``QueryRequest.allow_partial`` / ``capture_errors`` batches).

Like the cancellation scope this rides a context variable so it reaches
the cluster and the index finalizers through any call depth, and stays
per-thread/per-task so one degraded request never silently degrades a
concurrent strict one.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Optional, Set, Tuple

KeyTuple = Tuple

_PARTIAL: "contextvars.ContextVar[Optional[PartialCollector]]" = (
    contextvars.ContextVar("hgs_partial_collector", default=None)
)


def partition_label(key: KeyTuple) -> str:
    """Human-readable partition label for a store key.

    Understands the TGI delta-key convention ``(tsid, sid, (tag, index),
    pid)`` — the only key shape this store holds — labelling micro-
    partitions as ``ts<tsid>:p<pid>`` and version-chain rows (tsid -1,
    tag ``V``) as ``vc:<node>``; anything else falls back to ``repr``.
    """
    try:
        tsid, _sid, (tag, index), pid = key
    except (TypeError, ValueError):
        return repr(key)
    if tsid == -1 and tag == "V":
        return f"vc:{index}"
    return f"ts{tsid}:p{pid}"


class PartialCollector:
    """Accumulates what a degraded execution dropped.

    ``keys`` holds the store keys the fetch path gave up on; ``partitions``
    the human-readable labels (fetch-level drops and finalize-level whole-
    partition drops both land here, de-duplicated).
    """

    def __init__(self) -> None:
        self.keys: Set[KeyTuple] = set()
        self.partitions: Set[str] = set()

    def drop_key(self, key: KeyTuple) -> None:
        self.keys.add(key)
        self.partitions.add(partition_label(key))

    def add_partition(self, label: str) -> None:
        self.partitions.add(label)

    @property
    def degraded(self) -> bool:
        return bool(self.keys or self.partitions)


@contextmanager
def partial_scope(collector: Optional["PartialCollector"]):
    """Authorize degraded execution for the dynamic extent of the block.

    Passing ``None`` is a no-op scope, so callers can write one
    ``with partial_scope(collector or None)`` unconditionally.
    """
    if collector is None:
        yield None
        return
    token = _PARTIAL.set(collector)
    try:
        yield collector
    finally:
        _PARTIAL.reset(token)


def active_partial() -> Optional[PartialCollector]:
    """The collector authorizing degraded drops here, or ``None``."""
    return _PARTIAL.get()
