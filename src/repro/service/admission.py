"""Admission control: per-caller rate limits and load shedding.

Two independent gates run before a request ever reaches the batching
collector, mirroring the two ways a shared historical-graph store gets
hurt in the TAF deployment setting (Sec. 6.2): one greedy tenant
starving the rest, and aggregate demand outrunning the executor.

- :class:`TokenBucket` — classic leaky refill per caller.  A caller
  sustains ``rate`` requests/second with bursts up to ``burst``; beyond
  that, :class:`~repro.api.RateLimited` carries the exact
  ``retry_after`` seconds until a token exists again, which the HTTP
  layer turns into a ``Retry-After`` header.
- queue-depth shedding — when more than ``max_pending`` admitted
  requests are waiting on collector windows or executor threads, new
  work is refused with :class:`~repro.api.Overloaded` rather than
  queued into unbounded latency.

Both checks are cheap and lock-protected; the clock is injectable so
tests drive refill deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.api import Overloaded, RateLimited


class TokenBucket:
    """One caller's budget: ``burst`` capacity refilled at ``rate``/s."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self.tokens = self.burst
        self.updated = clock()

    def try_acquire(self, cost: float = 1.0) -> Optional[float]:
        """Take ``cost`` tokens.  Returns ``None`` on success, else the
        seconds until enough tokens will have refilled."""
        now = self.clock()
        self.tokens = min(
            self.burst, self.tokens + (now - self.updated) * self.rate
        )
        self.updated = now
        if self.tokens >= cost:
            self.tokens -= cost
            return None
        return (cost - self.tokens) / self.rate


class AdmissionController:
    """Gate requests on per-caller rate and global queue depth.

    ``rate=None`` disables rate limiting (every caller admitted);
    ``max_pending=None`` disables shedding.  ``admit`` raises the
    structured error for the HTTP layer to render; on success the
    request counts as pending until :meth:`release`.
    """

    def __init__(
        self,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        max_pending: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = rate
        self.burst = burst if burst is not None else (
            max(1.0, rate) if rate is not None else None
        )
        self.max_pending = max_pending
        self.clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self._pending = 0

    def admit(self, caller: str) -> None:
        """Admit one request for ``caller`` or raise.

        Raises :class:`~repro.api.Overloaded` when the pending queue is
        full, :class:`~repro.api.RateLimited` (with ``retry_after``)
        when the caller's bucket is empty.
        """
        with self._lock:
            if (
                self.max_pending is not None
                and self._pending >= self.max_pending
            ):
                raise Overloaded(
                    f"pending queue full ({self._pending} >= "
                    f"{self.max_pending}); shed load and retry"
                )
            if self.rate is not None:
                bucket = self._buckets.get(caller)
                if bucket is None:
                    bucket = TokenBucket(
                        self.rate, self.burst or 1.0, self.clock
                    )
                    self._buckets[caller] = bucket
                wait = bucket.try_acquire()
                if wait is not None:
                    raise RateLimited(
                        f"caller {caller!r} exceeded "
                        f"{self.rate:g} requests/s",
                        retry_after=wait,
                    )
            self._pending += 1

    def release(self) -> None:
        """One admitted request finished (responded or failed)."""
        with self._lock:
            if self._pending > 0:
                self._pending -= 1


__all__ = ["AdmissionController", "TokenBucket"]
