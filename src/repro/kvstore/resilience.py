"""Resilience policy and per-machine circuit breakers for the fetch path.

The policy is opt-in (``Cluster.enable_resilience``).  Without one,
``Cluster.multiget`` runs its fetch loop exactly once per round, with no
hedging and no breakers (none is created, so ``/healthz`` reports
none); unserved keys still settle typed or degrade inside a
``partial_scope``.  With a policy active the same loop gains:

- per-machine **retry with exponential backoff + jitter**, the delay
  charged in simulated milliseconds so sim-ms stays honest (a retried
  round completes later on the :class:`ExecutionTimeline`);
- **hedged reads**: when one server's busy time dominates a round, the
  straggler's key group is also planned against a second live replica
  and the faster variant wins (both issues are counted in
  ``FetchStats.hedges``);
- per-machine **circuit breakers** (closed → open → half-open with a
  probe): after ``breaker_threshold`` consecutive failures a machine's
  breaker opens and routing avoids it until ``breaker_cooldown_ms`` of
  simulated time has passed, at which point the next round probes it —
  success closes the breaker, failure re-opens it.

All randomness (jitter) draws from a ``random.Random(seed)`` owned by
the cluster, so a fixed fault schedule replays identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import StorageError
from repro.obs.trace import current_span

#: Breaker states, reported verbatim in ``/healthz``.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Backoff before retry ``n`` (0-based) is ``BACKOFF_BASE_MS *
#: BACKOFF_MULTIPLIER**n``, scaled by a uniform jitter in
#: ``[1-BACKOFF_JITTER, 1+BACKOFF_JITTER]``.
BACKOFF_BASE_MS = 4.0
BACKOFF_MULTIPLIER = 2.0
BACKOFF_JITTER = 0.25
#: Hedging fires only for a server whose planned busy time is at least
#: this many times every other server's.
HEDGE_FACTOR = 2.0


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for the multiget loop beyond its single default attempt.

    ``max_attempts`` bounds the retry loop per round (the request's
    ``deadline_ms`` bounds it cooperatively from outside via the
    cancellation scope); retries back off as the module's ``BACKOFF_*``
    constants state.

    Hedging fires when one server's planned busy time is at least
    :data:`HEDGE_FACTOR` times every other server's and at least
    ``hedge_min_ms``; the losing variant is abandoned (its issue is
    still counted in ``FetchStats.hedges``).
    """

    max_attempts: int = 4
    hedge: bool = True
    hedge_min_ms: float = 2.0
    breaker_threshold: int = 3
    breaker_cooldown_ms: float = 200.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise StorageError("max_attempts must be >= 1")
        if self.hedge_min_ms < 0:
            raise StorageError("invalid hedge configuration")
        if self.breaker_threshold < 1 or self.breaker_cooldown_ms < 0:
            raise StorageError("invalid breaker configuration")

    def backoff_ms(self, attempt: int, rng) -> float:
        """Delay charged before retry number ``attempt`` (0-based)."""
        delay = BACKOFF_BASE_MS * (BACKOFF_MULTIPLIER ** attempt)
        if BACKOFF_JITTER:
            delay *= 1.0 + BACKOFF_JITTER * (2.0 * rng.random() - 1.0)
        return delay


class CircuitBreaker:
    """Per-machine closed/open/half-open breaker on simulated time.

    Not internally locked: the simulated clock is only monotonic within
    one execution, and concurrent service threads may observe slightly
    stale states — acceptable for a routing hint (every transition is a
    single attribute write).
    """

    def __init__(
        self, threshold: int, cooldown_ms: float,
        machine: Optional[int] = None,
    ) -> None:
        self.threshold = threshold
        self.cooldown_ms = cooldown_ms
        self.machine = machine
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.trips = 0

    def allows(self, now: float) -> bool:
        """Whether routing may target this machine at sim-time ``now``.

        An open breaker whose cooldown elapsed transitions to half-open
        and admits the caller as its probe.
        """
        if self.state == OPEN:
            if now - self.opened_at >= self.cooldown_ms:
                self.state = HALF_OPEN
                span = current_span()
                if span is not None:
                    span.add_event(
                        "breaker_probe", machine=self.machine, sim_at=now
                    )
                return True
            return False
        return True

    def record_success(self, now: float) -> None:
        self.state = CLOSED
        self.failures = 0

    def record_failure(self, now: float) -> int:
        """Record a failed round; returns 1 if this tripped the breaker."""
        if self.state == HALF_OPEN:
            # failed probe: straight back to open, fresh cooldown
            self.state = OPEN
            self.opened_at = now
            self.trips += 1
            self._trace_trip(now, probe=True)
            return 1
        self.failures += 1
        if self.state != OPEN and self.failures >= self.threshold:
            self.state = OPEN
            self.opened_at = now
            self.trips += 1
            self._trace_trip(now, probe=False)
            return 1
        return 0

    def _trace_trip(self, now: float, probe: bool) -> None:
        span = current_span()
        if span is not None:
            span.add_event(
                "breaker_trip", machine=self.machine, sim_at=now,
                failed_probe=probe,
            )

    def snapshot(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "failures": self.failures,
            "trips": self.trips,
        }
