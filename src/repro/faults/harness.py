"""A deterministic fault-injection harness wrapping :class:`Cluster`.

The schedule is declarative and keyed on **simulated milliseconds** (the
same clock the cost model and :class:`ExecutionTimeline` run on): the
cluster composes its ``clock_ms`` epoch with each round's release
instant and asks the injector what is broken *at that instant*.  Four
fault families:

- :class:`CrashWindow` — a machine is down for ``[at_ms, until_ms)``;
  routing treats it exactly like ``Cluster.fail_machine`` (stale on
  recovery), but scheduled and reversible in sim-time.
- :class:`LatencySpike` — extra per-request service milliseconds on one
  machine during a window, added to ``RequestRecord.service_ms`` at
  plan time so the spike lands on the timeline and in sim-ms honestly.
- :class:`TransientFaults` — each round touching the machine during the
  window fails with probability ``probability``: its key group goes
  unserved that attempt (retried/rerouted under a resilience policy,
  else settled as a typed :class:`PartitionUnavailable` or a degraded
  drop).
- :class:`CorruptionFaults` — each fetched row served by the machine is
  bit-flipped with probability ``probability``; requires
  ``ClusterConfig.checksums`` so the corruption is *detected* (typed
  :class:`CorruptPayload`) rather than silently decoded.

All probabilistic draws come from one ``random.Random(schedule.seed)``,
and the cluster consumes them in deterministic (server-sorted, plan)
order, so a given schedule replays identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from repro.errors import StorageError


def _active(at_ms: float, until_ms: Optional[float], now: float) -> bool:
    return now >= at_ms and (until_ms is None or now < until_ms)


@dataclass(frozen=True)
class CrashWindow:
    """Machine ``machine`` is down during ``[at_ms, until_ms)``
    (``until_ms=None`` means it never recovers)."""

    machine: int
    at_ms: float
    until_ms: Optional[float] = None


@dataclass(frozen=True)
class LatencySpike:
    """Extra ``extra_ms`` of service time per request on ``machine``
    during ``[at_ms, until_ms)``."""

    machine: int
    extra_ms: float
    at_ms: float = 0.0
    until_ms: Optional[float] = None


@dataclass(frozen=True)
class TransientFaults:
    """Rounds touching ``machine`` fail with ``probability`` during the
    window."""

    machine: int
    probability: float
    at_ms: float = 0.0
    until_ms: Optional[float] = None


@dataclass(frozen=True)
class CorruptionFaults:
    """Rows served by ``machine`` are bit-flipped with ``probability``
    during the window."""

    machine: int
    probability: float
    at_ms: float = 0.0
    until_ms: Optional[float] = None


def flapping_crashes(
    machine: int,
    period_ms: float,
    down_ms: float,
    start_ms: float = 0.0,
    cycles: int = 50,
) -> Tuple[CrashWindow, ...]:
    """A flapping machine: down for ``down_ms`` at the start of each
    ``period_ms`` cycle, ``cycles`` times — the canonical bench schedule."""
    if not 0 < down_ms <= period_ms:
        raise StorageError("down_ms must be in (0, period_ms]")
    return tuple(
        CrashWindow(
            machine,
            start_ms + i * period_ms,
            start_ms + i * period_ms + down_ms,
        )
        for i in range(cycles)
    )


@dataclass(frozen=True)
class FaultSchedule:
    crashes: Tuple[CrashWindow, ...] = ()
    latency: Tuple[LatencySpike, ...] = ()
    transient: Tuple[TransientFaults, ...] = ()
    corruption: Tuple[CorruptionFaults, ...] = ()
    seed: int = 0


class FaultInjector:
    """Evaluates a :class:`FaultSchedule` at simulated instants.

    Owns the schedule's RNG and a few observability counters
    (``injected_transients`` / ``injected_corruptions`` /
    ``spiked_requests``) so tests and benches can assert the harness
    actually fired.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.rng = random.Random(schedule.seed)
        self.injected_transients = 0
        self.injected_corruptions = 0
        self.spiked_requests = 0

    def down_machines(self, now: float) -> Set[int]:
        return {
            w.machine
            for w in self.schedule.crashes
            if _active(w.at_ms, w.until_ms, now)
        }

    def extra_latency_ms(self, machine: int, now: float) -> float:
        extra = sum(
            s.extra_ms
            for s in self.schedule.latency
            if s.machine == machine and _active(s.at_ms, s.until_ms, now)
        )
        if extra:
            self.spiked_requests += 1
        return extra

    def transient_failures(self, machines, now: float) -> Set[int]:
        """Which of ``machines`` fail this round (one draw per machine,
        in sorted machine order for determinism)."""
        failed: Set[int] = set()
        for machine in sorted(machines):
            p = max(
                (
                    t.probability
                    for t in self.schedule.transient
                    if t.machine == machine and _active(t.at_ms, t.until_ms, now)
                ),
                default=0.0,
            )
            if p > 0 and self.rng.random() < p:
                failed.add(machine)
        self.injected_transients += len(failed)
        return failed

    def corrupts(self, machine: int, now: float) -> bool:
        """One draw per fetched row served by ``machine``."""
        p = max(
            (
                c.probability
                for c in self.schedule.corruption
                if c.machine == machine and _active(c.at_ms, c.until_ms, now)
            ),
            default=0.0,
        )
        if p > 0 and self.rng.random() < p:
            self.injected_corruptions += 1
            return True
        return False


def inject_faults(cluster, schedule: FaultSchedule) -> FaultInjector:
    """Attach a fresh injector for ``schedule`` to ``cluster``.

    Corruption faults require the cluster to store checksummed payloads
    (``ClusterConfig.checksums``) — without the envelope a flipped byte
    would surface as an unpickling crash or, worse, silently wrong data.
    """
    if schedule.corruption and not getattr(cluster.config, "checksums", False):
        raise StorageError(
            "corruption faults require ClusterConfig.checksums=True so "
            "corrupted rows are detected as CorruptPayload"
        )
    injector = FaultInjector(schedule)
    cluster.faults = injector
    return injector


def clear_faults(cluster) -> None:
    cluster.faults = None
