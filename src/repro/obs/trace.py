"""Span-tree tracing for the query path.

A :class:`Tracer` produces one span tree per traced query (or batch):
the session opens a root span, and every layer underneath — candidate
pricing, the executor's coalesce windows (the stages each ran, its
cache outcomes, requests and bytes), per-machine multiget rounds,
apply lanes, resilience events — attaches children to whatever
span is *current*.  Currency is carried in a :mod:`contextvars`
variable (the same pattern as :mod:`repro.cancellation`), so work that
hops threads keeps attributing correctly as long as the context is
copied across the hop — which the service collector does.

Spans carry two clocks:

- **wall**: real elapsed time from the tracer's injectable clock
  (``time.perf_counter`` by default), and
- **sim**: the span's window on the :class:`~repro.kvstore.cost
  .ExecutionTimeline`, in simulated milliseconds.  Store rounds and
  apply-lane work get exact sim windows from their
  :class:`~repro.kvstore.cost.RoundTiming`; the root span's sim window
  is ``[0, QueryStats.sim_time_ms]`` so the tree reconciles with the
  terminal counters by construction.

Overhead discipline: every instrumentation site in the engine guards
with ``current_span() is None`` — a single ``ContextVar.get`` — so a
tracer that is absent or sampled-out costs one dictionary-free load
per site and perturbs no RNG state (sampling is a deterministic
stride, not a random draw).  ``QueryStats`` under tracing-off is
bit-identical to an uninstrumented run.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "SamplingPolicy",
    "Tracer",
    "current_span",
    "use_span",
]

# The currently-active span for this execution context.  ``None`` means
# tracing is off (or this query was sampled out) and instrumentation
# sites must do no work.
_CURRENT: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "hgs_current_span", default=None
)


def current_span() -> Optional["Span"]:
    """The active span for this context, or ``None`` when untraced."""
    return _CURRENT.get()


@contextlib.contextmanager
def use_span(span: Optional["Span"]) -> Iterator[Optional["Span"]]:
    """Make ``span`` current for the duration of the block.

    Passing ``None`` is allowed and makes the block explicitly
    untraced (useful to fence off work that must not attribute to an
    ambient span)."""
    token = _CURRENT.set(span)
    try:
        yield span
    finally:
        _CURRENT.reset(token)


class _TraceShared:
    """State shared by every span of one trace: a single lock guarding
    tree mutation (a span can be current on several threads: workers
    run in a copy of the caller's context), the
    tracer's clock, and the span-id counter."""

    __slots__ = ("lock", "clock", "ids")

    def __init__(self, clock: Callable[[], float]) -> None:
        self.lock = threading.Lock()
        self.clock = clock
        self.ids = itertools.count(1)


class Span:
    """One node of a trace tree.

    Attributes are free-form (counters, labels, the per-candidate
    pricing table...); events are point occurrences (a retry, a breaker
    trip) rather than intervals.  Construction through
    :meth:`Tracer.trace` / :meth:`child` only — never instantiated on
    untraced paths."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "events",
        "children",
        "wall_start_s",
        "wall_end_s",
        "sim_start_ms",
        "sim_end_ms",
        "thread",
        "_shared",
    )

    def __init__(
        self, name: str, shared: _TraceShared,
        parent_id: Optional[int] = None, **attrs: Any,
    ) -> None:
        self.name = name
        self.span_id = next(shared.ids)
        self.parent_id = parent_id
        self.attrs: Dict[str, Any] = dict(attrs)
        self.events: List[Dict[str, Any]] = []
        self.children: List["Span"] = []
        self.wall_start_s: float = shared.clock()
        self.wall_end_s: Optional[float] = None
        self.sim_start_ms: Optional[float] = None
        self.sim_end_ms: Optional[float] = None
        self.thread = threading.current_thread().name
        self._shared = shared

    # -- tree construction -------------------------------------------------

    def child(self, name: str, **attrs: Any) -> "Span":
        """Open a child span (wall clock starts now)."""
        sub = Span(name, self._shared, parent_id=self.span_id, **attrs)
        with self._shared.lock:
            self.children.append(sub)
        return sub

    def end(self) -> "Span":
        """Close the span's wall window.  Idempotent."""
        if self.wall_end_s is None:
            self.wall_end_s = self._shared.clock()
        return self

    # -- annotation --------------------------------------------------------

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def inc(self, key: str, amount: float = 1) -> "Span":
        with self._shared.lock:
            self.attrs[key] = self.attrs.get(key, 0) + amount
        return self

    def add_event(self, name: str, **attrs: Any) -> "Span":
        evt = {"name": name}
        evt.update(attrs)
        with self._shared.lock:
            self.events.append(evt)
        return self

    def set_sim(self, start_ms: float, end_ms: float) -> "Span":
        """Pin the span's window on the simulated timeline."""
        self.sim_start_ms = float(start_ms)
        self.sim_end_ms = float(end_ms)
        return self

    # -- reading -----------------------------------------------------------

    @property
    def wall_ms(self) -> float:
        end = self.wall_end_s
        if end is None:
            end = self._shared.clock()
        return (end - self.wall_start_s) * 1000.0

    @property
    def sim_ms(self) -> float:
        if self.sim_start_ms is None or self.sim_end_ms is None:
            return 0.0
        return self.sim_end_ms - self.sim_start_ms

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for sub in self.children:
            yield from sub.walk()

    def find(self, name: str) -> List["Span"]:
        """All descendant spans (including self) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> Dict[str, Any]:
        """Structured-JSON form (nested children)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "wall_ms": round(self.wall_ms, 6),
            "thread": self.thread,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.sim_start_ms is not None:
            out["sim_start_ms"] = self.sim_start_ms
            out["sim_end_ms"] = self.sim_end_ms
        if self.attrs:
            out["attrs"] = _jsonable(self.attrs)
        if self.events:
            out["events"] = [_jsonable(e) for e in self.events]
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"children={len(self.children)})"
        )


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of span attributes to JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass(frozen=True)
class SamplingPolicy:
    """When to produce (and retain) a trace.

    Modes:

    - ``off``: never trace.  Instrumentation sites see ``None`` and do
      nothing; query results are bit-identical to an untraced run.
    - ``ratio``: trace a deterministic stride of queries — the n-th
      query is traced iff ``floor(n * ratio)`` advances past
      ``floor((n-1) * ratio)``.  No RNG is consumed, so enabling
      sampling cannot perturb seeded simulations.
    - ``slow``: trace *every* query, but retain only traces whose wall
      time (measured on the tracer's injectable clock) reaches
      ``slow_ms``.
    """

    mode: str = "off"
    ratio: float = 1.0
    slow_ms: float = 250.0

    def __post_init__(self) -> None:
        if self.mode not in ("off", "ratio", "slow"):
            raise ValueError(f"unknown sampling mode: {self.mode!r}")

    @classmethod
    def off(cls) -> "SamplingPolicy":
        return cls(mode="off")

    @classmethod
    def all(cls) -> "SamplingPolicy":
        return cls(mode="ratio", ratio=1.0)

    @classmethod
    def ratio_of(cls, ratio: float) -> "SamplingPolicy":
        return cls(mode="ratio", ratio=max(0.0, min(1.0, ratio)))

    @classmethod
    def slow_only(cls, slow_ms: float) -> "SamplingPolicy":
        return cls(mode="slow", slow_ms=slow_ms)


class Tracer:
    """Produces span trees and decides which to keep.

    Finished root spans land in a bounded ring (``finished``); when a
    slow-query log is attached, retained traces whose wall time crosses
    the log's threshold are also recorded there with their
    predicted-vs-actual pricing margins.
    """

    def __init__(
        self,
        sampling: Optional[SamplingPolicy] = None,
        *,
        clock: Callable[[], float] = time.perf_counter,
        slow_log: Optional[Any] = None,
        keep: int = 64,
    ) -> None:
        self.sampling = sampling or SamplingPolicy.all()
        self.clock = clock
        self.slow_log = slow_log
        self.finished: Deque[Span] = deque(maxlen=keep)
        self._seq = 0
        self._lock = threading.Lock()

    def should_sample(self) -> bool:
        """Decide (and count) whether the next query gets traced."""
        mode = self.sampling.mode
        if mode == "off":
            return False
        if mode == "slow":
            return True
        ratio = self.sampling.ratio
        if ratio <= 0.0:
            return False
        with self._lock:
            self._seq += 1
            n = self._seq
        return int(n * ratio) > int((n - 1) * ratio)

    def start(self, name: str, **attrs: Any) -> Span:
        """Open a root span.  Callers normally use :meth:`trace`."""
        return Span(name, _TraceShared(self.clock), **attrs)

    @contextlib.contextmanager
    def trace(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a root span, make it current, finish + retain on exit."""
        root = self.start(name, **attrs)
        token = _CURRENT.set(root)
        try:
            yield root
        finally:
            _CURRENT.reset(token)
            root.end()
            self._finish(root)

    def _finish(self, root: Span) -> None:
        wall = root.wall_ms
        if self.sampling.mode == "slow" and wall < self.sampling.slow_ms:
            return
        with self._lock:
            self.finished.append(root)
        log = self.slow_log
        if log is not None and wall >= log.threshold_ms:
            log.record_trace(root)

    def last(self) -> Optional[Span]:
        """Most recently retained trace, or ``None``."""
        with self._lock:
            return self.finished[-1] if self.finished else None
