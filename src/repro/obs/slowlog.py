"""Slow-query capture: threshold + ring buffer, with full traces.

The :class:`Tracer` feeds retained root spans whose wall time crosses
``threshold_ms`` into a :class:`SlowQueryLog`.  Each entry summarizes
the queries in the trace — chosen algorithm, predicted vs actual
sim-ms, and the *margin per candidate* (how far off each priced plan
would have been) — and carries the full span tree, so a slow query can
be diagnosed from ``GET /debug/slow`` or ``hgs inspect --slow``
without re-running it.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .trace import Span

__all__ = ["SlowQueryLog", "summarize_queries"]


def summarize_queries(root: Span) -> List[Dict[str, Any]]:
    """Per-query pricing summaries from a trace: one row per ``query``
    span (the root itself for single queries), with predicted-vs-actual
    margin per candidate."""
    spans = [s for s in root.walk() if s.name == "query"]
    rows: List[Dict[str, Any]] = []
    for span in spans:
        attrs = span.attrs
        actual = attrs.get("sim_time_ms")
        row: Dict[str, Any] = {
            "kind": attrs.get("kind"),
            "algorithm": attrs.get("algorithm"),
            "predicted_ms": attrs.get("predicted_ms"),
            "sim_time_ms": actual,
        }
        candidates = attrs.get("candidates")
        if isinstance(candidates, dict) and actual is not None:
            row["candidates"] = dict(candidates)
            row["margins_ms"] = {
                name: round(float(predicted) - float(actual), 6)
                for name, predicted in candidates.items()
                if predicted is not None
            }
        if attrs.get("degraded_keys"):
            row["degraded_keys"] = attrs["degraded_keys"]
        if attrs.get("error"):
            row["error"] = attrs["error"]
        rows.append(row)
    return rows


class SlowQueryLog:
    """Bounded ring of slow-query entries, optionally mirrored to a
    JSONL file (one entry per line) for offline ``hgs inspect --slow``."""

    def __init__(
        self,
        threshold_ms: float = 250.0,
        capacity: int = 64,
        path: Optional[str] = None,
    ) -> None:
        self.threshold_ms = float(threshold_ms)
        self.path = path
        self._entries: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record_trace(self, root: Span) -> Dict[str, Any]:
        """Build and record an entry from a finished root span."""
        entry: Dict[str, Any] = {
            "name": root.name,
            "wall_ms": round(root.wall_ms, 3),
            "sim_time_ms": root.sim_ms or root.attrs.get("sim_time_ms"),
            "queries": summarize_queries(root),
            "trace": root.to_dict(),
        }
        self.record(entry)
        return entry

    def record(self, entry: Dict[str, Any]) -> None:
        with self._lock:
            self._entries.append(entry)
        if self.path:
            line = json.dumps(entry, sort_keys=False)
            with self._lock:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")

    def entries(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._entries)

    def as_dict(self, include_traces: bool = True) -> Dict[str, Any]:
        entries = self.entries()
        if not include_traces:
            entries = [
                {k: v for k, v in e.items() if k != "trace"} for e in entries
            ]
        return {
            "threshold_ms": self.threshold_ms,
            "count": len(entries),
            "entries": entries,
        }
