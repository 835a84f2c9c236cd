"""Trace export: structured JSON and Chrome trace-event format.

The Chrome format (``chrome://tracing`` / Perfetto "legacy JSON") turns
the pipelined execution story into a picture: process 1 is the
*simulated timeline* with one track per storage machine and one per
apply lane, so overlapped fetch rounds, coalesced windows and apply
work render as parallel bars; process 2 is wall clock, with one track
per Python thread.

Timestamps are microseconds (the format's unit): sim-ms map 1:1 at
``ms * 1000``; wall times are rebased to the trace root's start.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .trace import Span, _jsonable

__all__ = ["trace_to_json", "chrome_trace", "write_trace", "sim_summary"]

SIM_PID = 1
WALL_PID = 2

#: Span attributes worth carrying into Chrome event args (full attrs can
#: be large: candidate tables, per-server maps).
_ARG_KEYS = (
    "kind", "label", "algorithm", "requests", "bytes", "keys",
    "cache_hits", "cache_misses", "coalesced_hits", "merged",
    "participants", "retries", "hedges", "attempt", "machine",
    "pid", "events_applied", "apply_ms", "predicted_ms", "actual_ms",
)


def trace_to_json(root: Span) -> Dict[str, Any]:
    """Structured-JSON export of a whole trace tree."""
    return {"format": "hgs-trace-v1", "root": root.to_dict()}


def _args_for(span: Span) -> Dict[str, Any]:
    args = {k: span.attrs[k] for k in _ARG_KEYS if k in span.attrs}
    return _jsonable(args)


class _Lanes:
    """Stable lane-name -> tid assignment with thread_name metadata."""

    def __init__(self, pid: int, events: List[Dict[str, Any]],
                 sort_base: int = 0) -> None:
        self.pid = pid
        self.events = events
        self.tids: Dict[str, int] = {}
        self.sort_base = sort_base

    def tid(self, lane: str) -> int:
        tid = self.tids.get(lane)
        if tid is None:
            tid = len(self.tids) + 1
            self.tids[lane] = tid
            self.events.append({
                "name": "thread_name", "ph": "M", "pid": self.pid,
                "tid": tid, "args": {"name": lane},
            })
            self.events.append({
                "name": "thread_sort_index", "ph": "M", "pid": self.pid,
                "tid": tid, "args": {"sort_index": self.sort_base + tid},
            })
        return tid


def chrome_trace(root: Span, include_wall: bool = True) -> Dict[str, Any]:
    """Chrome trace-event (Perfetto-loadable) export of one trace."""
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": SIM_PID, "tid": 0,
         "args": {"name": "simulated timeline (ms)"}},
    ]
    sim_lanes = _Lanes(SIM_PID, events)
    wall_lanes: Optional[_Lanes] = None
    if include_wall:
        events.append(
            {"name": "process_name", "ph": "M", "pid": WALL_PID, "tid": 0,
             "args": {"name": "wall clock"}}
        )
        wall_lanes = _Lanes(WALL_PID, events, sort_base=100)

    wall_origin = root.wall_start_s
    for span in root.walk():
        args = _args_for(span)
        windows = span.attrs.get("server_windows")
        if isinstance(windows, dict) and windows:
            # A store round: one bar per machine it occupied.
            for server, (start, end) in sorted(windows.items()):
                events.append({
                    "name": span.name, "ph": "X", "cat": "sim",
                    "ts": start * 1000.0, "dur": max(end - start, 0.0) * 1000.0,
                    "pid": SIM_PID,
                    "tid": sim_lanes.tid(f"machine {server}"),
                    "args": args,
                })
        elif span.sim_start_ms is not None and span.sim_end_ms is not None:
            lane = str(span.attrs.get("lane") or span.name)
            events.append({
                "name": span.name, "ph": "X", "cat": "sim",
                "ts": span.sim_start_ms * 1000.0,
                "dur": max(span.sim_ms, 0.0) * 1000.0,
                "pid": SIM_PID, "tid": sim_lanes.tid(lane),
                "args": args,
            })
        for evt in span.events:
            sim_at = evt.get("sim_at")
            if sim_at is not None:
                events.append({
                    "name": str(evt.get("name", "event")), "ph": "i",
                    "cat": "sim", "s": "p",
                    "ts": float(sim_at) * 1000.0,
                    "pid": SIM_PID, "tid": sim_lanes.tid("events"),
                    "args": _jsonable(
                        {k: v for k, v in evt.items() if k != "sim_at"}
                    ),
                })
        if wall_lanes is not None and span.wall_end_s is not None:
            events.append({
                "name": span.name, "ph": "X", "cat": "wall",
                "ts": (span.wall_start_s - wall_origin) * 1e6,
                "dur": max(span.wall_end_s - span.wall_start_s, 0.0) * 1e6,
                "pid": WALL_PID, "tid": wall_lanes.tid(span.thread),
                "args": args,
            })
    return {"displayTimeUnit": "ms", "traceEvents": events}


def sim_summary(root: Span) -> Dict[str, float]:
    """Aggregate sim-ms by span kind, for reconciliation checks."""
    out: Dict[str, float] = {"root_sim_ms": root.sim_ms}
    for span in root.walk():
        if span is root or span.sim_start_ms is None:
            continue
        key = f"{span.name}_sim_ms"
        out[key] = out.get(key, 0.0) + span.sim_ms
    return out


def write_trace(root: Span, path: str, format: str = "chrome") -> None:
    """Serialize one trace to ``path`` in the requested format."""
    if format == "chrome":
        payload: Dict[str, Any] = chrome_trace(root)
    elif format == "json":
        payload = trace_to_json(root)
    else:
        raise ValueError(f"unknown trace format: {format!r}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
