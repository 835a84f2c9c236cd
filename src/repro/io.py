"""Event-stream file I/O.

Historical graph traces are exchanged as JSON-lines files: one event per
line, with stable field names.  This is the interchange format used by the
command-line interface and convenient for importing real traces (e.g. a
citation dump converted with a few lines of Python).

Example line::

    {"t": 17, "seq": 4, "kind": "EDGE_ADD", "node": 3, "other": 9,
     "value": {"weight": 2}}

Fields ``other``, ``key``, ``value`` and ``old`` may be omitted when null.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.errors import EventError
from repro.graph.events import Event, EventKind, check_sorted

PathLike = Union[str, Path]


def event_to_record(ev: Event) -> dict:
    """One event as a plain JSON-serializable dict."""
    record = {"t": ev.time, "seq": ev.seq, "kind": ev.kind.name,
              "node": ev.node}
    if ev.other is not None:
        record["other"] = ev.other
    if ev.key is not None:
        record["key"] = ev.key
    if ev.value is not None:
        record["value"] = ev.value
    if ev.old_value is not None:
        record["old"] = ev.old_value
    return record


def record_to_event(record: dict) -> Event:
    """Inverse of :func:`event_to_record`."""
    try:
        kind = EventKind[record["kind"]]
        return Event(
            time=record["t"],
            seq=record["seq"],
            kind=kind,
            node=record["node"],
            other=record.get("other"),
            key=record.get("key"),
            value=record.get("value"),
            old_value=record.get("old"),
        )
    except (KeyError, TypeError) as exc:
        raise EventError(f"malformed event record {record!r}: {exc}") from exc


def write_events(events: Iterable[Event], path: PathLike) -> int:
    """Write an event stream as JSON lines; returns the event count."""
    count = 0
    with Path(path).open("w", encoding="utf-8") as f:
        for ev in events:
            f.write(json.dumps(event_to_record(ev), sort_keys=True))
            f.write("\n")
            count += 1
    return count


def read_events(path: PathLike, validate: bool = True) -> List[Event]:
    """Read a JSON-lines event stream; optionally validate ordering."""
    events: List[Event] = []
    with Path(path).open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EventError(
                    f"{path}:{lineno}: invalid JSON: {exc}"
                ) from exc
            events.append(record_to_event(record))
    if validate:
        check_sorted(events)
    return events
