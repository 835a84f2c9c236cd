"""Eventlist deltas (paper Examples 2-3).

An *eventlist* is a chronologically sorted set of events scoped by a time
interval ``(ts, te]``.  A *partitioned eventlist* additionally restricts the
scope to a set of nodes (the TGI build writes those,
``repro.index.tgi.build``).  Eventlists are the "Log" half of every
index: they capture fine-grained changes between materialized snapshots.

An eventlist has one form, stored and read alike: the packed columns of
a :class:`~repro.deltas.columnar.ColumnarEventList`.  A writer chops its
sorted stream into ``(ts, te, events)`` runs here and packs each run
straight into a row (:func:`~repro.deltas.columnar.pack_eventlist`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import DeltaError
from repro.graph.events import Event
from repro.types import TimePoint


def split_events_into_lists(
    events: Sequence[Event], max_size: int
) -> List[Tuple[TimePoint, TimePoint, Sequence[Event]]]:
    """Chop a sorted event stream into ``(ts, te, events)`` runs of at
    most ``max_size`` events each (the TGI build parameter ``l``), each
    scoped ``(first time - 1, last time]``.

    Events sharing a time point are kept in one run so that every run
    boundary is a consistent time point; this can make a run exceed
    ``max_size`` when a single time point has more events than the
    budget.  The order and the packability are the writer's to check,
    once per write (``check_sorted``, ``check_packable``) before its
    first row: a TGI checks the whole batch, not each span it splits.
    """
    if max_size <= 0:
        raise DeltaError("eventlist size must be positive")
    runs: List[Tuple[TimePoint, TimePoint, Sequence[Event]]] = []
    start = 0
    for i in range(1, len(events) + 1):
        if i == len(events) or (
            i - start >= max_size and events[i].time != events[i - 1].time
        ):
            run = events[start:i]
            runs.append((run[0].time - 1, run[-1].time, run))
            start = i
    return runs
