"""The delta framework (paper Sec. 4.1): deltas and eventlists."""

from repro.deltas.base import Delta, EMPTY_DELTA, StaticEdge, StaticNode
from repro.deltas.columnar import (
    ColumnarEventList,
    decoded_events_total,
    pack_eventlist,
)
from repro.deltas.eventlist import split_events_into_lists

__all__ = [
    "Delta",
    "EMPTY_DELTA",
    "StaticNode",
    "StaticEdge",
    "ColumnarEventList",
    "decoded_events_total",
    "pack_eventlist",
    "split_events_into_lists",
]
