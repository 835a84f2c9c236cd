"""Shared primitive types and helpers.

The paper uses a discrete notion of time; we represent time points as
integers (``TimePoint``).  Node identifiers are integers, attribute maps are
plain ``dict``s of string keys to JSON-ish values.  Edges are identified by
an ordered pair of node ids; for undirected graphs the pair is canonicalized
with the smaller id first.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

NodeId = int
TimePoint = int
AttrMap = Dict[str, Any]
EdgeId = Tuple[NodeId, NodeId]

#: Conventional "beginning of time" used for ``G(-inf)`` in the paper's
#: snapshot definition (Example 4).
TIME_MIN: TimePoint = -(2**62)

#: Conventional "end of time" for open-ended validity intervals.
TIME_MAX: TimePoint = 2**62


def canonical_edge(u: NodeId, v: NodeId, directed: bool = False) -> EdgeId:
    """Return the canonical identifier of the edge ``(u, v)``.

    Undirected edges are stored with the smaller endpoint first so that
    ``(u, v)`` and ``(v, u)`` map to the same identifier.
    """
    if directed or u <= v:
        return (u, v)
    return (v, u)
