"""Compiled query requests.

A :class:`QueryRequest` is the declarative form every fluent-builder
terminal compiles to before anything touches the store: the query kind,
its time scope, its subject nodes, and the algorithm policy.  Keeping the
request first-class means the same object can be priced
(``GraphSession.explain``), executed (``GraphSession.execute``), and
reported back on the :class:`~repro.api.result.QueryResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import QueryError
from repro.types import NodeId, TimePoint

#: Cost-based selection: pick whichever candidate plan prices cheapest.
ALGO_AUTO = "auto"
#: Algorithm 3 — fetch the whole snapshot, filter to k hops client-side.
ALGO_SNAPSHOT_FIRST = "snapshot-first"
#: Algorithm 4 — targeted micro-delta expansion (shared-frontier
#: :meth:`~repro.index.tgi.index.TGI.get_khops` for multi-center requests).
ALGO_KHOP = "khop"

ALGORITHMS = (ALGO_AUTO, ALGO_SNAPSHOT_FIRST, ALGO_KHOP)

#: Request kinds the session knows how to price and execute.
KINDS = (
    "snapshot",
    "khop",
    "node_state",
    "node_histories",
    "khop_history",
)

#: Kinds anchored at one time point ``t``; the others read ``[ts, te]``.
_POINT_KINDS = ("snapshot", "khop", "node_state")
#: Kinds whose subject is exactly one node, whatever ``single`` says.
_ONE_NODE_KINDS = ("node_state", "khop_history")


@dataclass(frozen=True)
class QueryRequest:
    """One retrieval, compiled from the fluent builder.

    Attributes:
        kind: one of :data:`KINDS`.
        t: query time point (snapshot / khop / node_state).
        ts, te: interval bounds (node_histories / khop_history).
        nodes: subject node ids — k-hop centers or history targets.
        k: neighborhood radius for k-hop kinds.
        algorithm: one of :data:`ALGORITHMS`; only meaningful for
            ``khop`` requests, where ``auto`` defers the Algorithm 3 vs 4
            choice to plan pricing.
        clients: parallel fetch clients for the store rounds.
        single: the builder took a scalar subject, so the payload is the
            bare value rather than a list (``khop(5)`` vs ``khop([5, 7])``).
        deadline_ms: optional wall-clock budget for the whole request,
            measured from when the execution path first sees it (for
            served requests: from HTTP admission, so time queued in a
            batching window counts).  An expired request stops between
            executor windows and surfaces as a structured
            :class:`~repro.api.wire.DeadlineExceeded` instead of a
            partial result.  ``None`` (the default) means no deadline.
        allow_partial: opt in to degraded results.  When the store cannot
            reach some partitions even after the resilience policy is
            exhausted, the query returns whatever could be assembled and
            names the dropped partitions in
            :attr:`~repro.api.result.QueryResult.degraded` instead of
            raising :class:`~repro.errors.PartitionUnavailable`.
    """

    kind: str
    t: Optional[TimePoint] = None
    ts: Optional[TimePoint] = None
    te: Optional[TimePoint] = None
    nodes: Tuple[NodeId, ...] = field(default=())
    k: int = 1
    algorithm: str = ALGO_AUTO
    clients: int = 1
    single: bool = False
    deadline_ms: Optional[float] = None
    allow_partial: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.nodes, tuple):
            object.__setattr__(self, "nodes", tuple(self.nodes))
        try:
            # requests are hashed (batches plan each distinct one once):
            # an unhashable id fails here, typed, not inside a batch
            hash(self.nodes)
        except TypeError as exc:
            raise QueryError(f"node ids must be hashable: {exc}") from None
        if self.kind not in KINDS:
            raise QueryError(f"unknown query kind {self.kind!r}")
        fields = ("t",) if self.kind in _POINT_KINDS else ("ts", "te")
        for name in fields:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise QueryError(
                    f"{self.kind} query needs an int {name}, got {value!r}"
                )
        if self.kind not in _POINT_KINDS and self.ts > self.te:
            raise QueryError(f"empty interval [{self.ts}, {self.te}]")
        if (
            self.single or self.kind in _ONE_NODE_KINDS
        ) and len(self.nodes) != 1:
            raise QueryError(
                f"{self.kind} query names one node, got {len(self.nodes)}"
            )
        if self.algorithm not in ALGORITHMS:
            raise QueryError(
                f"unknown algorithm {self.algorithm!r} "
                f"(choose from {', '.join(ALGORITHMS)})"
            )
        if self.k < 1:
            raise QueryError("neighborhood radius k must be >= 1")
        if self.clients < 1:
            raise QueryError("need at least one fetch client")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise QueryError("deadline_ms must be positive when set")

    def describe(self) -> str:
        """One-line summary used by EXPLAIN output and reprs."""
        if self.kind == "snapshot":
            return f"snapshot(t={self.t})"
        if self.kind == "node_state":
            return f"node_state(node={self.nodes[0]}, t={self.t})"
        if self.kind == "khop":
            subject = (
                str(self.nodes[0]) if self.single
                else f"{len(self.nodes)} centers"
            )
            return (
                f"khop({subject}, t={self.t}, k={self.k}, "
                f"algorithm={self.algorithm})"
            )
        if self.kind == "khop_history":
            return (
                f"khop_history(center={self.nodes[0]}, "
                f"ts={self.ts}, te={self.te})"
            )
        subject = (
            str(self.nodes[0]) if self.single else f"{len(self.nodes)} nodes"
        )
        return f"node_histories({subject}, ts={self.ts}, te={self.te})"
