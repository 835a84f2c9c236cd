"""Analytic access-cost model — the formulas of the paper's Table 1.

For each index and each retrieval primitive, the table reports two
metrics: ``Σ|∆|`` (sum of fetched delta cardinalities) and ``Σ1`` (number
of deltas fetched).  These estimates are compared against measured counts
in ``benchmarks/bench_table1_costs.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

#: (sum of delta cardinalities, number of deltas)
Cost = Tuple[float, float]


@dataclass(frozen=True)
class WorkloadShape:
    """Quantities Table 1 is parameterized by.

    Attributes:
        G: total number of changes in the graph (``|G|``).
        S: size of a snapshot (``|S|``).
        E: eventlist size (``|E|``).
        V: number of changes to the queried node (``|V|``).
        R: number of neighbors of the queried node (``|R|``).
        p: number of (micro-)partitions in TGI.
        h: height of the DeltaGraph/TGI tree.
    """

    G: float
    S: float
    E: float
    V: float
    R: float
    p: float
    h: float


PRIMITIVES = (
    "snapshot",
    "static_vertex",
    "vertex_versions",
    "one_hop",
    "one_hop_versions",
)

INDEXES = ("log", "copy", "copy+log", "node-centric", "deltagraph", "tgi")


def table1(shape: WorkloadShape) -> Dict[str, Dict[str, Cost]]:
    """Return the full analytic Table 1 for the given workload shape.

    Each entry maps primitive → (Σ|∆|, Σ1).
    """
    G, S, E, V, R, p, h = (
        shape.G, shape.S, shape.E, shape.V, shape.R, shape.p, shape.h,
    )
    num_lists = max(G / E, 1.0)
    C = V  # changes to a node over full history
    return {
        "log": {
            "snapshot": (G, num_lists),
            "static_vertex": (G, num_lists),
            "vertex_versions": (G, num_lists),
            "one_hop": (G, num_lists),
            "one_hop_versions": (G, num_lists),
        },
        "copy": {
            "snapshot": (S, 1),
            "static_vertex": (S, 1),
            "vertex_versions": (S * G, G),
            "one_hop": (S, 1),
            "one_hop_versions": (S * G, G),
        },
        "copy+log": {
            "snapshot": (S + E, 2),
            "static_vertex": (S + E, 2),
            "vertex_versions": (G, num_lists),
            "one_hop": (S + E, 2),
            "one_hop_versions": (G, num_lists),
        },
        "node-centric": {
            "snapshot": (2 * G, max(G / max(C, 1), 1)),
            "static_vertex": (C, 1),
            "vertex_versions": (C, 1),
            "one_hop": (R * V, R),
            "one_hop_versions": (R * V, R),
        },
        "deltagraph": {
            "snapshot": (h * S + E, 2 * h),
            "static_vertex": (h * S + E, 2 * h),
            "vertex_versions": (G, num_lists),
            "one_hop": (h * (S + E), 2 * h),
            "one_hop_versions": (G, num_lists),
        },
        "tgi": {
            "snapshot": (h * S + E, 2 * h * p),
            "static_vertex": (h * S / p + E / p, 2 * h),
            "vertex_versions": (V * (1 + S / p), V + 1),
            "one_hop": (h * (S + E) / p, 2 * h),
            "one_hop_versions": (V * (1 + S / p), V + 1),
        },
    }


def tree_height(num_leaves: int, arity: int) -> int:
    """Height of a k-ary delta tree over ``num_leaves`` leaves."""
    if num_leaves <= 1:
        return 0
    return math.ceil(math.log(num_leaves, arity))
