"""The hierarchical temporal-compression tree shared by DeltaGraph and TGI.

Given ``r`` leaf snapshot deltas at checkpoint times, build a ``k``-ary
tree in which every parent is the *intersection* of its children; the tree
materializes only the root and, for every non-root node, the difference
``node − parent`` (a *derived snapshot* — paper Sec. 4.3b).  Any leaf is
reconstructed by summing the stored deltas along the root→leaf path:

    leaf = root + (child₁ − root) + (child₂ − child₁) + ...

which holds because a parent (being an intersection) is always a subset of
each child, so ``parent + (child − parent) = child`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

from repro.deltas.base import Delta
from repro.errors import IndexError_


@dataclass(frozen=True)
class TreeNode:
    """Structure-only tree node (deltas live in storage, not here)."""

    did: int
    children: Tuple[int, ...]
    leaf_index: Optional[int]  # set only for leaves
    parent: Optional[int] = None


@dataclass
class DeltaTree:
    """Tree shape plus the root id and leaf order."""

    nodes: Dict[int, TreeNode]
    root: int
    leaves: Tuple[int, ...]  # did of leaf i, in checkpoint order

    @property
    def height(self) -> int:
        h = 0
        did = self.leaves[0] if self.leaves else self.root
        while self.nodes[did].parent is not None:
            did = self.nodes[did].parent
            h += 1
        return h

    def path_to_leaf(self, leaf_index: int) -> List[int]:
        """Dids from the root down to leaf ``leaf_index`` (inclusive)."""
        if not (0 <= leaf_index < len(self.leaves)):
            raise IndexError_(f"leaf index {leaf_index} out of range")
        path = []
        did: Optional[int] = self.leaves[leaf_index]
        while did is not None:
            path.append(did)
            did = self.nodes[did].parent
        path.reverse()
        return path


def build_delta_tree(
    leaf_deltas: Sequence[Delta], arity: int
) -> Tuple[DeltaTree, Dict[int, Delta]]:
    """Build the tree over ``leaf_deltas`` and return (shape, stored deltas).

    The stored delta for the root is the root's full intersection delta;
    for every other node it is ``node − parent``.  Single-child groups
    produce a parent equal to the child (stored difference is empty), which
    keeps the shape regular without wasting reconstruction work.
    """
    if arity < 2:
        raise IndexError_("delta tree arity must be at least 2")
    if not leaf_deltas:
        raise IndexError_("delta tree needs at least one leaf")

    next_did = 0
    nodes: Dict[int, TreeNode] = {}
    stored: Dict[int, Delta] = {}

    # current level: list of (did, delta)
    level: List[Tuple[int, Delta]] = []
    for i, d in enumerate(leaf_deltas):
        nodes[next_did] = TreeNode(next_did, (), i)
        level.append((next_did, d))
        next_did += 1

    leaves = tuple(did for did, _ in level)

    while len(level) > 1:
        nxt: List[Tuple[int, Delta]] = []
        for start in range(0, len(level), arity):
            group = level[start : start + arity]
            parent_delta = reduce(lambda a, b: a & b, (d for _, d in group))
            parent_did = next_did
            next_did += 1
            child_dids = tuple(did for did, _ in group)
            nodes[parent_did] = TreeNode(parent_did, child_dids, None)
            for did, d in group:
                nodes[did] = TreeNode(
                    did, nodes[did].children, nodes[did].leaf_index, parent_did
                )
                stored[did] = d - parent_delta
            nxt.append((parent_did, parent_delta))
        level = nxt

    root_did, root_delta = level[0]
    stored[root_did] = root_delta
    return DeltaTree(nodes, root_did, leaves), stored


def reconstruct_leaf(
    tree: DeltaTree, stored: Dict[int, Delta], leaf_index: int
) -> Delta:
    """Sum the stored deltas along the root→leaf path."""
    return Delta.sum(stored[did] for did in tree.path_to_leaf(leaf_index))
