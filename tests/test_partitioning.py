"""Unit tests for random and min-cut graph partitioning."""

import random

import pytest

from repro.errors import PartitioningError
from repro.partitioning.base import Partitioning, edge_cut
from repro.partitioning.mincut import MinCutPartitioner
from repro.partitioning.random_part import RandomPartitioner, hash_partition


def community_graph(num_communities=4, size=25, seed=3):
    """Clear community structure: dense blocks, single bridges."""
    rng = random.Random(seed)
    nodes, edges = [], []
    for c in range(num_communities):
        base = c * size
        members = list(range(base, base + size))
        nodes += members
        for u in members:
            for _ in range(4):
                v = rng.choice(members)
                if u != v:
                    edges.append((min(u, v), max(u, v)))
        if c:
            edges.append((base - 1, base))  # bridge
    return nodes, sorted(set(edges))


def sizes(p):
    """Nodes per partition."""
    counts = [0] * p.num_partitions
    for pid in p.assignment.values():
        counts[pid] += 1
    return counts


def imbalance(p):
    """Largest partition over the ideal size; 1.0 is perfectly even."""
    counts = sizes(p)
    return max(counts) / (sum(counts) / p.num_partitions)


def test_partitioning_validates_ids():
    with pytest.raises(PartitioningError):
        Partitioning(2, {1: 5})


def test_edge_cut_counts_cross_edges():
    p = Partitioning(2, {1: 0, 2: 0, 3: 1})
    assert edge_cut(p, [(1, 2), (2, 3), (1, 3)]) == 2


def test_edge_cut_weighted():
    p = Partitioning(2, {1: 0, 2: 1})
    assert edge_cut(p, [(1, 2)], weights={(1, 2): 2.5}) == 2.5


def test_hash_partition_deterministic_and_in_range():
    vals = [hash_partition(n, 7) for n in range(100)]
    assert vals == [hash_partition(n, 7) for n in range(100)]
    assert all(0 <= v < 7 for v in vals)


def test_random_partitioner_covers_all_nodes():
    nodes, edges = community_graph()
    p = RandomPartitioner().partition(nodes, edges, 4)
    assert set(p.assignment) == set(nodes)


def test_random_partitioner_roughly_balanced():
    nodes = list(range(1000))
    p = RandomPartitioner().partition(nodes, [], 4)
    assert imbalance(p) < 1.25


def test_mincut_balanced_within_epsilon():
    nodes, edges = community_graph()
    p = MinCutPartitioner(epsilon=0.10).partition(nodes, edges, 4)
    assert set(p.assignment) == set(nodes)
    assert imbalance(p) <= 1.2


def test_mincut_beats_random_on_community_graph():
    nodes, edges = community_graph()
    rand_cut = edge_cut(RandomPartitioner().partition(nodes, edges, 4), edges)
    min_cut = edge_cut(
        MinCutPartitioner().partition(nodes, edges, 4), edges
    )
    assert min_cut < rand_cut / 2


def test_mincut_single_partition():
    nodes, edges = community_graph(2, 10)
    p = MinCutPartitioner().partition(nodes, edges, 1)
    assert sizes(p) == [len(nodes)]


def test_mincut_more_partitions_than_nodes():
    p = MinCutPartitioner().partition([1, 2, 3], [(1, 2)], 5)
    assert set(p.assignment) == {1, 2, 3}


def test_mincut_deterministic_given_seed():
    nodes, edges = community_graph()
    p1 = MinCutPartitioner(seed=5).partition(nodes, edges, 4)
    p2 = MinCutPartitioner(seed=5).partition(nodes, edges, 4)
    assert p1.assignment == p2.assignment


def test_mincut_rejects_zero_partitions():
    with pytest.raises(PartitioningError):
        MinCutPartitioner().partition([1], [], 0)


def test_mincut_handles_disconnected():
    nodes = list(range(20))
    edges = [(i, i + 1) for i in range(0, 18, 2)]  # 10 disjoint pairs
    p = MinCutPartitioner().partition(nodes, edges, 2)
    assert set(p.assignment) == set(nodes)
