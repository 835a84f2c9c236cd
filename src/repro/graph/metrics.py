"""Static graph metrics used by the paper's analytics examples.

The TAF examples in the paper compute local clustering coefficients,
graph density, degree statistics, community counts and similar quantities
over snapshots.  These are implemented directly on :class:`repro.graph.Graph`
so TAF has no external dependency; `networkx` remains available for users
via ``Graph.to_networkx``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict

from repro.errors import GraphError
from repro.graph.static import Graph
from repro.types import NodeId


def density(g: Graph) -> float:
    """Edge density: ``m / (n*(n-1)/2)`` for undirected, ``m / (n*(n-1))``
    for directed.  Zero for graphs with fewer than two nodes."""
    n = g.num_nodes
    if n < 2:
        return 0.0
    possible = n * (n - 1)
    if not g.directed:
        possible //= 2
    return g.num_edges / possible


def local_clustering_coefficient(g: Graph, node: NodeId) -> float:
    """Fraction of pairs of neighbors of ``node`` that are themselves
    connected.  Zero for degree < 2.  (Undirected semantics.)"""
    if not g.has_node(node):
        raise GraphError(f"node {node} not in graph")
    nbrs = list(g.adjacency()[node])
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    for i in range(k):
        for j in range(i + 1, k):
            if g.has_edge(nbrs[i], nbrs[j]):
                links += 1
    return 2.0 * links / (k * (k - 1))


def average_clustering(g: Graph) -> float:
    """Mean local clustering coefficient over all nodes (0 for empty)."""
    n = g.num_nodes
    if n == 0:
        return 0.0
    return sum(local_clustering_coefficient(g, v) for v in g.nodes()) / n


def average_degree(g: Graph) -> float:
    if g.num_nodes == 0:
        return 0.0
    return sum(g.degree(v) for v in g.nodes()) / g.num_nodes


def shortest_path_lengths(g: Graph, source: NodeId) -> Dict[NodeId, int]:
    """Unweighted BFS distances from ``source`` to every reachable node."""
    if not g.has_node(source):
        raise GraphError(f"node {source} not in graph")
    adj = g.adjacency()
    dist = {source: 0}
    dq = deque([source])
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


def diameter_estimate(g: Graph, samples: int = 16, seed: int = 0) -> int:
    """Lower-bound estimate of the diameter via BFS from sampled sources.

    Exact diameter is O(n*m); the paper's examples only need an indicative
    figure, so we run BFS from ``samples`` deterministic sources.
    """
    import random

    nodes = sorted(g.nodes())
    if not nodes:
        return 0
    rng = random.Random(seed)
    sources = nodes if len(nodes) <= samples else rng.sample(nodes, samples)
    best = 0
    for s in sources:
        dist = shortest_path_lengths(g, s)
        if dist:
            best = max(best, max(dist.values()))
    return best


def triangle_count(g: Graph) -> int:
    """Total number of triangles (undirected semantics)."""
    count = 0
    for v, adjacent in g.adjacency().items():
        nbrs = sorted(n for n in adjacent if n > v)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                if g.has_edge(nbrs[i], nbrs[j]):
                    count += 1
    return count


class GraphMetrics:
    """Namespace object mirroring the paper's ``GraphMetrics()`` API
    (Fig. 7c: ``gm = GraphMetrics(); ...Evolution(gm.density, 10)``)."""

    density = staticmethod(density)
    average_clustering = staticmethod(average_clustering)
    average_degree = staticmethod(average_degree)
    diameter = staticmethod(diameter_estimate)
    triangles = staticmethod(triangle_count)

    @staticmethod
    def max_core(g: Graph) -> int:
        """Largest core number in the graph (0 for empty graphs)."""
        core = k_core_decomposition(g)
        return max(core.values(), default=0)


class NodeMetrics:
    """Namespace object mirroring the paper's ``NodeMetrics()`` API
    (Fig. 7a: ``nm.LCC``).  Functions take ``(graph, node_id)``."""

    LCC = staticmethod(local_clustering_coefficient)

    @staticmethod
    def degree(g: Graph, node: NodeId) -> int:
        return g.degree(node)

    @staticmethod
    def neighbor_count_with(g: Graph, node: NodeId, key: str, value) -> int:
        """Number of neighbors whose attribute ``key`` equals ``value``."""
        if not g.has_node(node):
            raise GraphError(f"node {node} not in graph")
        attrs = g.node_attr_maps()
        return sum(
            1 for nbr in g.adjacency()[node] if attrs[nbr].get(key) == value
        )


def k_core_decomposition(g: Graph) -> Dict[NodeId, int]:
    """Core number of every node (Batagelj-Zaversnik peeling)."""
    degrees = {v: g.degree(v) for v in g.nodes()}
    core = dict(degrees)
    seen: set = set()
    adj = g.adjacency()
    heap = [(d, v) for v, d in degrees.items()]
    heapq.heapify(heap)
    current = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in seen or d != core[v]:
            continue
        seen.add(v)
        current = max(current, core[v])
        core[v] = current
        for w in adj[v]:
            if w not in seen and core[w] > core[v]:
                core[w] -= 1
                heapq.heappush(heap, (core[w], w))
    return core
