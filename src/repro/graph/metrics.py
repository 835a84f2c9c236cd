"""Static graph metrics used by the paper's analytics examples.

The TAF examples in the paper compute local clustering coefficients,
graph density, degree statistics, community counts and similar quantities
over snapshots.  These are implemented directly on :class:`repro.graph.Graph`
so TAF has no external dependency; `networkx` remains available for users
via ``Graph.to_networkx``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

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


def degree_histogram(g: Graph) -> Dict[int, int]:
    """Map degree -> number of nodes with that degree."""
    hist: Dict[int, int] = {}
    for v in g.nodes():
        d = g.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return hist


def average_degree(g: Graph) -> float:
    if g.num_nodes == 0:
        return 0.0
    return sum(g.degree(v) for v in g.nodes()) / g.num_nodes


def connected_components(g: Graph) -> List[List[NodeId]]:
    """Connected components (weak components for directed graphs),
    each sorted by node id, largest first."""
    seen: set = set()
    adj = g.adjacency()
    # undirected view of adjacency for weak connectivity
    comps: List[List[NodeId]] = []
    for start in g.nodes():
        if start in seen:
            continue
        comp = []
        dq = deque([start])
        seen.add(start)
        while dq:
            v = dq.popleft()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    dq.append(w)
            if g.directed:
                # include in-neighbors for weak connectivity
                for (a, b) in g.edges():
                    if b == v and a not in seen:
                        seen.add(a)
                        dq.append(a)
        comps.append(sorted(comp))
    comps.sort(key=len, reverse=True)
    return comps


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


def pagerank(
    g: Graph,
    damping: float = 0.85,
    max_iter: int = 50,
    tol: float = 1e-9,
) -> Dict[NodeId, float]:
    """Power-iteration PageRank.

    For undirected graphs every edge is treated as bidirectional.  Dangling
    mass is redistributed uniformly.  Converges when the L1 change drops
    below ``tol``.
    """
    nodes = list(g.nodes())
    n = len(nodes)
    if n == 0:
        return {}
    adj = g.adjacency()
    rank = {v: 1.0 / n for v in nodes}
    out_deg = {v: g.degree(v) for v in nodes}
    for _ in range(max_iter):
        nxt = {v: (1.0 - damping) / n for v in nodes}
        dangling = sum(rank[v] for v in nodes if out_deg[v] == 0)
        share = damping * dangling / n
        for v in nodes:
            nxt[v] += share
            if out_deg[v] == 0:
                continue
            contribution = damping * rank[v] / out_deg[v]
            for w in adj[v]:
                nxt[w] += contribution
        delta = sum(abs(nxt[v] - rank[v]) for v in nodes)
        rank = nxt
        if delta < tol:
            break
    return rank


def degree_centrality(g: Graph) -> Dict[NodeId, float]:
    """Degree divided by (n-1); the standard normalized degree centrality."""
    n = g.num_nodes
    if n <= 1:
        return {v: 0.0 for v in g.nodes()}
    return {v: g.degree(v) / (n - 1) for v in g.nodes()}


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


def betweenness_centrality(
    g: Graph, normalized: bool = True
) -> Dict[NodeId, float]:
    """Exact betweenness centrality (Brandes' algorithm, unweighted).

    O(n·m); intended for the snapshot sizes TAF hands to user code.  For
    undirected graphs pair contributions are halved as usual.
    """
    nodes = list(g.nodes())
    adj = g.adjacency()
    centrality = {v: 0.0 for v in nodes}
    for s in nodes:
        # single-source shortest paths with path counting
        stack: List[NodeId] = []
        preds: Dict[NodeId, List[NodeId]] = {v: [] for v in nodes}
        sigma = {v: 0.0 for v in nodes}
        sigma[s] = 1.0
        dist = {s: 0}
        dq = deque([s])
        while dq:
            v = dq.popleft()
            stack.append(v)
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    dq.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: 0.0 for v in nodes}
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                centrality[w] += delta[w]
    n = len(nodes)
    if not g.directed:
        for v in centrality:
            centrality[v] /= 2.0
    if normalized and n > 2:
        scale = 1.0 / ((n - 1) * (n - 2))
        if not g.directed:
            scale *= 2.0
        for v in centrality:
            centrality[v] *= scale
    return centrality


def closeness_centrality(g: Graph) -> Dict[NodeId, float]:
    """Harmonic-free classic closeness, scaled by reachable-component size
    (the Wasserman-Faust correction), 0 for isolated nodes."""
    n = g.num_nodes
    out: Dict[NodeId, float] = {}
    for v in g.nodes():
        dist = shortest_path_lengths(g, v)
        total = sum(dist.values())
        reachable = len(dist)
        if total > 0 and n > 1:
            out[v] = ((reachable - 1) / total) * ((reachable - 1) / (n - 1))
        else:
            out[v] = 0.0
    return out


def k_core_decomposition(g: Graph) -> Dict[NodeId, int]:
    """Core number of every node (Batagelj-Zaversnik peeling)."""
    degrees = {v: g.degree(v) for v in g.nodes()}
    order = sorted(degrees, key=degrees.get)
    core = dict(degrees)
    seen: set = set()
    import heapq

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


def conductance(g: Graph, node_set) -> float:
    """Conductance of a cut: cut edges over the smaller side's volume.

    Returns 0.0 for empty or full sets (no cut).
    """
    inside = {n for n in node_set if g.has_node(n)}
    if not inside or len(inside) == g.num_nodes:
        return 0.0
    cut = 0
    vol_in = 0
    vol_out = 0
    for v in g.nodes():
        deg = g.degree(v)
        if v in inside:
            vol_in += deg
        else:
            vol_out += deg
    for (u, v) in g.edges():
        if (u in inside) != (v in inside):
            cut += 1
    denom = min(vol_in, vol_out)
    return cut / denom if denom else 0.0


def degree_assortativity(g: Graph) -> float:
    """Pearson correlation of degrees at edge endpoints (undirected);
    0.0 when undefined (no edges or zero variance)."""
    xs: List[float] = []
    ys: List[float] = []
    for (u, v) in g.edges():
        du, dv = g.degree(u), g.degree(v)
        xs.extend((du, dv))
        ys.extend((dv, du))
    n = len(xs)
    if n == 0:
        return 0.0
    mean_x = sum(xs) / n
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        return 0.0
    cov = sum((x - mean_x) * (y - mean_x) for x, y in zip(xs, ys))
    return cov / var
