"""Unit tests for graph metrics."""

import pytest

from repro.graph.metrics import (
    GraphMetrics,
    NodeMetrics,
    average_clustering,
    average_degree,
    density,
    diameter_estimate,
    k_core_decomposition,
    local_clustering_coefficient,
    shortest_path_lengths,
    triangle_count,
)
from repro.errors import GraphError
from repro.graph.static import Graph


def make_path(n):
    g = Graph()
    for i in range(n):
        g.add_node(i)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def make_complete(n):
    g = Graph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def test_density_complete_graph_is_one():
    assert density(make_complete(5)) == pytest.approx(1.0)


def test_density_empty_and_single():
    assert density(Graph()) == 0.0
    g = Graph()
    g.add_node(1)
    assert density(g) == 0.0


def test_lcc_complete_is_one():
    g = make_complete(4)
    assert local_clustering_coefficient(g, 0) == pytest.approx(1.0)


def test_lcc_path_is_zero():
    g = make_path(4)
    assert local_clustering_coefficient(g, 1) == 0.0


def test_lcc_low_degree_is_zero():
    g = make_path(2)
    assert local_clustering_coefficient(g, 0) == 0.0


def test_average_clustering_triangle_with_tail():
    g = make_complete(3)
    g.add_node(3)
    g.add_edge(2, 3)
    # nodes 0,1 have LCC 1; node 2 has 1/3; node 3 has 0
    assert average_clustering(g) == pytest.approx((1 + 1 + 1 / 3 + 0) / 4)


def test_average_degree():
    g = make_path(4)
    assert average_degree(g) == pytest.approx(1.5)
    assert average_degree(Graph()) == 0.0


def test_shortest_path_lengths_path_graph():
    g = make_path(5)
    dist = shortest_path_lengths(g, 0)
    assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_diameter_estimate_path():
    assert diameter_estimate(make_path(6)) == 5


def test_triangle_count():
    g = make_complete(4)
    assert triangle_count(g) == 4
    assert triangle_count(make_path(5)) == 0


def test_k_core_complete_graph():
    g = make_complete(5)
    core = k_core_decomposition(g)
    assert all(v == 4 for v in core.values())


def test_k_core_matches_networkx():
    import networkx as nx
    import random

    rng = random.Random(9)
    g = Graph()
    for n in range(25):
        g.add_node(n)
    for _ in range(60):
        u, v = rng.sample(range(25), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v)
    ours = k_core_decomposition(g)
    theirs = nx.core_number(g.to_networkx())
    assert ours == theirs


# -- the paper's GraphMetrics / NodeMetrics namespaces (Fig. 7) ---------------

def five_node_graph():
    """A triangle 0-1-2 with a tail 2-3-4: core numbers 2, 2, 2, 1, 1."""
    g = make_complete(3)
    for n in (3, 4):
        g.add_node(n)
    g.add_edge(2, 3)
    g.add_edge(3, 4)
    return g


def test_max_core_matches_networkx():
    import networkx as nx

    g = five_node_graph()
    assert GraphMetrics.max_core(g) == 2
    assert GraphMetrics.max_core(g) == max(nx.core_number(g.to_networkx()).values())
    assert GraphMetrics.max_core(make_complete(5)) == 4
    assert GraphMetrics.max_core(Graph()) == 0


def test_node_metrics_degree():
    g = five_node_graph()
    assert [NodeMetrics.degree(g, n) for n in range(5)] == [2, 2, 3, 2, 1]


def test_node_metrics_neighbor_count_with():
    g = five_node_graph()
    g.node_attrs(0)["color"] = "red"
    g.node_attrs(3)["color"] = "red"
    g.node_attrs(1)["color"] = "blue"
    assert NodeMetrics.neighbor_count_with(g, 2, "color", "red") == 2
    assert NodeMetrics.neighbor_count_with(g, 2, "color", "blue") == 1
    assert NodeMetrics.neighbor_count_with(g, 4, "color", "blue") == 0
    with pytest.raises(GraphError):
        NodeMetrics.neighbor_count_with(g, 99, "color", "red")
