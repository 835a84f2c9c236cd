"""Unit tests for shared primitive types."""

from repro.types import TIME_MAX, TIME_MIN, canonical_edge


def test_canonical_edge_orders_undirected():
    assert canonical_edge(5, 3) == (3, 5)
    assert canonical_edge(3, 5) == (3, 5)


def test_canonical_edge_preserves_directed():
    assert canonical_edge(5, 3, directed=True) == (5, 3)


def test_canonical_edge_self_loop():
    assert canonical_edge(4, 4) == (4, 4)


def test_time_sentinels_order():
    assert TIME_MIN < 0 < TIME_MAX
