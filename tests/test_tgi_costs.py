"""Tests for the analytic Table 1 cost model."""

import pytest

from repro.index.tgi.costs import (
    INDEXES,
    PRIMITIVES,
    WorkloadShape,
    table1,
    tree_height,
)


@pytest.fixture
def shape():
    return WorkloadShape(G=1e6, S=1e5, E=1e3, V=50, R=20, p=100, h=10)


def test_table_covers_all_indexes_and_primitives(shape):
    table = table1(shape)
    assert set(table) == set(INDEXES)
    for row in table.values():
        assert set(row) == set(PRIMITIVES)


def test_log_snapshot_cost_is_full_history(shape):
    table = table1(shape)
    assert table["log"]["snapshot"][0] == shape.G


def test_copy_snapshot_is_single_delta(shape):
    assert table1(shape)["copy"]["snapshot"] == (shape.S, 1)


def test_tgi_vertex_versions_beats_deltagraph(shape):
    table = table1(shape)
    tgi_cost = table["tgi"]["vertex_versions"][0]
    dg_cost = table["deltagraph"]["vertex_versions"][0]
    assert tgi_cost < dg_cost


def test_tgi_one_hop_beats_deltagraph(shape):
    table = table1(shape)
    assert table["tgi"]["one_hop"][0] < table["deltagraph"]["one_hop"][0]


def test_tgi_snapshot_matches_deltagraph_cardinality(shape):
    table = table1(shape)
    assert table["tgi"]["snapshot"][0] == table["deltagraph"]["snapshot"][0]


def test_tree_height():
    assert tree_height(1, 2) == 0
    assert tree_height(2, 2) == 1
    assert tree_height(8, 2) == 3
    assert tree_height(9, 2) == 4
    assert tree_height(9, 3) == 2
