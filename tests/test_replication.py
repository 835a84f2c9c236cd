"""Boundary replication makes 1-hop fetches cheaper, never different:
under ``replicate_boundary`` every k-hop equals log replay (paper
Sec. 4.5 / Fig. 5d)."""

import pytest

from repro.graph.static import Graph
from tests.helpers import graph_parts, random_history, small_tgi


def test_khop_is_exact_under_boundary_replication():
    """The case that stood as a strict xfail while auxiliary micros held
    only in-scope edges: edge (13, 50) read ``{'q': 79}`` where replay
    says ``{'w': 4, 'q': 79}``."""
    events = random_history(steps=500, seed=8, edge_attr_churn=True)
    tgi = small_tgi(events, replicate_boundary=True)
    got, _stats = tgi.retrieve_khop(0, 250, k=2)
    want = Graph.replay(events, until=250).khop_subgraph(0, 2)
    assert graph_parts(got) == graph_parts(want)


@pytest.mark.parametrize("seed", range(12))
def test_every_khop_equals_log_replay_under_replication(seed):
    """Every 7th live node at three times, k in {1, 2}: nodes, adjacency
    and edge attributes all equal log replay (782 probes over the twelve
    seeds; 6 differed before format 13)."""
    events = random_history(steps=500, seed=seed, edge_attr_churn=True)
    tgi = small_tgi(events, replicate_boundary=True)
    for t in (125, 250, 499):
        g = Graph.replay(events, until=t)
        for center in sorted(g.nodes())[::7]:
            for k in (1, 2):
                assert graph_parts(tgi.get_khop(center, t, k)) == (
                    graph_parts(g.khop_subgraph(center, k))
                ), (t, center, k)
