"""Integration tests for the TAF: SoN/SoTS operators end to end."""

import pytest

from repro import GraphSession
from repro.errors import AnalyticsError
from repro.graph.events import EventKind
from repro.graph.metrics import GraphMetrics, NodeMetrics
from repro.graph.static import Graph
from repro.index.tgi import TGI, TGIConfig
from repro.spark.rdd import SparkContext
from repro.taf.handler import TGIHandler
from repro.taf.node_t import NodeT
from repro.taf.son import SON, SOTS, ComputedValues
from repro.taf import timepoints as tp
from repro.workloads.social import SocialConfig, generate_social_events
from tests.helpers import relabelled


@pytest.fixture(scope="module")
def events():
    return generate_social_events(
        SocialConfig(num_nodes=60, num_steps=600, seed=8)
    )


@pytest.fixture(scope="module")
def handler(events):
    tgi = TGI(TGIConfig(events_per_timespan=250, eventlist_size=40,
                        micro_partition_size=12))
    tgi.build(events)
    return TGIHandler(tgi, SparkContext(num_workers=2))


@pytest.fixture(scope="module")
def t_end(events):
    return events[-1].time


# -- SoN -----------------------------------------------------------------

def test_fetch_all_nodes(handler, events, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()
    final = Graph.replay(events)
    assert set(son.node_ids()) >= set(final.nodes())


def test_unfetched_son_rejects_collect(handler):
    with pytest.raises(Exception):
        SON(handler).collect()


def test_pre_fetch_id_select_prunes(handler, t_end):
    son = SON(handler).Select("id < 10").Timeslice(1, t_end).fetch()
    assert all(nid < 10 for nid in son.node_ids())


def test_post_fetch_attribute_select(handler, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()
    son_a = son.Select('community = "A"')
    assert 0 < len(son_a) < len(son)
    for nt in son_a:
        labels = {
            (s.attrs.get("community") if s else None)
            for _, s in nt.get_versions()
        }
        assert "A" in labels


def test_select_callable(handler, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()
    high = son.Select(lambda nt: nt.node_id >= 50)
    assert all(nid >= 50 for nid in high.node_ids())


def test_filter_projects_attributes(handler, t_end):
    son = SON(handler).Timeslice(1, t_end).Filter("community").fetch()
    for nt in son:
        for _, state in nt.get_versions():
            if state is not None:
                assert set(state.attrs) <= {"community"}


def test_timeslice_point_gives_static_states(handler, events, t_end):
    mid = t_end // 2
    son = SON(handler).Timeslice(1, t_end).fetch()
    sliced = son.Timeslice(mid)
    g = sliced.GetGraph(mid)
    # SoN graphs carry node attributes but not edge attributes
    assert g == _strip_edge_attrs(Graph.replay(events, until=mid))


def test_timeslice_list_returns_list(handler, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()
    slices = son.Timeslice([t_end // 3, 2 * t_end // 3])
    assert isinstance(slices, list) and len(slices) == 2


def test_getgraph_matches_replay(handler, events, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()
    for t in (t_end // 4, t_end // 2, t_end):
        assert son.GetGraph(t) == _strip_edge_attrs(
            Graph.replay(events, until=t)
        )


def _strip_edge_attrs(g):
    out = Graph(directed=g.directed)
    for n in g.nodes():
        out.add_node(n, g.node_attrs(n))
    for (u, v) in g.edges():
        out.add_edge(u, v)
    return out


def test_tgraph_graph_at_and_change_points(handler, events, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()
    tgraph = son.GetGraph()
    points = tgraph.change_points()
    assert points == son.change_points()
    assert points == sorted(set(points)) and 1 < points[0] <= points[-1] <= t_end
    for t in (points[0], points[len(points) // 2], t_end):
        assert tgraph.graph_at(t) == son.GetGraph(t)
        assert tgraph.graph_at(t) == _strip_edge_attrs(
            Graph.replay(events, until=t)
        )


def test_evolution_density(handler, events, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()
    evol = son.GetGraph().Evolution(GraphMetrics.density, 8)
    assert len(evol) == 8
    want = GraphMetrics.density(Graph.replay(events, until=t_end))
    assert evol[-1][1] == pytest.approx(want)


def test_evolution_custom_selector(handler, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()
    evol = son.GetGraph().Evolution(
        GraphMetrics.density, tp.endpoints_and_middle
    )
    assert len(evol) == 3


def test_compare_two_communities(handler, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()
    son_a = son.Select('community = "A"')
    son_b = son.Select('community = "B"')
    series_a, series_b = SON.Compare(son_a, son_b, SON.count())
    assert len(series_a) == len(series_b) > 0
    assert max(series_a) > 0 and max(series_b) > 0


def test_node_compute_degree(handler, events, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()
    degrees = son.NodeCompute(lambda state: len(state.E) if state else 0,
                              at=t_end)
    final = Graph.replay(events, until=t_end)
    for nid in sorted(final.nodes())[:10]:
        assert degrees[nid] == final.degree(nid)


def test_node_compute_temporal_tracks_activity(handler, events, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()
    series = son.NodeComputeTemporal(
        lambda state: (state.attrs.get("activity", 0) if state else 0)
    )
    final = Graph.replay(events, until=t_end)
    for nid in sorted(final.nodes())[:10]:
        assert series[nid][-1][1] == final.node_attrs(nid).get("activity", 0)


def test_node_compute_delta_matches_temporal(handler, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()

    def f(state):
        return len(state.E) if state else 0

    def f_delta(prev_state, prev_val, ev):
        if ev.kind == EventKind.EDGE_ADD:
            return prev_val + 1
        if ev.kind == EventKind.EDGE_DELETE:
            return prev_val - 1
        return prev_val

    temporal = son.NodeComputeTemporal(f)
    delta = son.NodeComputeDelta(f, f_delta)
    for nid in list(temporal.series)[:15]:
        t_map = dict(temporal[nid])
        d_map = dict(delta[nid])
        common = set(t_map) & set(d_map)
        assert common
        for t in common:
            assert t_map[t] == d_map[t], (nid, t)


# -- SoTS -----------------------------------------------------------------

def test_sots_fetch_and_lcc(handler, events, t_end):
    centers = [0, 1, 2, 3]
    sots = SOTS(k=1, handler=handler).Timeslice(t_end).fetch(centers=centers)
    values = sots.NodeCompute(NodeMetrics.LCC)
    final = Graph.replay(events, until=t_end)
    for c in centers:
        if final.has_node(c):
            from repro.graph.metrics import local_clustering_coefficient

            assert values[c] == pytest.approx(
                local_clustering_coefficient(final, c)
            )


def test_sots_version_matches_ground_truth(handler, events, t_end):
    sots = SOTS(k=1, handler=handler).Timeslice(1, t_end).fetch(centers=[5])
    sg = sots.collect()[0]
    for t in (t_end // 2, t_end):
        truth = Graph.replay(events, until=t)
        if truth.has_node(5):
            got = sg.get_version_at(t)
            want = truth.khop_subgraph(5, 1)
            assert sorted(got.nodes()) == sorted(want.nodes())
            assert {e for e in got.edges()} == {e for e in want.edges()}


def test_sots_temporal_vs_delta_label_count(handler, t_end):
    sots = SOTS(k=2, handler=handler).Timeslice(1, t_end).fetch(
        centers=[0, 7, 11]
    )

    def f_count(g):
        return sum(
            1 for n in g.nodes() if g.node_attrs(n).get("community") == "A"
        )

    def f_delta(gprev, val, ev):
        if ev.kind == EventKind.NODE_ADD:
            attrs = ev.value or {}
            return val + (1 if attrs.get("community") == "A" else 0)
        if ev.kind == EventKind.NODE_DELETE:
            if gprev.has_node(ev.node) and gprev.node_attrs(ev.node).get(
                "community"
            ) == "A":
                return val - 1
        if ev.kind == EventKind.NODE_ATTR_SET and ev.key == "community":
            was = (
                gprev.node_attrs(ev.node).get("community")
                if gprev.has_node(ev.node)
                else None
            )
            if was != "A" and ev.value == "A":
                return val + 1
            if was == "A" and ev.value != "A":
                return val - 1
        return val

    temporal = sots.NodeComputeTemporal(f_count)
    delta = sots.NodeComputeDelta(f_count, f_delta)
    for c in temporal.series:
        assert temporal[c] == delta[c]


def test_sots_pre_select(handler, t_end):
    sots = SOTS(k=1, handler=handler).Select("id < 3").Timeslice(
        1, t_end
    ).fetch()
    assert all(sg.center < 3 for sg in sots)


def test_parallel_fetch_stats_recorded(handler, t_end):
    stats = SON(handler).Timeslice(1, t_end).fetch().fetch_stats
    assert stats.requests > 0
    assert stats.sim_time_ms > 0
    assert len(stats.partition_sim_ms) >= 1


def test_series_set_aggregations(handler, t_end):
    son = SON(handler).Select("id < 6").Timeslice(1, t_end).fetch()
    series = son.NodeComputeTemporal(
        lambda state: len(state.E) if state else 0
    )
    maxima = series.Max()
    minima = series.Min()
    means = series.Mean()
    finals = series.final_values()
    for nid in series.series:
        times_values = series[nid]
        assert maxima[nid][1] == max(v for _, v in times_values)
        # the minimum, at its earliest time on ties
        low = min(v for _, v in times_values)
        assert minima[nid] == (
            min(t for t, v in times_values if v == low), low
        )
        assert means[nid] == pytest.approx(
            sum(v for _, v in times_values) / len(times_values)
        )
        assert finals[nid] == times_values[-1][1]


def test_series_set_peaks(handler, t_end):
    son = SON(handler).Select("id < 4").Timeslice(1, t_end).fetch()
    series = son.NodeComputeTemporal(
        lambda state: len(state.E) if state else 0
    )
    for nid, pks in series.Peak().items():
        values = dict(series[nid])
        for t, v in pks:
            assert values[t] == v


# -- ComputedValues reductions and CompareNodes -------------------------

@pytest.mark.parametrize("name", [lambda n: n, lambda n: f"n{n}"],
                         ids=["int", "str"])
def test_computed_values_reductions_break_ties_by_smallest_id(name):
    values = ComputedValues({name(3): 5, name(1): 5, name(2): 1, name(4): 1})
    assert values.Max() == (name(1), 5)
    assert values.Min() == (name(2), 1)
    assert values.Mean() == 3.0
    assert ComputedValues({name(7): 2}).Max() == (name(7), 2)
    empty = ComputedValues({})
    for reduce in (empty.Max, empty.Min, empty.Mean):
        with pytest.raises(AnalyticsError, match="empty computed set"):
            reduce()


def degree(state):
    return len(state.E) if state else 0


@pytest.mark.parametrize("strings", [False, True], ids=["int", "str"])
def test_node_compute_max_on_a_built_index(events, strings):
    stream = relabelled(events) if strings else events
    tgi = TGI(TGIConfig(events_per_timespan=250, eventlist_size=40,
                        micro_partition_size=12))
    tgi.build(stream)
    t = stream[-1].time
    values = GraphSession.from_index(tgi).nodes().Timeslice(1, t).fetch() \
        .NodeCompute(degree, at=t)
    final = Graph.replay(stream, until=t)
    top = max(final.degree(n) for n in final.nodes())
    want = min(n for n in final.nodes() if final.degree(n) == top)
    assert values.Max() == (want, top)


def test_compare_nodes_pairs_each_shared_node(handler, events, t_end):
    son = SON(handler).Timeslice(1, t_end).fetch()
    community = son.Select('community = "A"')
    got = SON.CompareNodes(son, community, degree, t=t_end)
    final = Graph.replay(events, until=t_end)
    shared = set(son.NodeCompute(degree).values) & set(
        community.NodeCompute(degree).values
    )
    assert got.keys() == shared and shared
    for node, (a, b) in got.items():
        assert a == b == (final.degree(node) if final.has_node(node) else 0)
