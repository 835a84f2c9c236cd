"""Every request kind's stats, pinned.

One small history is queried with every kind — a snapshot, a node
state, single and batched node histories, a k-hop history, and single-
and multi-center k-hops under each algorithm — one by one through
``execute`` and together through one ``execute_batch``, on int ids and
on a copy relabelled to string ids.  Each request's algorithm, traffic,
rounds and clocks are pinned, and its candidate names checked: a change
that moves one changes what a query costs, and has to say so here.

The string-id half runs under the two-``PYTHONHASHSEED`` CI step: its
figures must not depend on hash order.
"""

import pytest

from repro import GraphSession
from repro.api import ALGO_KHOP, BadRequest, QueryRequest, request_from_spec
from repro.index.tgi import TGI, TGIConfig
from repro.kvstore.cluster import ClusterConfig
from tests.helpers import random_history, relabelled

EVENTS = random_history(steps=600, seed=5)
T = EVENTS[-1].time
TS = T // 3
#: alive at ``T``; the multi-center requests name all three
CENTERS = (17, 40, 88)


def build(ids):
    events = EVENTS if ids == "int" else relabelled(EVENTS)
    tgi = TGI(TGIConfig(
        events_per_timespan=150, eventlist_size=25, micro_partition_size=8,
        cluster=ClusterConfig(num_machines=3),
    ))
    tgi.build(events)
    return tgi


def every_kind(ids):
    """One request of every kind, the k-hops under every algorithm."""
    def name(n):
        return n if ids == "int" else f"n{n}"

    one, many = name(CENTERS[0]), tuple(map(name, CENTERS))
    return [
        QueryRequest(kind="snapshot", t=T),
        QueryRequest(kind="node_state", t=T, nodes=(one,), single=True),
        QueryRequest(kind="node_histories", ts=TS, te=T, nodes=(one,),
                     single=True),
        QueryRequest(kind="node_histories", ts=TS, te=T, nodes=many),
        QueryRequest(kind="khop_history", ts=TS, te=T, nodes=(one,),
                     single=True),
    ] + [
        QueryRequest(kind="khop", t=T, nodes=nodes, k=2, single=single,
                     algorithm=algorithm)
        for algorithm in ("auto", "khop", "snapshot-first")
        for nodes, single in (((one,), True), (many, False))
    ]


def row(result):
    stats = result.stats
    return (
        stats.algorithm,
        round(stats.requests, 6), round(stats.bytes_read, 6), stats.rounds,
        round(stats.sim_time_ms, 6),
        None if stats.predicted_ms is None else round(stats.predicted_ms, 6),
    )


#: Per request of :func:`every_kind`, in order: ``(algorithm, requests,
#: bytes_read, rounds, sim_time_ms, predicted_ms)``, alone and batched.
#: Recorded before the per-center k-hop algorithm was removed: taking it
#: away moved none of them.  When the index stopped learning a frontier
#: margin from earlier k-hops, only the ``predicted_ms`` of the k-hops
#: that run after others moved (five rows alone, none batched); so did
#: six of them when the session stopped scaling prices by what earlier
#: queries cost.  Every k-hop row alone now reports the model's price of
#: its own plan, whatever ran before it.
PINNED = {
    ('int', False): [
        ('snapshot', 39, 14283, 1, 12.798408, 12.798408),
        ('micro-delta', 3, 964, 1, 1.430264, 1.430264),
        ('batched-histories', 12, 2066, 2, 4.847031, 4.847031),
        ('batched-histories', 36, 6890, 2, 14.498984, 14.498984),
        ('khop-history', 70, 12202, 16, 28.157754, None),
        ('khop', 19, 8466, 3, 10.211006, 5.857715),
        ('khop', 35, 13705, 3, 16.176768, 9.129375),
        ('khop', 19, 8466, 3, 10.211006, 5.857715),
        ('khop', 35, 13705, 3, 16.176768, 9.129375),
        ('snapshot-first', 39, 14283, 1, 12.798408, 12.798408),
        ('snapshot-first', 39, 14283, 1, 12.798408, 12.798408),
    ],
    ('int', True): [
        ('snapshot', 7.211905, 2435.502381, 1, 19.307666, 12.798408),
        ('micro-delta', 0.5, 140.25, 1, 19.307666, 0.397002),
        ('batched-histories', 3.916667, 675.5, 2, 27.297393, 4.450029),
        ('batched-histories', 27.916667, 5499.5, 2, 27.297393, 9.841953),
        ('khop-history', 61.916667, 10811.5, 14, 50.608115, None),
        ('khop', 2.678571, 1195.035714, 0, 19.307666, 0.0),
        ('khop', 5.878571, 2242.835714, 0, 19.307666, 0.0),
        ('khop', 2.678571, 1195.035714, 0, 19.307666, 0.0),
        ('khop', 5.878571, 2242.835714, 0, 19.307666, 0.0),
        ('snapshot-first', 7.211905, 2435.502381, 0, 19.307666, 0.0),
        ('snapshot-first', 7.211905, 2435.502381, 0, 19.307666, 0.0),
    ],
    ('str', False): [
        ('snapshot', 37, 18026, 1, 14.366338, 14.366338),
        ('micro-delta', 3, 1984, 1, 1.928311, 1.928311),
        ('batched-histories', 11, 2866, 2, 4.917803, 4.917803),
        ('batched-histories', 37, 8499, 2, 14.654482, 14.654482),
        ('khop-history', 69, 16229, 16, 29.994209, None),
        ('khop', 22, 10923, 3, 11.610273, 8.880723),
        ('khop', 33, 16643, 3, 17.161631, 9.629687),
        ('khop', 22, 10923, 3, 11.610273, 8.880723),
        ('khop', 33, 16643, 3, 17.161631, 9.629687),
        ('snapshot-first', 37, 18026, 1, 14.366338, 14.366338),
        ('snapshot-first', 37, 18026, 1, 14.366338, 14.366338),
    ],
    ('str', True): [
        ('snapshot', 6.640476, 3132.821429, 1, 20.397822, 14.366338),
        ('micro-delta', 0.5, 267.75, 1, 20.397822, 0.397002),
        ('batched-histories', 3.583333, 942.166667, 2, 29.02082, 4.520801),
        ('batched-histories', 25.083333, 5408.166667, 2, 29.02082, 10.68668),
        ('khop-history', 57.083333, 13138.166667, 14, 50.078896, None),
        ('khop', 3.107143, 1527.821429, 0, 20.397822, 0.0),
        ('khop', 5.307143, 2671.821429, 0, 20.397822, 0.0),
        ('khop', 3.107143, 1527.821429, 0, 20.397822, 0.0),
        ('khop', 5.307143, 2671.821429, 0, 20.397822, 0.0),
        ('snapshot-first', 6.640476, 3132.821429, 0, 20.397822, 0.0),
        ('snapshot-first', 6.640476, 3132.821429, 0, 20.397822, 0.0),
    ],
}


@pytest.mark.parametrize("ids", ["int", "str"])
@pytest.mark.parametrize("together", [False, True], ids=["alone", "batch"])
def test_every_kind_costs_what_it_did(ids, together):
    session = GraphSession.from_index(build(ids))
    requests = every_kind(ids)
    if together:
        results = session.execute_batch(requests)
    else:
        results = [session.execute(request) for request in requests]
    want = PINNED[ids, together]
    assert len(results) == len(want)
    for request, result, pin in zip(requests, results, want):
        what = request.describe()
        assert result.ok, what
        got = row(result)
        assert got[0] == pin[0], what
        assert got[3] == pin[3], what
        for have, pinned in zip(got[1:], pin[1:]):
            if pinned is None:
                assert have is None, what
            else:
                assert have == pytest.approx(pinned, abs=1e-6), what
        # a k-hop prices both algorithms, one center or many; every other
        # kind has its one plan, priced when a bound exists
        names = set(result.stats.candidates)
        if request.kind == "khop":
            assert names == {"khop", "snapshot-first"}, what
        else:
            assert names == ({pin[0]} if pin[5] is not None else set()), what


def test_the_per_center_name_is_refused_on_the_wire():
    with pytest.raises(BadRequest) as info:
        request_from_spec({
            "kind": "khop", "nodes": [3, 17], "time": T, "k": 2,
            "algorithm": ALGO_KHOP + "-per-center",
        })
    assert "auto, snapshot-first, khop" in str(info.value)
