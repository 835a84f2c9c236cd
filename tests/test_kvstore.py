"""Unit tests for the simulated key-value cluster and codec."""

import pytest

from repro.errors import KeyNotFound, StorageError
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.codec import decode, encode
from repro.kvstore.cost import CostModel, FetchStats, RequestRecord, simulate_plan
from repro.kvstore.node import StorageNode


# -- codec ----------------------------------------------------------------

def test_codec_roundtrip_plain():
    enc = encode({"a": [1, 2, 3]})
    assert decode(enc.payload) == {"a": [1, 2, 3]}
    assert not enc.compressed


def test_codec_roundtrip_compressed():
    value = list(range(1000))
    enc = encode(value, compress=True)
    assert enc.compressed
    assert enc.stored_size < enc.raw_size
    assert decode(enc.payload) == value


def test_codec_rejects_garbage():
    with pytest.raises(ValueError):
        decode(b"Xgarbage")


# -- storage node -----------------------------------------------------------

def test_node_put_get_delete():
    node = StorageNode(0)
    key = (1, 2, ("S", 0), 0)
    node.put(key, encode("v"))
    assert decode(node.get(key).payload) == "v"
    node.delete(key)
    with pytest.raises(KeyNotFound):
        node.get(key)


def test_node_rank_reflects_sorted_position():
    node = StorageNode(0)
    keys = [(0, 0, ("E", i), 0) for i in range(5)]
    for k in reversed(keys):
        node.put(k, encode(1))
    assert [node.rank(k) for k in keys] == [0, 1, 2, 3, 4]


# -- cost model ---------------------------------------------------------------

def test_service_time_scan_discount():
    m = CostModel()
    full = m.service_time(1024, 1024, contiguous=False, compressed=False)
    scan = m.service_time(1024, 1024, contiguous=True, compressed=False)
    assert scan < full


def test_simulate_plan_two_sided_bound():
    m = CostModel(seek_ms=1.0, per_kb_read_ms=0.0, rtt_ms=0.0,
                  deserialize_per_kb_ms=0.0)
    recs = [
        RequestRecord((i,), server=0, client=i % 2, stored_bytes=0,
                      raw_bytes=0, contiguous=False, compressed=False,
                      service_ms=1.0)
        for i in range(4)
    ]
    # one server does all 4 units of work regardless of client count
    assert simulate_plan(recs, m) == pytest.approx(4.0)


def test_fetch_stats_merge():
    a = FetchStats(sim_time_ms=2.0)
    b = FetchStats(sim_time_ms=3.0)
    a.merge(b)
    assert a.sim_time_ms == pytest.approx(5.0)


# -- cluster --------------------------------------------------------------------

def read(cluster, key):
    """One costed read of ``key`` (a multiget of one)."""
    values, _ = cluster.multiget([key])
    return values[key]


def test_cluster_config_validation():
    with pytest.raises(StorageError):
        ClusterConfig(num_machines=0)
    with pytest.raises(StorageError):
        ClusterConfig(num_machines=2, replication=3)


def test_cluster_put_get_roundtrip():
    c = Cluster(ClusterConfig(num_machines=3))
    c.put((0, 1, ("S", 0), 0), {"x": 1})
    assert read(c, (0, 1, ("S", 0), 0)) == {"x": 1}


def test_cluster_replication_writes_r_copies():
    c = Cluster(ClusterConfig(num_machines=3, replication=2))
    c.put((0, 1, ("S", 0), 0), "v")
    holders = sum(1 for m in c.machines if (0, 1, ("S", 0), 0) in m)
    assert holders == 2
    assert c.unique_rows == 1


def test_multiget_returns_all_values_and_stats():
    c = Cluster(ClusterConfig(num_machines=2))
    keys = [(0, i % 4, ("S", i), 0) for i in range(10)]
    for i, k in enumerate(keys):
        c.put(k, i)
    values, stats = c.multiget(keys, clients=2)
    assert values == {k: i for i, k in enumerate(keys)}
    assert stats.num_requests == 10
    assert stats.sim_time_ms > 0


def test_multiget_missing_key_raises():
    c = Cluster()
    c.put((0, 0, ("S", 0), 0), 1)
    with pytest.raises(KeyNotFound):
        c.multiget([(0, 0, ("S", 99), 0)])


def test_multiget_empty():
    c = Cluster()
    values, stats = c.multiget([])
    assert values == {} and stats.num_requests == 0


def test_more_clients_not_slower():
    c = Cluster(ClusterConfig(num_machines=4))
    keys = [(0, i % 16, ("S", i), 0) for i in range(64)]
    for k in keys:
        c.put(k, "payload" * 50)
    _, s1 = c.multiget(keys, clients=1)
    _, s4 = c.multiget(keys, clients=4)
    _, s16 = c.multiget(keys, clients=16)
    assert s4.sim_time_ms <= s1.sim_time_ms
    assert s16.sim_time_ms <= s4.sim_time_ms


def test_more_machines_helps_when_server_bound():
    keys = [(0, i, ("S", 0), 0) for i in range(32)]
    times = {}
    for m in (1, 4):
        c = Cluster(ClusterConfig(num_machines=m))
        for k in keys:
            c.put(k, "x" * 2000)
        _, stats = c.multiget(keys, clients=16)
        times[m] = stats.sim_time_ms
    assert times[4] < times[1]


def test_contiguous_clustering_cheaper_than_scattered():
    c = Cluster(ClusterConfig(num_machines=1))
    # contiguous: same placement + consecutive clustering keys
    contiguous = [(0, 0, ("S", 0), pid) for pid in range(20)]
    for k in contiguous:
        c.put(k, "v")
    _, s_cont = c.multiget(contiguous, clients=1)
    c2 = Cluster(ClusterConfig(num_machines=1))
    scattered = [(0, 0, ("S", i), 0) for i in range(0, 40, 2)]
    interleave = [(0, 0, ("S", i), 0) for i in range(1, 41, 2)]
    for k in scattered + interleave:
        c2.put(k, "v")
    _, s_scat = c2.multiget(scattered, clients=1)
    assert s_cont.sim_time_ms < s_scat.sim_time_ms


def test_compression_stores_fewer_bytes():
    plain = Cluster(ClusterConfig())
    comp = Cluster(ClusterConfig(compress=True))
    value = {"k": list(range(2000))}
    plain.put((0, 0, ("S", 0), 0), value)
    comp.put((0, 0, ("S", 0), 0), value)
    assert comp.stored_bytes < plain.stored_bytes
    assert read(comp, (0, 0, ("S", 0), 0)) == value


def test_inconsistent_placement_len_rejected():
    c = Cluster()
    c.put((0, 0, ("S", 0), 0), 1, placement_len=2)
    with pytest.raises(StorageError):
        c.put((0, 0, ("S", 1), 0), 1, placement_len=3)


# -- failure injection ---------------------------------------------------------

def test_failover_to_surviving_replica():
    c = Cluster(ClusterConfig(num_machines=3, replication=2))
    key = (0, 1, ("S", 0), 0)
    c.put(key, "v")
    primary = c.replicas_for((0, 1))[0]
    c.fail_machine(primary)
    assert read(c, key) == "v"


def test_all_replicas_down_raises():
    c = Cluster(ClusterConfig(num_machines=2, replication=1))
    key = (0, 1, ("S", 0), 0)
    c.put(key, "v")
    for mid in c.replicas_for((0, 1)):
        c.fail_machine(mid)
    with pytest.raises(StorageError):
        read(c, key)


def test_recover_machine_restores_reads():
    c = Cluster(ClusterConfig(num_machines=2, replication=1))
    key = (0, 1, ("S", 0), 0)
    c.put(key, "v")
    mid = c.replicas_for((0, 1))[0]
    c.fail_machine(mid)
    c.recover_machine(mid)
    assert read(c, key) == "v"


def test_fail_invalid_machine_rejected():
    c = Cluster(ClusterConfig(num_machines=2))
    with pytest.raises(StorageError):
        c.fail_machine(9)


def test_writes_skip_down_machine():
    c = Cluster(ClusterConfig(num_machines=2, replication=2))
    key = (0, 1, ("S", 0), 0)
    down = c.replicas_for((0, 1))[0]
    c.fail_machine(down)
    c.put(key, "v")
    assert key not in c.machines[down]
    c.recover_machine(down)
    # the survivor still serves the value
    other = [m for m in c.replicas_for((0, 1)) if m != down][0]
    assert key in c.machines[other]


def test_delete_skips_down_machine():
    c = Cluster(ClusterConfig(num_machines=2, replication=2))
    key = (0, 1, ("S", 0), 0)
    c.put(key, "v")
    down = c.replicas_for((0, 1))[0]
    c.fail_machine(down)
    c.delete(key)  # must not raise: the down replica just stays stale
    assert key in c.machines[down]
    other = [m for m in c.replicas_for((0, 1)) if m != down][0]
    assert key not in c.machines[other]


def test_tgi_survives_single_machine_failure():
    from repro.index.tgi import TGI, TGIConfig
    from tests.helpers import random_history
    from repro.graph.static import Graph

    events = random_history(steps=150, seed=33)
    tgi = TGI(TGIConfig(events_per_timespan=80, eventlist_size=20,
                        micro_partition_size=10,
                        cluster=ClusterConfig(num_machines=3, replication=2)))
    tgi.build(events)
    t = events[-1].time
    want = Graph.replay(events, until=t)
    tgi.cluster.fail_machine(0)
    assert tgi.get_snapshot(t) == want
