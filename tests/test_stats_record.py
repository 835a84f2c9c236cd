"""One ``Counters`` record from the store to ``/metrics``.

The additive counters a retrieval reports are declared once
(``repro.kvstore.cost.Counters``); ``FetchStats``, ``QueryStats`` and
``ParallelFetchStats`` extend it, every hop between them is
``Counters.add``, and every counter reaches the wire twice: in
``QueryStats.as_dict()`` and as a ``/metrics`` family of the session's
registry.  These tests hold
the three ends together, so a counter added to the record and forgotten
at one of them fails here by name."""

from dataclasses import MISSING, fields

import pytest
from hypothesis import given, strategies as st

from repro.api import QueryStats
from repro.kvstore import cost
from repro.kvstore.cost import COUNTER_NAMES, FetchStats, RequestRecord
from repro.obs import SessionMetrics
from repro.service.metrics import ServiceMetrics
from repro.taf.handler import ParallelFetchStats

RECORDS = (FetchStats, QueryStats, ParallelFetchStats)
LABELS = ["ts0:p1", "ts0:p4"]

#: a distinct, unmistakable value per counter (and per traffic field)
NUMBERS = {name: 101 + i for i, name in enumerate(COUNTER_NAMES)}
NUMBERS["degraded_partitions"] = LABELS
FILLED = QueryStats(
    requests=7001, bytes_read=7002, sim_time_ms=7003.0,
    algorithm="khop", predicted_ms=7004.0, **NUMBERS
)


def flattened(block, prefix=""):
    out = {}
    for key, value in block.items():
        if isinstance(value, dict):
            out.update(flattened(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def prometheus_samples(stats):
    # what a served query leaves: the session's record, the caller's bill
    registry = SessionMetrics()
    registry.record("khop", stats)
    metrics = ServiceMetrics(registry)
    metrics.bill("caller", stats)
    samples = {}
    for line in metrics.render_prometheus().splitlines():
        if not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            samples[series] = float(value)
    return samples


# -- (a) every counter reaches both wires ------------------------------------

@pytest.mark.parametrize("name", COUNTER_NAMES)
def test_every_counter_is_in_as_dict(name):
    flat = flattened(FILLED.as_dict())
    if name == "degraded_partitions":
        assert flat["degraded.partitions"] == LABELS
    else:
        assert NUMBERS[name] in flat.values(), name


@pytest.mark.parametrize("name", COUNTER_NAMES)
def test_every_counter_is_a_metrics_family(name):
    samples = prometheus_samples(FILLED)
    if name == "degraded_partitions":
        # the label list is one more query answered degraded
        assert samples["hgs_degraded_queries_total"] == 1.0
    else:
        assert float(NUMBERS[name]) in samples.values(), name


def test_the_metrics_families_by_name():
    samples = prometheus_samples(FILLED)
    for name, family in {
        "rounds": "hgs_store_rounds_total",
        "overlap_saved_ms": "hgs_overlap_saved_ms_total",
        "apply_ms": "hgs_apply_ms_total",
        "cache_bytes_saved": "hgs_cache_bytes_saved_total",
        "decoded_events": "hgs_decoded_events_total",
        "backoff_ms": "hgs_store_backoff_ms_total",
        "cache_hits": "hgs_cache_hits_total",
        "retries": "hgs_store_retries_total",
        "degraded_keys": "hgs_degraded_keys_total",
    }.items():
        assert samples[family] == NUMBERS[name]
    assert samples['hgs_store_requests_total{caller="caller"}'] == 7001
    assert samples['hgs_store_bytes_total{caller="caller"}'] == 7002


def test_a_plan_that_queued_reports_its_negative_overlap_share():
    """Per-plan ``overlap_saved_ms`` is signed (a plan that waited behind
    its batchmates lost more than it overlapped); the family sums what
    the queries reported instead of refusing the sample."""
    metrics = SessionMetrics()
    metrics.record("khop", QueryStats(overlap_saved_ms=-19.5))
    metrics.record("khop", QueryStats(overlap_saved_ms=4.25))
    assert "hgs_overlap_saved_ms_total -15.25" in metrics.render()


# -- (b) declared once -------------------------------------------------------

@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_records_extend_counters_and_redeclare_nothing(record):
    assert issubclass(record, cost.Counters)
    own = record.__dict__.get("__annotations__", {})
    have = {spec.name for spec in fields(record)}
    for name in COUNTER_NAMES:
        assert name in have and name not in own, name
    assert set(cost.RESILIENCE_COUNTERS) <= set(COUNTER_NAMES)


def test_what_each_record_alone_adds():
    assert isinstance(FetchStats().requests, list)
    assert isinstance(QueryStats().requests, int)
    assert QueryStats().algorithm is None
    taf = ParallelFetchStats()
    assert taf.requests == 0 and taf.partition_sim_ms == []
    assert not hasattr(taf, "algorithm")
    # the TAF clock stays derived: LPT over the partitions, or the
    # shared timeline's makespan when the plans ran on one
    assert isinstance(ParallelFetchStats.sim_time_ms, property)
    assert taf.sim_time_ms == 0.0
    assert ParallelFetchStats(pipelined_ms=3.5).sim_time_ms == 3.5
    assert ParallelFetchStats(
        partition_sim_ms=[2.0, 1.0, 1.5], num_workers=2
    ).sim_time_ms == 2.5


# -- (c) every hop conserves the totals --------------------------------------

def _value(spec):
    if spec.default is MISSING:  # the label list
        return st.lists(
            st.sampled_from(["ts0:p0", "ts0:p1", "ts1:p3", "vc:5"]),
            unique=True, max_size=4,
        )
    if isinstance(spec.default, float):  # eighths add exactly
        return st.integers(-800, 800).map(lambda n: n / 8)
    return st.integers(0, 1000)


def _record(i):
    return RequestRecord(
        key=(i,), server=i % 3, client=0, stored_bytes=10 + i,
        raw_bytes=20 + i, contiguous=False, compressed=False, service_ms=0.5,
    )


fetches = st.builds(
    FetchStats,
    requests=st.integers(0, 5).map(lambda n: [_record(i) for i in range(n)]),
    sim_time_ms=st.integers(0, 800).map(lambda n: n / 8),
    **{spec.name: _value(spec) for spec in fields(cost.Counters)},
)


def counters_of(stats):
    return {name: getattr(stats, name) for name in COUNTER_NAMES}


def summed(*parts):
    out = {}
    for name in COUNTER_NAMES:
        values = [getattr(part, name) for part in parts]
        if isinstance(values[0], list):
            out[name] = list(dict.fromkeys(l for v in values for l in v))
        else:
            out[name] = sum(values)
    return out


@given(fetches, fetches)
def test_merge_conserves(a, b):
    want = summed(a, b)
    requests = a.requests + b.requests
    clock = a.sim_time_ms + b.sim_time_ms
    b_before = counters_of(b), list(b.requests)
    a.merge(b)
    assert counters_of(a) == want
    assert a.requests == requests and a.sim_time_ms == clock
    assert (counters_of(b), b.requests) == b_before  # the source is read only


@given(fetches, fetches)
def test_absorb_conserves(a, b):
    total = ParallelFetchStats(num_workers=2)
    total.absorb(a)
    total.absorb(b)
    assert counters_of(total) == summed(a, b)
    assert total.requests == a.num_requests + b.num_requests
    assert total.bytes_read == a.bytes_read + b.bytes_read
    assert total.sim_time_ms == 0.0  # completion time is not a counter


@given(fetches)
def test_from_fetch_conserves(fetch):
    stats = QueryStats.from_fetch(fetch, algorithm="khop", predicted_ms=1.0)
    assert counters_of(stats) == counters_of(fetch)
    assert stats.degraded_partitions is not fetch.degraded_partitions
    assert stats.requests == fetch.num_requests
    assert stats.bytes_read == fetch.bytes_read
    assert stats.sim_time_ms == fetch.sim_time_ms
    assert (stats.algorithm, stats.predicted_ms) == ("khop", 1.0)


@given(fetches, fetches)
def test_adding_the_resilience_subset_moves_only_it(a, b):
    before, want = counters_of(a), summed(a, b)
    before["degraded_partitions"] = list(a.degraded_partitions)
    a.add(b, cost.RESILIENCE_COUNTERS)
    for name in COUNTER_NAMES:
        moved = name in cost.RESILIENCE_COUNTERS
        assert getattr(a, name) == (want if moved else before)[name], name
