"""Unit tests for the miniature Spark engine."""

import pytest

from repro.errors import AnalyticsError
from repro.spark.rdd import RDD, SparkContext, lpt_makespan


@pytest.fixture
def sc():
    return SparkContext(num_workers=2, default_parallelism=4)


def test_parallelize_and_collect(sc):
    rdd = sc.parallelize(range(10))
    assert sorted(rdd.collect()) == list(range(10))
    assert rdd.num_partitions == 4


def test_job_stats_recorded(sc):
    rdd = sc.parallelize(range(100), num_partitions=4)
    rdd.map(lambda x: x * x).collect()
    stats = sc.last_job_stats
    assert len(stats.partition_seconds) == 4
    assert stats.makespan_seconds <= sum(stats.partition_seconds) + 1e-9


def test_lpt_makespan_balances():
    tasks = [5.0, 3.0, 3.0, 2.0, 2.0, 1.0]
    assert lpt_makespan(tasks, 1) == pytest.approx(16.0)
    assert lpt_makespan(tasks, 2) == pytest.approx(8.0)
    assert lpt_makespan(tasks, 100) == pytest.approx(5.0)


def test_lpt_rejects_zero_workers():
    with pytest.raises(AnalyticsError):
        lpt_makespan([1.0], 0)


def test_lazy_pipeline_does_not_mutate_source(sc):
    rdd = sc.parallelize([1, 2, 3])
    doubled = rdd.map(lambda x: x * 2)
    assert sorted(rdd.collect()) == [1, 2, 3]
    assert sorted(doubled.collect()) == [2, 4, 6]


def test_context_validates_workers():
    with pytest.raises(AnalyticsError):
        SparkContext(num_workers=0)
