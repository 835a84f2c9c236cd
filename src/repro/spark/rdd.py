"""A miniature Spark-like execution engine.

The paper's TAF runs on Apache Spark; we reproduce the pieces TAF uses: an
``RDD`` (partitioned, lazily transformed collection) and a context that
executes jobs over a configurable number of workers.

Because a pure-Python process cannot exhibit real multi-machine speedup,
the engine executes partitions sequentially while *measuring* the wall time
of each partition task, then derives the **simulated parallel makespan** by
longest-processing-time (LPT) assignment of partition tasks to workers.
Fig. 15c's worker-count sweep reports this makespan, which preserves the
paper's scalability shape while keeping runs deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Iterable, List, Optional, Sequence, TypeVar

from repro.errors import AnalyticsError

T = TypeVar("T")
U = TypeVar("U")


@dataclass
class JobStats:
    """Execution accounting for one job (one action)."""

    partition_seconds: List[float] = field(default_factory=list)
    num_workers: int = 1

    @property
    def makespan_seconds(self) -> float:
        """Simulated parallel completion time over ``num_workers`` (LPT)."""
        return lpt_makespan(self.partition_seconds, self.num_workers)


def lpt_makespan(tasks: Sequence[float], workers: int) -> float:
    """Longest-processing-time-first makespan of ``tasks`` on ``workers``."""
    if workers < 1:
        raise AnalyticsError("need at least one worker")
    loads = [0.0] * workers
    for t in sorted(tasks, reverse=True):
        loads[loads.index(min(loads))] += t
    return max(loads, default=0.0)


class RDD(Generic[T]):
    """A partitioned collection with lazy transformations.

    The transformation (``map``) composes a pipeline applied per
    partition; the action (``collect``) executes the pipeline, timing each
    partition for the simulated scheduler.
    """

    def __init__(
        self,
        context: "SparkContext",
        partitions: List[List[Any]],
        pipeline: Optional[Callable[[List[Any]], List[Any]]] = None,
    ) -> None:
        self.context = context
        self._partitions = partitions
        self._pipeline = pipeline or (lambda part: list(part))

    # -- transformations (lazy) -------------------------------------------
    def _chain(self, stage: Callable[[List[Any]], List[Any]]) -> "RDD":
        prev = self._pipeline
        return RDD(self.context, self._partitions, lambda part: stage(prev(part)))

    def map(self, f: Callable[[T], U]) -> "RDD[U]":
        return self._chain(lambda items: [f(x) for x in items])

    # -- actions (eager) ------------------------------------------------------
    def _run(self) -> List[List[Any]]:
        stats = JobStats(num_workers=self.context.num_workers)
        results: List[List[Any]] = []
        for part in self._partitions:
            start = time.perf_counter()
            results.append(self._pipeline(part))
            stats.partition_seconds.append(time.perf_counter() - start)
        self.context.last_job_stats = stats
        return results

    def collect(self) -> List[T]:
        return [x for part in self._run() for x in part]

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)


class SparkContext:
    """Minimal stand-in for ``pyspark.SparkContext``.

    Args:
        num_workers: cluster size used for the simulated makespan (the
            paper's ``ma`` parameter in Fig. 15c).
        default_parallelism: partitions created by :meth:`parallelize`
            when not specified (defaults to ``2 * num_workers``).
    """

    def __init__(
        self, num_workers: int = 2, default_parallelism: Optional[int] = None
    ) -> None:
        if num_workers < 1:
            raise AnalyticsError("need at least one worker")
        self.num_workers = num_workers
        self.default_parallelism = default_parallelism or (2 * num_workers)
        self.last_job_stats = JobStats(num_workers=num_workers)

    def parallelize(
        self, data: Iterable[T], num_partitions: Optional[int] = None
    ) -> RDD[T]:
        items = list(data)
        n = num_partitions or self.default_parallelism
        n = max(1, min(n, max(len(items), 1)))
        parts: List[List[T]] = [[] for _ in range(n)]
        for i, x in enumerate(items):
            parts[i % n].append(x)
        return RDD(self, parts)
