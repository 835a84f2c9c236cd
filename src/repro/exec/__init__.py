"""The fetch-plan execution layer.

Every retrieval in the paper is ultimately a carefully planned set of
parallel key-value fetches (Sec. 4, Algorithms 1-5), and the TAF scales by
having analytics partitions fetch temporal nodes directly from the store
(Fig. 10).  This package makes that execution path first-class instead of
leaving each index method to hand-assemble key lists and call
``cluster.multiget`` inline:

- :mod:`repro.exec.plan` — **declarative fetch plans**.  A
  :class:`~repro.exec.plan.FetchPlan` is an ordered sequence of
  :class:`~repro.exec.plan.FetchStage` objects; each stage holds
  :class:`~repro.exec.plan.KeyGroup` groups whose *role* string records
  how the fetched rows are decoded/applied (tree-path delta, trailing
  eventlist, version chain, chain-pointed eventlist, ...).  A stage may
  also be produced lazily from earlier results (a *stage factory*), which
  is how version-chain rows resolve into pointer fetches without leaving
  the plan.

- :mod:`repro.exec.executor` — the
  :class:`~repro.exec.executor.PlanExecutor` coalesces each stage's keys
  into a single ``multiget`` round (the minimum possible: stages only
  exist where a true data dependency forces another round), runs the
  rounds through the cluster's existing cost simulation, and threads one
  :class:`~repro.kvstore.cost.FetchStats` through each plan — including
  round counts and cache counters.  It has one schedule:
  :meth:`~repro.exec.executor.PlanExecutor.execute_many` runs its plans
  on one :class:`~repro.kvstore.cost.ExecutionTimeline` in the coalesced
  windows below, and ``execute(plan)`` is ``execute_many([plan])`` — a
  lone query is a window sequence of one plan.

- :mod:`repro.exec.coalesce` — **fetch coalescing**, that schedule: per
  scheduling window every unfinished plan resolves its next stage, a
  single-flight in-flight table dedups keys several stages name — of
  one plan or of several — (each fetched once, consumers counted as
  ``coalesced_hits``), the window's keys go out as one merged multiget
  released as soon as its owners' previous rounds completed — overlapping
  one plan's fetch with the others' rounds and apply work — and a
  :class:`~repro.exec.coalesce.CoalesceReport` splits the shared work
  fairly across beneficiaries for per-query accounting.

- :mod:`repro.exec.cache` — a bounded-LRU
  :class:`~repro.exec.cache.DeltaCache` over decoded rows keyed by delta
  key.  Repeated queries — and the many nodes of one TAF fetch that share
  a span's root snapshot partitions — stop re-reading identical rows.
  Hits, misses and bytes saved surface in ``FetchStats``.  Caching is
  off by default (``TGIConfig.delta_cache_entries = 0``) so cost-model
  accounting reproduces the uncached fetch counts exactly.  The
  process-wide :data:`~repro.exec.cache.shared_caches`
  :class:`~repro.exec.cache.CacheRegistry` lets every consumer of the
  same stored index (sessions, TAF handlers, CLI queries) share one
  cache, keyed ``(index id, DeltaKey)``.

Layering: this package knows nothing about TGI's key layout or delta
algebra — it moves opaque composite keys and decoded values.  Index
implementations (``repro.index.tgi``) build the plans; the TAF handler
batches whole node populations through them.
"""

from repro.exec.cache import (
    CacheRegistry,
    CacheSlot,
    CacheStats,
    CheckpointStats,
    DeltaCache,
    StateCheckpointCache,
    collector_paused,
    shared_caches,
)
from repro.exec.coalesce import CoalesceReport, CoalesceScope
from repro.exec.executor import PipelineResult, PlanExecutor, PlanResult
from repro.exec.plan import FetchPlan, FetchStage, KeyGroup, StageFactory

__all__ = [
    "CacheRegistry",
    "CacheSlot",
    "CacheStats",
    "CheckpointStats",
    "CoalesceReport",
    "CoalesceScope",
    "DeltaCache",
    "StateCheckpointCache",
    "collector_paused",
    "shared_caches",
    "FetchPlan",
    "FetchStage",
    "KeyGroup",
    "PipelineResult",
    "PlanExecutor",
    "PlanResult",
    "StageFactory",
]
