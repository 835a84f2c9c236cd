"""`GraphSession`: the unified query facade over store + analytics.

The paper separates the historical graph store (TGI, Sec. 4) from the
analytics layer (TAF, Sec. 5); before this module, using both meant
hand-wiring four entry points — ``TGI.get_*``, ``TGIHandler.fetch_*``,
``SON``/``SOTS``, and the CLI's own plumbing — and nobody exploited the
planner.  A session owns all of it:

- the :class:`~repro.index.tgi.index.TGI` (cluster, executor, planner),
- a :class:`~repro.taf.handler.TGIHandler` + Spark context for the TAF
  operand paths,
- a slot in the **process-wide cache registry**
  (:data:`repro.exec.shared_caches`, keyed ``(index id, DeltaKey)``), so
  every session opened over the same stored index shares warm rows,

and exposes one fluent, lazily-planned query builder::

    session = open_graph("wiki.hgs")
    g       = session.at(900).snapshot().value
    hood    = session.at(900).khop(17, k=2)          # cost-based Alg 3 vs 4
    hist    = session.between(100, 900).node_histories([3, 5, 8])
    son     = session.nodes("id < 100").timeslice(100, 900).fetch()

Builder terminals compile to a :class:`~repro.api.QueryRequest`, price
the candidate plans via ``Cluster.price`` (Algorithm 3 snapshot-first
vs Algorithm 4 micro-delta k-hop, one shared frontier for several
centers; any other kind has one plan, priced as compiled), execute the
cheapest, and return a :class:`~repro.api.QueryResult` whose
:class:`~repro.api.QueryStats` carries the chosen plan and its predicted
vs. actual cost.  ``SON``/``SOTS`` come back pre-bound to the session's
handler.

**There is one way to run a query.**  Every terminal kind compiles
(``_compile``) to exactly one fetch plan plus a finalize closure, a
call's plans run through one ``PlanExecutor.execute_many``, and each
request is finalized off its plan's values (``_finalize``).
``execute(r)`` is the batch of one — its plan run alone;
``execute_batch`` runs many on one coalesced timeline.  Stats travel
with results (the index returns ``(value, FetchStats)``), so threads
sharing a session each report their own work.

This module is the facade; :class:`GraphSession`'s mixin bases hold
the rest: :mod:`.running`, :mod:`.pricing` and :mod:`.explain`.

Retrieval-as-planning over priced alternatives, and single- and
multi-point queries answered from one shared plan, follow "Efficient
Snapshot Retrieval over Historical Graph Data" (Khurana & Deshpande,
ICDE 2013); here the unit priced is the whole fetch plan.

Direct construction of ``TGIHandler`` (and calling ``TGI.get_*`` for
anything but internal plumbing) is deprecated in favor of sessions; both
classes keep working for direct callers.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.api import ALGO_AUTO, QueryRequest, QueryResult
from repro.errors import QueryError
from repro.exec import (
    DeltaCache,
    PlanExecutor,
    StateCheckpointCache,
    shared_caches,
)
from repro.index.tgi import TGI, TGIPlanner
from repro.obs.metrics import SessionMetrics
from repro.obs.trace import Tracer
from repro.session.explain import SessionExplain
from repro.session.pricing import SessionPricing
from repro.session.running import SessionExecution
from repro.spark.rdd import SparkContext
from repro.storage import load_index
from repro.taf.handler import TGIHandler
from repro.taf.son import SON, SOTS
from repro.types import NodeId, TimePoint


def open_graph(
    path: Union[str, Path],
    *,
    workers: int = 2,
    clients: int = 1,
    cache_entries: Optional[int] = None,
    checkpoint_entries: Optional[int] = None,
) -> "GraphSession":
    """Open a stored index as a :class:`GraphSession`.

    The session's cache-registry id is the resolved file path, so two
    ``open_graph`` calls on the same file — in the same process — share
    one :class:`~repro.exec.DeltaCache` (and, when enabled, one
    :class:`~repro.exec.StateCheckpointCache`) and serve each other's
    warm rows and replayed states.

    Args:
        path: an index file written by ``save_index`` / ``hgs build``.
        workers: simulated analytics workers for the TAF paths.
        clients: default parallel fetch clients per store round.
        cache_entries: shared-cache capacity; ``None`` defers to the
            index's ``delta_cache_entries`` (0 keeps caching off, which
            reproduces uncached fetch accounting exactly).
        checkpoint_entries: materialized-state checkpoint capacity
            (``None`` defers to the index's ``checkpoint_entries``).
    """
    index = load_index(path)
    if not isinstance(index, TGI):
        raise QueryError(
            f"open_graph requires a TGI index, got {type(index).__name__}; "
            "baseline index families remain queryable via load_index() "
            "and the HistoricalGraphIndex interface"
        )
    return GraphSession(
        index,
        index_id=index_id_for(path),
        workers=workers,
        clients=clients,
        cache_entries=cache_entries,
        checkpoint_entries=checkpoint_entries,
    )


def index_id_for(path: Union[str, Path]) -> str:
    """Registry id for a stored index: resolved path plus a content
    fingerprint (mtime + size), so rebuilding an index file in-process
    starts a fresh cache slot instead of serving the old file's rows."""
    resolved = Path(path).expanduser().resolve()
    st = resolved.stat()
    return f"{resolved}:{st.st_mtime_ns}:{st.st_size}"


class GraphSession(SessionExecution, SessionExplain, SessionPricing):
    """One front door to a built :class:`TGI` and its analytics layer.

    Args:
        tgi: the index to serve queries from.
        index_id: registry key for cross-session cache sharing; sessions
            with equal ids share one cache.  ``None`` (the default for
            in-memory indexes) keeps the cache private to the ``tgi``
            object — same-object sessions still share through it, but
            nothing enters the process registry, whose keys must outlive
            the index object.
        spark_context: analytics cluster; built from ``workers`` if
            omitted.
        workers: simulated analytics workers when building the context.
        clients: default parallel fetch clients for store rounds.
        cache_entries: capacity of the shared delta cache; ``None`` uses
            the index's ``delta_cache_entries`` config (so the default
            session reproduces the index's configured fetch accounting),
            any positive value forces caching on, 0 forces it off.
        checkpoint_entries: capacity of the materialized-state checkpoint
            cache (``None`` = the index's ``checkpoint_entries``; 0 off).
            Warm-partition replay is seeded from these checkpoints and
            the planner prices warm plans accordingly.

    Sessions over a stored index (``index_id`` set) hold a reference on
    the process-wide registry slot; call :meth:`close` (or use the
    session as a context manager) when done — the last reference drops
    the shared caches.
    """

    def __init__(
        self,
        tgi: TGI,
        *,
        index_id: Optional[str] = None,
        spark_context: Optional[SparkContext] = None,
        workers: int = 2,
        clients: int = 1,
        cache_entries: Optional[int] = None,
        checkpoint_entries: Optional[int] = None,
    ) -> None:
        if not isinstance(tgi, TGI):
            raise QueryError(
                f"GraphSession serves TGI indexes, got {type(tgi).__name__}"
            )
        self.tgi = tgi
        self.index_id = index_id
        self._registered = False
        self._closed = False
        capacity = (
            cache_entries
            if cache_entries is not None
            else tgi.config.delta_cache_entries
        )
        ckpt_capacity = (
            checkpoint_entries
            if checkpoint_entries is not None
            else tgi.config.checkpoint_entries
        )
        if capacity < 0:
            raise QueryError("cache_entries cannot be negative")
        if ckpt_capacity < 0:
            raise QueryError("checkpoint_entries cannot be negative")
        slot = None
        if index_id is not None and (capacity > 0 or ckpt_capacity > 0):
            slot = shared_caches.acquire(
                index_id,
                delta_entries=capacity,
                checkpoint_entries=ckpt_capacity,
            )
            self._registered = True
        self.cache = None
        if capacity > 0:
            if slot is not None:
                self.cache = slot.delta
            else:
                # anonymous in-memory index: reuse its own cache or make
                # a private one — never a registry slot keyed by object
                # identity (id() reuse would alias a dead index's rows)
                self.cache = (
                    tgi.delta_cache if tgi.delta_cache is not None
                    else DeltaCache(capacity)
                )
        # rebind the index's executor so every path — direct TGI calls,
        # TAF fetches, session queries — reads through the shared cache;
        # an earlier session may have bound one to this index, and
        # capacity 0 must really mean uncached accounting
        tgi.delta_cache = self.cache
        tgi.executor = PlanExecutor(tgi.cluster, self.cache)
        self.checkpoint_cache = None
        if ckpt_capacity > 0:
            if slot is not None:
                self.checkpoint_cache = slot.checkpoints
            else:
                self.checkpoint_cache = (
                    tgi.checkpoints if tgi.checkpoints is not None
                    else StateCheckpointCache(ckpt_capacity)
                )
        # checkpoint_entries 0 must really mean replay-from-root
        tgi.checkpoints = self.checkpoint_cache
        self.sc = spark_context or SparkContext(num_workers=workers)
        self.clients = clients
        self.handler = TGIHandler(
            tgi, self.sc, clients_per_partition=clients
        )
        self.planner = TGIPlanner(tgi)
        #: Wall clock for deadline enforcement (monotonic seconds);
        #: injectable so tests can drive expiry deterministically.
        self.clock: Callable[[], float] = _time.monotonic
        #: The one registry this session's queries are recorded into
        #: (a service over the session renders it as ``/metrics``).
        self.metrics = SessionMetrics()
        #: Optional :class:`repro.obs.Tracer`.  ``None`` (the default)
        #: leaves every instrumentation site on its no-op path, so
        #: untraced accounting is bit-identical to pre-tracing builds.
        self.tracer: Optional[Tracer] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this session's reference on the shared cache registry.

        Idempotent.  The index object stays usable (its caches remain
        bound); only the registry slot's lifetime is affected — when the
        last session over an index id closes, the slot is dropped so
        long-running services don't accumulate caches for every index
        they ever opened."""
        if self._closed:
            return
        self._closed = True
        if self._registered and self.index_id is not None:
            shared_caches.release(self.index_id)

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # construction shims
    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, tgi: TGI, **kwargs) -> "GraphSession":
        """Session over an already-built (or just-loaded) index."""
        return cls(tgi, **kwargs)

    # ------------------------------------------------------------------
    # fluent builder entry points
    # ------------------------------------------------------------------
    def at(self, t: TimePoint) -> "TimeView":
        """Queries anchored at one time point (snapshot, k-hop, state)."""
        return TimeView(self, t)

    def between(self, ts: TimePoint, te: TimePoint) -> "RangeView":
        """Queries over an interval (histories, neighborhood evolution)."""
        if te < ts:
            raise QueryError(f"empty interval [{ts}, {te}]")
        return RangeView(self, ts, te)

    def nodes(self, predicate=None) -> SON:
        """A lazy :class:`~repro.taf.son.SON` pre-bound to this session's
        handler; ``predicate`` (string or callable) is applied as a
        ``Select`` before fetch."""
        son = SON(self.handler)
        if predicate is not None:
            son = son.Select(predicate)
        return son

    def subgraphs(self, k: int = 1, predicate=None) -> SOTS:
        """A lazy :class:`~repro.taf.son.SOTS` of k-hop neighborhoods
        pre-bound to this session's handler."""
        sots = SOTS(k, self.handler)
        if predicate is not None:
            sots = sots.Select(predicate)
        return sots


@dataclass(frozen=True)
class TimeView:
    """Queries anchored at one time point (``session.at(t)``); terminal
    methods compile a :class:`QueryRequest` and execute it — nothing is
    planned or fetched until then."""

    session: GraphSession
    t: TimePoint

    def _clients(self, clients: Optional[int]) -> int:
        return clients if clients is not None else self.session.clients

    def snapshot(self, clients: Optional[int] = None) -> QueryResult:
        """Algorithm 1: the whole graph as of ``t``."""
        return self.session.execute(QueryRequest(
            kind="snapshot", t=self.t, clients=self._clients(clients),
        ))

    def khop(
        self,
        center: Union[NodeId, Sequence[NodeId]],
        k: int = 1,
        algorithm: str = ALGO_AUTO,
        clients: Optional[int] = None,
    ) -> QueryResult:
        """k-hop neighborhood(s) at ``t``.

        A scalar ``center`` yields one :class:`~repro.graph.static.Graph`
        (raising if the node is dead, matching ``TGI.get_khop``); a
        sequence yields one graph-or-``None`` per center, all fetched by
        one shared-frontier plan.  ``algorithm`` picks Algorithm 3
        (``snapshot-first``) vs 4 (``khop``) — ``auto`` defers to plan
        pricing.
        """
        # node ids are scalars (ints, strings); anything else iterable —
        # list, tuple, set, range, generator — is a population of centers
        single = isinstance(center, (str, bytes)) or not hasattr(
            center, "__iter__"
        )
        nodes = (center,) if single else tuple(center)
        return self.session.execute(QueryRequest(
            kind="khop", t=self.t, nodes=nodes, k=k,
            algorithm=algorithm, clients=self._clients(clients),
            single=single,
        ))

    def node_state(
        self, node: NodeId, clients: Optional[int] = None
    ) -> QueryResult:
        """One node's static state at ``t`` (``None`` when not alive)."""
        return self.session.execute(QueryRequest(
            kind="node_state", t=self.t, nodes=(node,),
            clients=self._clients(clients), single=True,
        ))


@dataclass(frozen=True)
class RangeView:
    """Interval queries (``session.between(ts, te)``)."""

    session: GraphSession
    ts: TimePoint
    te: TimePoint

    def _clients(self, clients: Optional[int]) -> int:
        return clients if clients is not None else self.session.clients

    def node_history(
        self, node: NodeId, clients: Optional[int] = None
    ) -> QueryResult:
        """Algorithm 2: one node's evolution over ``[ts, te]``."""
        return self.session.execute(QueryRequest(
            kind="node_histories", ts=self.ts, te=self.te, nodes=(node,),
            clients=self._clients(clients), single=True,
        ))

    def node_histories(
        self, nodes: Sequence[NodeId], clients: Optional[int] = None
    ) -> QueryResult:
        """Batched Algorithm 2 over a node population (O(1) rounds)."""
        return self.session.execute(QueryRequest(
            kind="node_histories", ts=self.ts, te=self.te,
            nodes=tuple(nodes), clients=self._clients(clients),
        ))

    def khop_history(
        self, center: NodeId, clients: Optional[int] = None
    ) -> QueryResult:
        """Algorithm 5: 1-hop neighborhood evolution around ``center``."""
        return self.session.execute(QueryRequest(
            kind="khop_history", ts=self.ts, te=self.te, nodes=(center,),
            clients=self._clients(clients), single=True,
        ))

    def nodes(self, predicate=None) -> SON:
        """A pre-bound lazy SoN already timesliced to ``[ts, te]``."""
        return self.session.nodes(predicate).Timeslice(self.ts, self.te)

    def subgraphs(self, k: int = 1, predicate=None) -> SOTS:
        """A pre-bound lazy SoTS already timesliced to ``[ts, te]``."""
        return self.session.subgraphs(k, predicate).Timeslice(
            self.ts, self.te
        )
