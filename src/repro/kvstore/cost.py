"""Deterministic latency model for the simulated key-value cluster.

The paper measures retrieval latencies on a Cassandra cluster on EC2.  A
pure-Python reproduction cannot time-to-scale against that testbed, so
every fetch is *costed* with a first-order model of the same physical
effects the paper's figures exhibit:

- a per-request seek/lookup cost on the storage node, discounted when the
  request continues a contiguous scan in clustering-key order (this is why
  TGI clusters all micro-partitions of a delta together — paper Sec. 4.4,
  item 5);
- a per-kilobyte transfer/deserialization cost;
- a per-request network round-trip paid by the client;
- a small per-kilobyte CPU cost for decompressing compressed payloads;
- optionally, a *client-side apply* cost: decoding a fetched payload and
  replaying its delta components / events into query state.  The paper's
  cost analysis counts only store-side fetch time; the apply constants
  default to 0 so default accounting reproduces that exactly, but setting
  them exposes where warm-cache retrievals actually spend their time —
  Python replay, not the wire (GraphPool's observation in "Efficient
  Snapshot Retrieval over Historical Graph Data").

Completion time of a fetch plan is the maximum of the per-client busy
times and the per-server busy times — the classic two-sided bound that
yields near-linear speedup in the number of clients ``c`` until the
storage side saturates, exactly the shape of Figs. 11, 12 and 14b.

For *pipelined* execution (several plans in flight at once, modeling
Cassandra's async client drivers) the same two-sided bound is applied
round by round on an :class:`ExecutionTimeline`: every multiget round is
released at the time its data dependency resolved and occupies the shared
per-client and per-server capacity from there, so independent rounds
overlap instead of summing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

KeyTuple = Tuple

#: Calibrated opt-in apply constants (CLI ``--apply-cost``, benches):
#: sized so that replaying a micro-delta costs the same order as fetching
#: it, which is where profiled warm-path wall time actually goes.
DEFAULT_APPLY_PER_KB_MS = 0.10
DEFAULT_REPLAY_PER_ITEM_MS = 0.01


@dataclass(frozen=True)
class CostModel:
    """Tunable latency constants, in milliseconds.

    The defaults are calibrated so that per-kilobyte costs dominate once a
    fetch moves more than a few KiB: the reproduction runs graphs that are
    orders of magnitude smaller than the paper's testbed, and with
    seek-dominated constants every retrieval would degenerate to "count the
    rows", hiding the data-volume effects (micro-partitioning, temporal
    compression) that the paper's figures measure."""

    seek_ms: float = 0.22
    scan_continuation_ms: float = 0.03
    per_kb_read_ms: float = 0.35
    rtt_ms: float = 0.10
    decompress_per_kb_ms: float = 0.05
    deserialize_per_kb_ms: float = 0.15
    #: Client-side decode cost per raw KiB of payload (0 = apply uncosted,
    #: reproducing the store-side-only accounting of the paper).
    apply_per_kb_ms: float = 0.0
    #: Client-side replay cost per delta component / event applied.
    replay_per_item_ms: float = 0.0
    #: Planning proxy: expected replay items per raw KiB, used to estimate
    #: apply cost before any payload has been decoded (EXPLAIN / pricing).
    replay_items_per_kb: float = 3.0

    @property
    def costs_apply(self) -> bool:
        """Whether client-side apply work carries any simulated cost."""
        return self.apply_per_kb_ms > 0.0 or self.replay_per_item_ms > 0.0

    def with_apply(
        self,
        apply_per_kb_ms: Optional[float] = None,
        replay_per_item_ms: Optional[float] = None,
        calibration: Optional[object] = None,
    ) -> "CostModel":
        """This model with client-side apply costing switched on.

        Constants resolve, most-specific first: explicit arguments, then
        a build-time :class:`~repro.stats.model.ApplyCalibration` (duck-
        typed — anything with ``apply_per_kb_ms`` / ``replay_per_item_ms``
        attributes), then the fixed defaults.  ``TGI.use_calibrated_apply``
        passes the index's calibration here, so an index built with
        ``--apply-cost`` predicts the machine's *measured* Python-side
        cost instead of a guess."""
        from dataclasses import replace

        if apply_per_kb_ms is None:
            apply_per_kb_ms = (
                calibration.apply_per_kb_ms if calibration is not None
                else DEFAULT_APPLY_PER_KB_MS
            )
        if replay_per_item_ms is None:
            replay_per_item_ms = (
                calibration.replay_per_item_ms if calibration is not None
                else DEFAULT_REPLAY_PER_ITEM_MS
            )
        items_per_kb = self.replay_items_per_kb
        measured_density = getattr(calibration, "items_per_kb", 0.0)
        if measured_density and measured_density > 0.0:
            items_per_kb = measured_density
        return replace(
            self,
            apply_per_kb_ms=apply_per_kb_ms,
            replay_per_item_ms=replay_per_item_ms,
            replay_items_per_kb=items_per_kb,
        )

    def apply_time(
        self, raw_bytes: int, replay_items: int, decoded: bool = False
    ) -> float:
        """Client-side time to decode one payload and replay its items.

        ``decoded`` marks rows served from a decoded-row cache, which skip
        the decode term but still pay the replay term."""
        time = 0.0
        if not decoded:
            time += (raw_bytes / 1024.0) * self.apply_per_kb_ms
        return time + replay_items * self.replay_per_item_ms

    def estimated_apply_time(self, raw_bytes: int) -> float:
        """Metadata-only apply estimate for pricing: the decode term plus
        the replay term proxied via :attr:`replay_items_per_kb`."""
        kb = raw_bytes / 1024.0
        return self.apply_time(
            raw_bytes, round(kb * self.replay_items_per_kb)
        )

    def service_time(
        self, stored_bytes: int, raw_bytes: int, contiguous: bool,
        compressed: bool,
    ) -> float:
        """Storage-node time to serve one request.  ``Cluster.price``
        computes it inline, term by term in this order: change both
        (``tests/test_price_kernel.py`` holds them equal)."""
        seek = self.scan_continuation_ms if contiguous else self.seek_ms
        kb = stored_bytes / 1024.0
        time = seek + kb * self.per_kb_read_ms
        if compressed:
            time += (raw_bytes / 1024.0) * self.decompress_per_kb_ms
        time += (raw_bytes / 1024.0) * self.deserialize_per_kb_ms
        return time


@dataclass
class RequestRecord:
    """One key read within a fetch plan."""

    key: KeyTuple
    server: int
    client: int
    stored_bytes: int
    raw_bytes: int
    contiguous: bool
    compressed: bool
    service_ms: float


@dataclass
class Counters:
    """The additive counters of one retrieval — the one vocabulary every
    stats record (:class:`FetchStats`, the session's ``QueryStats``, the
    TAF handler's ``ParallelFetchStats``) extends with only what it alone
    adds, and every hop between them moves with :meth:`add`.

    Attributes:
        rounds: number of multiget rounds the operation issued.
        overlap_saved_ms: simulated time the operation saved by running its
            rounds on a shared :class:`ExecutionTimeline` instead of
            sequentially (0 for strictly sequential execution; negative
            values mean the plan queued behind concurrent work for longer
            than the overlap won back).
        apply_ms: simulated client-side apply time (payload decode plus
            delta/event replay) charged by the executor; 0 whenever the
            cost model's apply constants are 0.  Included in
            ``sim_time_ms`` (serially for sequential execution, as
            scheduled on the timeline for pipelined execution).
        cache_hits / cache_misses: delta-cache outcomes, when the fetch
            ran through an executor with caching enabled (0 otherwise).
        cache_bytes_saved: stored bytes the cache kept off the wire.
        checkpoint_hits / checkpoint_misses: materialized-state checkpoint
            outcomes — a hit means replay was seeded from a cached
            fully-replayed partition state instead of re-fetching and
            re-applying its rows (0 when checkpoints are off).
        checkpoint_near_hits: nearest-in-time seedings — replay started
            from a checkpoint at an *earlier* time in the same timespan
            and only the eventlist gap between the two times was fetched
            and applied (counted separately from exact hits).
        decoded_events: ``Event`` objects materialized from columnar
            payloads while serving this fetch (0 on the bulk replay
            paths — the kernels replay packed columns without building
            events, so this counter is a direct measure of how often a
            query fell off the zero-decode path).
        coalesced_hits: rows this fetch received from another in-flight
            plan's request instead of issuing its own (single-flight
            dedup under coalesced execution; distinct from cache hits —
            the row *was* fetched this window, just only once).
        coalesced_bytes_saved: stored bytes the single-flight table kept
            off the wire for this fetch.
        merged_rounds: multiget rounds this fetch shared with at least
            one other plan (machine-level round merging); always
            ``<= rounds``.
        coalesced_replays: partitions whose replayed state this plan read
            from its execution's shared state instead of replaying its
            own rows — a batchmate's plan had already folded the
            partition in (the rows were still declared and fetched, or
            single-flighted, exactly as without sharing; always 0 for a
            query that compiles to one plan).
        retries: key requests re-issued by the fetch's retry loop after
            a transient failure, corrupt payload, or blocked routing
            (0 without a resilience policy).
        hedges: duplicated straggler requests issued to a second replica
            by hedged reads (both copies of a hedged key count here; only
            the winning copy appears in ``requests``).
        breaker_trips: circuit-breaker open transitions recorded while
            serving this fetch.
        backoff_ms: simulated delay the retry loop charged between
            attempts (already included in ``sim_time_ms``).
        degraded_keys: keys the fetch gave up on inside an
            authorized partial scope (the values are absent from the
            result).
        degraded_partitions: human-readable labels of the partitions
            those keys belong to.
    """

    rounds: int = 0
    overlap_saved_ms: float = 0.0
    apply_ms: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes_saved: int = 0
    checkpoint_hits: int = 0
    checkpoint_misses: int = 0
    checkpoint_near_hits: int = 0
    decoded_events: int = 0
    coalesced_hits: int = 0
    coalesced_bytes_saved: int = 0
    merged_rounds: int = 0
    coalesced_replays: int = 0
    retries: int = 0
    hedges: int = 0
    breaker_trips: int = 0
    backoff_ms: float = 0.0
    degraded_keys: int = 0
    degraded_partitions: List[str] = field(default_factory=list)

    def add(self, other: "Counters", names: Tuple[str, ...] = ()) -> None:
        """Fold ``other``'s counters — all of them, or just ``names`` —
        into this record: numbers add, partition labels union.  Driven by
        the dataclass fields, so a counter added above flows through
        every record and every hop without a line anywhere else."""
        mine, theirs = vars(self), vars(other)
        for name in names or COUNTER_NAMES:
            value = theirs[name]
            if type(value) is list:
                known = mine[name]
                known.extend(label for label in value if label not in known)
            else:
                mine[name] += value


#: Every additive counter, by name — what ``add``, the span annotation
#: and the session's ``/metrics`` families iterate, so none hand-lists them.
COUNTER_NAMES = tuple(spec.name for spec in fields(Counters))

#: The counters a resilient multiget reports for a *merged* round, which
#: coalesced execution attributes to one participant so a batch's sum
#: counts each event once.
RESILIENCE_COUNTERS = (
    "retries", "hedges", "breaker_trips", "backoff_ms",
    "degraded_keys", "degraded_partitions",
)


@dataclass
class FetchStats(Counters):
    """Accounting for one logical fetch operation (e.g. one snapshot
    query): the :class:`Counters` plus the store requests themselves.

    Attributes:
        requests: one record per key read.
        sim_time_ms: simulated completion time of the whole plan.
    """

    requests: List[RequestRecord] = field(default_factory=list)
    sim_time_ms: float = 0.0

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def bytes_read(self) -> int:
        return sum(r.stored_bytes for r in self.requests)

    @property
    def raw_bytes_read(self) -> int:
        return sum(r.raw_bytes for r in self.requests)

    def merge(self, other: "FetchStats") -> None:
        """Fold another plan executed *sequentially after* this one: the
        counters add, the request records concatenate, the clocks sum."""
        self.add(other)
        self.requests.extend(other.requests)
        self.sim_time_ms += other.sim_time_ms

    def merge_concurrent(
        self, other: "FetchStats", completed_at_ms: float
    ) -> None:
        """Fold a plan that ran *overlapped* with this one on a shared
        timeline: counters accumulate like :meth:`merge`, but the
        completion time is the timeline's (``completed_at_ms``), not the
        sequential sum."""
        self.merge(other)
        self.sim_time_ms = completed_at_ms


def simulate_plan(
    records: List[RequestRecord], model: CostModel
) -> float:
    """Completion time (ms) for a set of costed requests.

    Per-client busy time includes one RTT per request plus the service time
    of that client's requests; per-server busy time is the sum of service
    times the server performs.  The plan completes when both the slowest
    client and the most-loaded server are done.
    """
    client_busy: Dict[int, float] = {}
    server_busy: Dict[int, float] = {}
    for r in records:
        client_busy[r.client] = (
            client_busy.get(r.client, 0.0) + model.rtt_ms + r.service_ms
        )
        server_busy[r.server] = server_busy.get(r.server, 0.0) + r.service_ms
    worst_client = max(client_busy.values(), default=0.0)
    worst_server = max(server_busy.values(), default=0.0)
    return max(worst_client, worst_server)


@dataclass(frozen=True)
class RoundTiming:
    """Schedule of one multiget round on an :class:`ExecutionTimeline`.

    Attributes:
        index: position of the round in timeline submission order.
        released_ms: earliest time the round could start (its data
            dependency resolved — 0 for independent rounds).
        completed_ms: time the round's last request finished.
        standalone_ms: the round's two-sided bound on idle resources,
            i.e. what :func:`simulate_plan` would charge it in isolation.
        lane: ``None`` for a store multiget round; the local-lane name for
            client-side work scheduled via
            :meth:`ExecutionTimeline.submit_local` (e.g. apply work).
        server_windows: for store rounds, the exact ``(start, end)``
            window during which each storage machine was busy serving
            this round — the per-machine occupancy trace exports draw as
            timeline lanes (``None`` for local-lane work).
    """

    index: int
    released_ms: float
    completed_ms: float
    standalone_ms: float
    lane: Optional[str] = None
    server_windows: Optional[Dict[int, Tuple[float, float]]] = None


class ExecutionTimeline:
    """Event-driven schedule of overlapping multiget rounds.

    The timeline tracks, per fetch client and per storage server, the time
    at which the resource becomes free.  A round submitted with a release
    time ``at`` (the moment its data dependency resolved) occupies each
    involved resource from ``max(at, resource_free)`` for that resource's
    share of the round's demand; the round completes when its most-loaded
    resource finishes.  Client ids are shared across rounds, modeling a
    fixed pool of parallel fetchers serving all in-flight plans.

    This generalizes :func:`simulate_plan`: a single round released on an
    idle timeline completes at exactly its two-sided bound, rounds chained
    release-after-completion reproduce the sequential sum, and independent
    rounds released together overlap — the makespan is never more than the
    sequential sum and never less than the longest dependency chain.
    """

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self._client_free: Dict[int, float] = {}
        self._server_free: Dict[int, float] = {}
        self._lane_free: Dict[str, float] = {}
        self.rounds: List[RoundTiming] = []

    def submit(
        self, records: List[RequestRecord], at: float = 0.0
    ) -> RoundTiming:
        """Schedule one multiget round, released at time ``at``."""
        # every round of every query is priced here: locals and plain
        # comparisons instead of attribute lookups and max() calls
        rtt = self.model.rtt_ms
        client_demand: Dict[int, float] = {}
        server_demand: Dict[int, float] = {}
        for r in records:
            client, server, service = r.client, r.server, r.service_ms
            client_demand[client] = (
                client_demand.get(client, 0.0) + rtt + service
            )
            server_demand[server] = server_demand.get(server, 0.0) + service
        end = at
        standalone = 0.0
        client_free = self._client_free
        for client, demand in client_demand.items():
            start = client_free.get(client, 0.0)
            if start < at:
                start = at
            client_free[client] = done = start + demand
            if done > end:
                end = done
            if demand > standalone:
                standalone = demand
        server_free = self._server_free
        server_windows: Dict[int, Tuple[float, float]] = {}
        for server, demand in server_demand.items():
            start = server_free.get(server, 0.0)
            if start < at:
                start = at
            server_free[server] = done = start + demand
            if done > end:
                end = done
            if demand > standalone:
                standalone = demand
            server_windows[server] = (start, done)
        timing = RoundTiming(
            len(self.rounds), at, end, standalone,
            server_windows=server_windows,
        )
        self.rounds.append(timing)
        return timing

    def submit_local(
        self, duration_ms: float, at: float = 0.0, lane: str = "apply"
    ) -> RoundTiming:
        """Schedule client-side work (e.g. a stage's apply) on a named
        local lane.

        A lane models one query manager's apply worker: work on the same
        lane serializes, work on different lanes (or against the store's
        fetch resources) overlaps freely.  The work is released at ``at``
        (typically the instant its payload arrived) and occupies the lane
        for ``duration_ms``; like fetch rounds, it counts toward both
        :attr:`makespan_ms` and :attr:`sequential_ms`, so overlap between
        apply and in-flight fetches shows up in :attr:`overlap_saved_ms`.
        """
        start = max(at, self._lane_free.get(lane, 0.0))
        end = start + duration_ms
        self._lane_free[lane] = end
        timing = RoundTiming(len(self.rounds), at, end, duration_ms, lane)
        self.rounds.append(timing)
        return timing

    @property
    def makespan_ms(self) -> float:
        """Completion time of the whole schedule."""
        return max((r.completed_ms for r in self.rounds), default=0.0)

    @property
    def sequential_ms(self) -> float:
        """What the same rounds would cost executed one after another."""
        return sum(r.standalone_ms for r in self.rounds)

    @property
    def overlap_saved_ms(self) -> float:
        """Simulated time won by overlapping (always >= 0)."""
        return self.sequential_ms - self.makespan_ms

    def describe(self) -> str:
        """Human-readable schedule summary."""
        lines = [
            f"ExecutionTimeline[{len(self.rounds)} rounds, "
            f"makespan={self.makespan_ms:.2f}ms, "
            f"sequential={self.sequential_ms:.2f}ms, "
            f"overlap saved={self.overlap_saved_ms:.2f}ms]"
        ]
        for r in self.rounds:
            kind = "round" if r.lane is None else f"apply[{r.lane}]"
            lines.append(
                f"  {kind} {r.index}: released={r.released_ms:.2f} "
                f"completed={r.completed_ms:.2f} "
                f"standalone={r.standalone_ms:.2f}"
            )
        return "\n".join(lines)
