"""The simulated distributed key-value cluster.

Stands in for the Apache Cassandra deployment of the paper.  Rows are
composite-keyed tuples; the *placement key* (a prefix of the composite key,
``{tsid, sid}`` for TGI — paper Sec. 4.4 item 4) determines which machine
holds the row, and the remaining *clustering key* orders rows within the machine
so that micro-partitions of one delta can be scanned contiguously.

Reads are executed through *fetch plans*: a multiget distributes key
requests over ``c`` parallel clients, routes each to the least-loaded
replica, sorts each server's requests in clustering order (contiguous scan
discount), and returns both the decoded values and a
:class:`~repro.kvstore.cost.FetchStats` with the simulated completion time.

``multiget`` is one loop: route, plan, fetch, check for transient
faults, decode, then retry or settle.  Keys the store could not serve
settle one way in every configuration: dropped inside an authorized
``partial_scope``, else a typed
:class:`~repro.errors.PartitionUnavailable`.  Two opt-in layers act on
that loop without changing fault-free accounting:

- a **fault harness** (:mod:`repro.faults`) attached via ``inject_faults``
  schedules crashes, latency spikes, transient errors, and payload
  corruption on simulated time (``clock_ms`` + each round's release
  instant);
- a **resilience policy** (:meth:`enable_resilience`) raises the loop
  from one attempt to ``max_attempts`` with exponential backoff, and
  adds hedged reads against a second replica for straggler rounds and
  per-machine circuit breakers that reroute key groups to live
  replicas.  Without it there is one attempt and no breaker exists.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cancellation import check_cancelled
from repro.errors import (
    CorruptPayload,
    KeyNotFound,
    PartitionUnavailable,
    StorageError,
)
from repro.kvstore.codec import decode, encode
from repro.kvstore.cost import (
    CostModel,
    ExecutionTimeline,
    FetchStats,
    RequestRecord,
    simulate_plan,
)
from repro.kvstore.degrade import active_partial, partition_label
from repro.kvstore.node import Card, StorageNode
from repro.kvstore.resilience import (
    HEDGE_FACTOR,
    CircuitBreaker,
    ResiliencePolicy,
)
from repro.obs.trace import current_span

KeyTuple = Tuple
#: One routing pass: per server id, the ``(card, key)`` pairs it serves.
Groups = List[List[Tuple[Card, KeyTuple]]]


def _stable_hash(value: Any) -> int:
    """Deterministic hash (Python's builtin ``hash`` is salted per process)."""
    digest = hashlib.blake2b(repr(value).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster shape: ``m`` machines, replication factor ``r``.

    Rows are serialized by :mod:`repro.kvstore.codec`: eventlists and
    micro-deltas as packed parallel arrays decoded without per-item
    objects (:mod:`repro.deltas.columnar`), other rows (version chains,
    pointers) as pickles.  ``compress`` zlib-compresses every row.

    ``checksums`` wraps every stored payload in a CRC32 envelope (5
    bytes per row) verified on decode, so corrupted reads surface as a
    typed :class:`~repro.errors.CorruptPayload` instead of garbage —
    required by the fault harness's corruption faults.
    """

    num_machines: int = 1
    replication: int = 1
    compress: bool = False
    cost_model: CostModel = CostModel()
    checksums: bool = False

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise StorageError("cluster needs at least one machine")
        if not (1 <= self.replication <= self.num_machines):
            raise StorageError(
                f"replication {self.replication} must be in "
                f"[1, {self.num_machines}]"
            )


class Cluster:
    """An ``m``-machine key-value store with replication and costed reads."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.machines = [StorageNode(i) for i in range(self.config.num_machines)]
        self._placement_len: Optional[int] = None
        # placement key -> replica ring slice; a pure function of the
        # (frozen) config, bounded by the distinct placement keys written
        self._replicas: Dict[KeyTuple, Tuple[int, ...]] = {}
        self._down: set = set()
        #: Optional :class:`repro.faults.FaultInjector` (see repro.faults).
        self.faults = None
        #: Optional :class:`ResiliencePolicy`; ``None`` = one attempt per
        #: round, no hedging, no breakers.
        self.resilience: Optional[ResiliencePolicy] = None
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._policy_rng: Optional[random.Random] = None
        #: Simulated epoch added to every round's release instant when
        #: evaluating fault windows and breaker cooldowns.  Sequential
        #: executions always release at ``at=0``, so tests and benches
        #: advance this clock between queries to move through a schedule.
        self.clock_ms: float = 0.0

    def __getstate__(self):
        # the placement memo is derived; persisted clusters never carry it
        state = dict(self.__dict__)
        del state["_replicas"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._replicas = {}

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def fail_machine(self, machine_id: int) -> None:
        """Mark a machine as unavailable; reads fall back to surviving
        replicas (writes continue to target the configured replica set so
        a recovered machine is simply stale — a simplification of
        Cassandra's hinted handoff)."""
        if not (0 <= machine_id < len(self.machines)):
            raise StorageError(f"no machine {machine_id}")
        self._down.add(machine_id)

    def recover_machine(self, machine_id: int) -> None:
        """Bring a failed machine back (its contents were retained)."""
        self._down.discard(machine_id)

    def set_clock(self, ms: float) -> None:
        """Set the simulated epoch for fault windows / breaker cooldowns."""
        self.clock_ms = float(ms)

    def _down_at(self, now: float) -> Set[int]:
        """Machines unavailable at sim-time ``now``: explicit ``_down``
        plus any scheduled crash window of the fault harness."""
        down = set(self._down)
        if self.faults is not None:
            down |= self.faults.down_machines(now)
        return down

    # ------------------------------------------------------------------
    # resilience policy
    # ------------------------------------------------------------------
    def enable_resilience(
        self, policy: Optional[ResiliencePolicy] = None
    ) -> ResiliencePolicy:
        """Give ``multiget`` retries, hedged reads and circuit breakers.
        Returns the active policy."""
        self.resilience = policy or ResiliencePolicy()
        self._breakers = {}
        self._policy_rng = random.Random(self.resilience.seed)
        return self.resilience

    def disable_resilience(self) -> None:
        self.resilience = None

    def _breaker(self, machine_id: int) -> CircuitBreaker:
        breaker = self._breakers.get(machine_id)
        if breaker is None:
            policy = self.resilience
            breaker = CircuitBreaker(
                policy.breaker_threshold, policy.breaker_cooldown_ms,
                machine=machine_id,
            )
            self._breakers[machine_id] = breaker
        return breaker

    def _breaker_allows(self, machine_id: int, now: float) -> bool:
        breaker = self._breakers.get(machine_id)
        return True if breaker is None else breaker.allows(now)

    def breaker_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Per-machine breaker state (``/healthz`` payload).  Machines
        without a recorded outcome report a closed breaker."""
        out: Dict[str, Dict[str, Any]] = {}
        for machine_id in range(len(self.machines)):
            breaker = self._breakers.get(machine_id)
            if breaker is None:
                out[str(machine_id)] = {
                    "state": "closed", "failures": 0, "trips": 0,
                }
            else:
                out[str(machine_id)] = breaker.snapshot()
        return out

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def replicas_for(self, placement_key: KeyTuple) -> Tuple[int, ...]:
        """Machines holding rows with this placement key: the hash owner
        plus the next ``r - 1`` machines on the ring (hashed once per
        distinct placement key)."""
        replicas = self._replicas.get(placement_key)
        if replicas is None:
            m = self.config.num_machines
            first = _stable_hash(placement_key) % m
            replicas = self._replicas[placement_key] = tuple(
                (first + i) % m for i in range(self.config.replication)
            )
        return replicas

    def _check_placement_len(self, placement_len: int) -> None:
        if self._placement_len is None:
            self._placement_len = placement_len
        elif self._placement_len != placement_len:
            raise StorageError(
                "inconsistent placement-key length within one cluster"
            )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, key: KeyTuple, value: Any, placement_len: int = 2) -> None:
        """Store ``value`` under composite ``key``.

        ``placement_len`` is how many leading key components form the
        placement key (2 for TGI's ``{tsid, sid}``).  Writes go to every
        *live* replica; a machine that is down misses the write and stays
        stale until rewritten.
        """
        self._check_placement_len(placement_len)
        encoded = encode(
            value,
            compress=self.config.compress,
            checksum=self.config.checksums,
        )
        for machine_id in self.replicas_for(key[:placement_len]):
            if machine_id not in self._down:
                self.machines[machine_id].put(key, encoded)

    def put_many(
        self, rows: Iterable[Tuple[KeyTuple, Any]], placement_len: int = 2
    ) -> None:
        for key, value in rows:
            self.put(key, value, placement_len=placement_len)

    def delete(self, key: KeyTuple, placement_len: int = 2) -> None:
        """Remove ``key`` from every *live* replica; like :meth:`put`, a
        down machine misses the delete and keeps a stale row until it is
        rewritten or deleted again after recovery."""
        for machine_id in self.replicas_for(key[:placement_len]):
            if machine_id not in self._down:
                self.machines[machine_id].delete(key)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _route(
        self,
        keys: Sequence[KeyTuple],
        now: float,
        avoid: Optional[Dict[KeyTuple, Set[int]]] = None,
        breakers: bool = False,
    ) -> Tuple[Groups, List[KeyTuple]]:
        """Route every key to its least-loaded live replica *holding the
        key* (greedy balancing -- this is where replication r > 1 buys
        parallelism, Fig. 12c), grouping the holder's card per server.

        Returns ``(groups, blocked)``: ``groups[server]`` lists the
        ``(card, key)`` pairs that server serves, which :meth:`_ordered`
        puts in clustering order.  A ``blocked`` key has no usable
        replica at ``now``: its holders are down (a live replica can be
        stale after ``recover_machine``), or, with ``breakers``, behind
        an open circuit breaker.  A key absent from every replica while
        all of them are live raises :class:`KeyNotFound` -- an outage
        never masks a genuinely missing key.  Keys in ``avoid`` prefer
        replicas that have not already failed them this round.  Pricing
        and fetching both route here, and read only cards."""
        plen = self._placement_len
        down = self._down_at(now)  # once per attempt, not once per key
        tables = [machine.cards() for machine in self.machines]
        replicas_for = self.replicas_for
        allows = self._breaker_allows if breakers and self._breakers else None
        groups: Groups = [[] for _ in tables]

        def load(holder: Tuple[int, Any]) -> int:
            return len(groups[holder[0]])

        blocked: List[KeyTuple] = []
        for key in keys:
            replicas = replicas_for(key[:plen])
            if len(replicas) == 1:
                # one replica (always, at r=1): nothing to filter, balance
                # or avoid
                best = replicas[0]
                if best in down:
                    blocked.append(key)
                    continue
                card = tables[best].get(key)
                if card is None:
                    raise KeyNotFound(f"key {key!r} not on any live replica")
                if allows is not None and not allows(best, now):
                    blocked.append(key)
                    continue
            else:
                live = (
                    [m for m in replicas if m not in down] if down
                    else replicas
                )
                # (machine, card) per holder: one hash of the key each
                holding = [
                    (m, card) for m in live
                    for card in (tables[m].get(key),) if card is not None
                ]
                if not holding:
                    if len(live) == len(replicas):
                        raise KeyNotFound(
                            f"key {key!r} not on any live replica"
                        )
                    blocked.append(key)
                    continue
                if allows is not None:
                    holding = [h for h in holding if allows(h[0], now)]
                    if not holding:
                        blocked.append(key)
                        continue
                if avoid:
                    failed_on = avoid.get(key)
                    if failed_on:
                        holding = [
                            h for h in holding if h[0] not in failed_on
                        ] or holding
                best, card = (
                    holding[0] if len(holding) == 1
                    else min(holding, key=load)
                )
            groups[best].append((card, key))
        return groups, blocked

    def _ordered(self, groups: Groups, now: float):
        """Yield ``(server, spike_ms, group)`` for each routed server in
        ascending id, its ``(card, key)`` pairs sorted into clustering
        order (ranks are unique per node, so the sort never compares
        keys) -- the order of a round's request records -- with the
        fault harness's latency spike on that server at ``now``."""
        faults = self.faults
        for server, group in enumerate(groups):
            if not group:
                continue
            group.sort()
            yield server, (
                faults.extra_latency_ms(server, now)
                if faults is not None else 0.0
            ), group

    def _records(
        self,
        groups: Groups,
        clients: int,
        client_offset: int,
        now: float,
    ) -> List[RequestRecord]:
        """One multiget round's costed request records: each server's
        keys in clustering order (scan contiguity), clients dealt round-
        robin, each service time from the cost model plus any latency
        spike active at ``now`` (so spikes flow into ``simulate_plan``
        and the timeline)."""
        service_time = self.config.cost_model.service_time
        records: List[RequestRecord] = []
        rr_client = 0
        for server, spike_ms, group in self._ordered(groups, now):
            prev_rank = -2
            for (rank, stored, raw, compressed), key in group:
                contiguous = rank == prev_rank + 1
                prev_rank = rank
                records.append(
                    RequestRecord(
                        key, server, client_offset + rr_client % clients,
                        stored, raw, contiguous, compressed,
                        service_time(stored, raw, contiguous, compressed)
                        + spike_ms,
                    )
                )
                rr_client += 1
        return records

    def _priceable(self, keys: Sequence[KeyTuple], clients: int) -> Groups:
        """Route ``keys`` as :meth:`multiget`'s first attempt would at
        ``clock_ms``; a key with no live holder raises
        :class:`StorageError`, so the candidate reading it cannot be
        priced."""
        if clients < 1:
            raise StorageError("need at least one fetch client")
        if self._placement_len is None:
            if keys:
                raise KeyNotFound(f"empty cluster has no key {keys[0]!r}")
            return []
        groups, blocked = self._route(keys, self.clock_ms)
        if blocked:
            raise StorageError(
                "all replicas down for placement "
                f"{blocked[0][:self._placement_len]!r} "
                f"({len(blocked)} keys unroutable)"
            )
        return groups

    def price(self, keys: Sequence[KeyTuple], clients: int = 1) -> float:
        """Simulated cost (sim-ms) of a prospective multiget round, read
        off the routed cards with no request record built and no value
        touched -- what the planner prices every candidate with.

        The fetch is bit for bit ``simulate_plan(plan_records(keys,
        clients), model)``.  When the cost model prices client-side apply
        work, each key's metadata-only apply estimate
        (:meth:`CostModel.estimated_apply_time`) is added too, summed in
        record order, as execution will report it."""
        groups = self._priceable(keys, clients)
        if not keys:
            return 0.0
        model = self.config.cost_model
        service_time, rtt = model.service_time, model.rtt_ms
        apply, estimated_apply = model.costs_apply, model.estimated_apply_time
        client_busy = [0.0] * min(clients, len(keys))
        worst_server = applied = 0.0
        rr_client = 0
        for _, spike_ms, group in self._ordered(groups, self.clock_ms):
            busy = 0.0
            prev_rank = -2
            for (rank, stored, raw, compressed), _ in group:
                service = service_time(
                    stored, raw, rank == prev_rank + 1, compressed
                ) + spike_ms
                prev_rank = rank
                client = rr_client % clients
                client_busy[client] = client_busy[client] + rtt + service
                busy += service
                rr_client += 1
                if apply:
                    applied += estimated_apply(raw)
            if busy > worst_server:
                worst_server = busy
        estimate = max(max(client_busy), worst_server)
        return estimate + applied if apply else estimate

    def plan_records(
        self, keys: Sequence[KeyTuple], clients: int = 1,
        client_offset: int = 0,
    ) -> List[RequestRecord]:
        """Cost a prospective multiget round without decoding any value —
        the store-side half of an EXPLAIN timeline.  Routing, contiguity
        and service times are computed as :meth:`multiget`'s first
        attempt would at ``clock_ms`` (breakers aside); a key with no live
        holder raises :class:`StorageError`.  :meth:`price` is the same
        round's cost without the records."""
        groups = self._priceable(keys, clients)
        return self._records(groups, clients, client_offset, self.clock_ms)

    def multiget(
        self,
        keys: Sequence[KeyTuple],
        clients: int = 1,
        timeline: Optional[ExecutionTimeline] = None,
        at: float = 0.0,
        client_offset: int = 0,
    ) -> Tuple[Dict[KeyTuple, Any], FetchStats]:
        """Costed parallel read of ``keys`` with ``clients`` parallel
        fetchers.

        Returns the decoded values and the fetch statistics, including the
        simulated completion time of the plan.  Keys absent from every
        (live) replica raise :class:`KeyNotFound`.

        When ``timeline`` is given the round is also issued against that
        shared :class:`ExecutionTimeline`, released at time ``at`` — the
        returned ``sim_time_ms`` remains the round's standalone cost, while
        the timeline records when the round actually completes amid the
        other in-flight rounds (``timeline.rounds[-1]``).  ``client_offset``
        shifts the round's client ids into a distinct namespace so that
        concurrent plans model independent async client contexts instead of
        queueing on one shared fetcher (a constant shift never changes the
        round's standalone cost).

        Each attempt routes, plans, fetches, checks for transient faults
        and decodes; keys that failed (transient error, corrupt payload)
        or were blocked (no usable replica) are retried or settled.
        Without a resilience policy there is exactly one attempt, with no
        hedging and no circuit breakers.  :meth:`enable_resilience` adds
        retries with backoff (charged in sim-ms), hedged reads and
        per-machine breakers.  Keys still unserved after the last attempt
        are dropped inside an active ``partial_scope`` and otherwise raise
        a typed :class:`PartitionUnavailable` naming their partitions.
        """
        if clients < 1:
            raise StorageError("need at least one fetch client")
        if self._placement_len is None:
            if keys:
                raise KeyNotFound(f"empty cluster has no key {keys[0]!r}")
            return {}, FetchStats()

        policy = self.resilience
        attempts = 1 if policy is None else policy.max_attempts
        model = self.config.cost_model
        span = current_span()
        base = self.clock_ms
        release = at
        now = base + at
        values: Dict[KeyTuple, Any] = {}
        stats = FetchStats()
        remaining: Sequence[KeyTuple] = keys
        #: machines that already failed each key this round (transient
        #: error or corrupt payload) — avoided on retry when possible.
        avoid: Dict[KeyTuple, Set[int]] = {}
        for attempt in range(attempts):
            check_cancelled()
            groups, blocked = self._route(
                remaining, now, avoid, breakers=policy is not None
            )
            failed: List[KeyTuple] = []
            if len(blocked) < len(remaining):
                records = self._records(groups, clients, client_offset, now)
                hedged = 0
                if policy is not None:
                    records, hedged = self._maybe_hedge(
                        records, groups, clients, client_offset, now
                    )
                    stats.hedges += hedged
                ok_records = self._fetch(
                    records, now, values, failed, avoid, stats
                )
                # The whole attempt (including requests that failed) is
                # charged on the clock/timeline — the work was issued —
                # but only fetched keys enter ``stats.requests`` so the
                # executor's per-record apply/cache loops stay aligned
                # with ``values``.  A timeline prices the round's
                # standalone cost (the same bound) as it schedules it.
                if timeline is None:
                    timing, round_ms = None, simulate_plan(records, model)
                else:
                    timing = timeline.submit(records, at=release)
                    round_ms = timing.standalone_ms
                stats.requests.extend(ok_records)
                stats.rounds += 1
                stats.sim_time_ms += round_ms
                if span is not None:
                    rs = self._trace_round(
                        span, records, round_ms, timing, release, attempt
                    )
                    if hedged:
                        rs.add_event("hedge", moved=hedged, sim_at=release)
                    if failed:
                        rs.set(failed_keys=len(failed))
                release = (
                    release + round_ms if timing is None
                    else timing.completed_ms
                )
                now = base + release
            remaining = failed + blocked
            if not remaining:
                return values, stats
            if attempt + 1 >= attempts:
                break
            stats.retries += len(remaining)
            delay = policy.backoff_ms(attempt, self._policy_rng)
            stats.backoff_ms += delay
            stats.sim_time_ms += delay
            if span is not None:
                span.add_event(
                    "retry", keys=len(remaining), attempt=attempt,
                    backoff_ms=round(delay, 6), sim_at=release,
                )
            release += delay
            now = base + release
        # Still unserved: drop into the active partial scope, else raise.
        labels = sorted({partition_label(key) for key in remaining})
        collector = active_partial()
        if collector is None:
            raise PartitionUnavailable(
                f"{len(remaining)} keys unavailable after {attempts} "
                f"attempt(s) (partitions: {', '.join(labels)})",
                partitions=labels,
                keys=tuple(remaining),
            )
        for key in remaining:
            collector.drop_key(key)
        stats.degraded_keys += len(remaining)
        for label in labels:
            if label not in stats.degraded_partitions:
                stats.degraded_partitions.append(label)
        if span is not None:
            span.add_event(
                "degraded", keys=len(remaining), partitions=labels,
                sim_at=release,
            )
        return values, stats

    def _fetch(
        self,
        records: List[RequestRecord],
        now: float,
        values: Dict[KeyTuple, Any],
        failed: List[KeyTuple],
        avoid: Dict[KeyTuple, Set[int]],
        stats: FetchStats,
    ) -> List[RequestRecord]:
        """Fetch and decode one planned attempt into ``values``; returns
        the records that served a value.  A server the fault harness
        fails transiently loses its whole key group and a corrupt row
        fails its key: both land in ``failed`` and ``avoid``.  Under a
        resilience policy each server's outcome feeds its breaker."""
        faults = self.faults
        machines = self.machines
        servers = sorted({r.server for r in records})
        failing = (
            faults.transient_failures(servers, now)
            if faults is not None else ()
        )
        if self.resilience is not None:
            for server in servers:
                breaker = self._breaker(server)
                if server in failing:
                    stats.breaker_trips += breaker.record_failure(now)
                else:
                    breaker.record_success(now)
        ok_records: List[RequestRecord] = []
        for record in records:
            key, server = record.key, record.server
            if server not in failing:
                payload = machines[server].get(key).payload
                if faults is not None and faults.corrupts(server, now):
                    # the checksum envelope turns the flip into an error
                    payload = payload[:-1] + bytes([payload[-1] ^ 0xFF])
                try:
                    values[key] = decode(payload)
                except CorruptPayload:
                    pass
                else:
                    ok_records.append(record)
                    continue
            failed.append(key)
            avoid.setdefault(key, set()).add(server)
        return ok_records

    def _maybe_hedge(
        self,
        records: List[RequestRecord],
        groups: Groups,
        clients: int,
        client_offset: int,
        now: float,
    ) -> Tuple[List[RequestRecord], int]:
        """Hedge a straggler server's key group against a second replica.

        When one server's planned busy time is >= ``HEDGE_FACTOR`` times
        every other server's (and >= ``hedge_min_ms``), the round is
        re-planned with that group moved to alternate live replicas and
        the cheaper variant wins.  Returns the records to issue and the
        number of hedged (duplicated) requests — the losing copies are
        abandoned, a deliberate simplification of real hedged reads where
        the slow replies are discarded on arrival.
        """
        policy = self.resilience
        if not policy.hedge:
            return records, 0
        busy: Dict[int, float] = {}
        for record in records:
            busy[record.server] = busy.get(record.server, 0.0) + record.service_ms
        if len(busy) < 2:
            return records, 0
        straggler = max(busy, key=lambda s: busy[s])
        rest = max(v for s, v in busy.items() if s != straggler)
        if busy[straggler] < policy.hedge_min_ms:
            return records, 0
        if busy[straggler] < HEDGE_FACTOR * max(rest, 1e-9):
            return records, 0
        down = self._down_at(now)
        plen = self._placement_len
        alt_groups = [
            [] if server == straggler else list(group)
            for server, group in enumerate(groups)
        ]
        moved = 0
        for _, key in groups[straggler]:
            alternates = [
                m
                for m in self.replicas_for(key[:plen])
                if m != straggler and m not in down
                and key in self.machines[m]
                and self._breaker_allows(m, now)
            ]
            if not alternates:
                return records, 0  # can't cover the whole straggler group
            alternate = alternates[0]
            alt_groups[alternate].append(
                (self.machines[alternate].cards()[key], key)
            )
            moved += 1
        alt_records = self._records(alt_groups, clients, client_offset, now)
        model = self.config.cost_model
        if simulate_plan(alt_records, model) < simulate_plan(records, model):
            return alt_records, moved
        return records, moved

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    @staticmethod
    def _trace_round(span, records, round_ms, timing, release, attempt):
        """Attach one store-round span to the active trace.

        Only ever called with a live span (callers guard on
        ``current_span()``), so the untraced path pays nothing beyond
        that single contextvar read."""
        rs = span.child(
            "round",
            requests=len(records),
            bytes=sum(r.stored_bytes for r in records),
            machines=sorted({r.server for r in records}),
            sim_round_ms=round(round_ms, 6),
            attempt=attempt,
        )
        if timing is not None:
            rs.set_sim(timing.released_ms, timing.completed_ms)
            if timing.server_windows:
                rs.set(server_windows=dict(timing.server_windows))
        else:
            # No shared timeline: the round stands alone at its release
            # instant for exactly its two-sided bound.
            rs.set_sim(release, release + round_ms)
        rs.end()
        return rs

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def stored_bytes(self) -> int:
        """Total bytes on disk across machines (replicas counted)."""
        return sum(machine.stored_bytes for machine in self.machines)

    @property
    def unique_rows(self) -> int:
        """Number of distinct keys (replicas not double-counted)."""
        return len({k for machine in self.machines for k in machine._keys})

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"<Cluster m={cfg.num_machines} r={cfg.replication} "
            f"rows={self.unique_rows} bytes={self.stored_bytes}>"
        )
