"""The workload matrix: which ops each workload runs and how one op is
executed against a session.

Op lists are plain JSON-able dicts derived from the seed alone, so every
pass (and the oracle) replays exactly the same work.  Times and subjects
are drawn *stratified* — one draw per equal slice of the range, paired
on a lattice, popularity dealt in expected counts — so two seeds give
different ops with nearly the same cost profile, which is what keeps
the metrics comparable across seeds.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

from repro import Graph, GraphSession, QueryRequest

from benchmarks.ledger.datasets import Dataset

#: name -> why it is in the matrix (one line each; see README.md).
WORKLOADS: Dict[str, str] = {
    "snapshot_cold": (
        "Algorithm 1 with caches off: kvstore decode + Delta.to_graph + "
        "graph replay dominate; session, planner and coalescer idle"
    ),
    "khop_cold": (
        "single k-hops, algorithm=auto, caches off: pricing, planning and "
        "targeted fetch (Alg. 3 vs 4); where auto's regret is measured"
    ),
    "khop_batch": (
        "execute_batch of 16 overlapping k=2 requests: the plan-factory "
        "path and exec.coalesce, which single requests bypass"
    ),
    "mixed_warm": (
        "skewed mixed reads on warm, evicting caches: exec.cache and "
        "near-seeding decide the result while fetch and replay fade"
    ),
    "taf_history": (
        "node histories, SoN and SoTS with TAF compute: version chains, "
        "eventlists, taf and spark, with no snapshot materialization"
    ),
    "ingest_update": (
        "build, then update batches beside warm reads, then save/load: "
        "write cost, stored size and cache invalidation show only here"
    ),
    "service_closed": (
        "hgs serve subprocess, 2 closed-loop clients on a warm index: "
        "HTTP admission, collector window and wire encode dominate"
    ),
}

#: Mixed-read proportions (kind, share); shares are exact per op list.
MIXED_WARM_MIX = (
    ("khop", 0.65), ("node_state", 0.10), ("node_history", 0.10),
    ("snapshot", 0.15),
)
INGEST_READ_MIX = (
    ("khop", 0.70), ("node_history", 0.15), ("node_state", 0.10),
    ("snapshot", 0.05),
)
#: k of the k-hops beside updates.  At k=2 on the newest quarter of
#: history ``auto`` sits on a near-tie between Algorithms 3 and 4 and its
#: feedback loop tips one way or the other by seed (median latency 7 ms
#: or 19 ms); at k=1 Algorithm 4 wins outright.
INGEST_K = 1
SERVICE_MIX = (("khop", 0.75), ("snapshot", 0.25))
HOT_TIMES = 32
ZIPF_S = 1.1
#: Share of reads that land shortly *after* a hot time instead of on it
#: (by up to one eventlist): never cached themselves, they are seeded
#: from the nearest warm state and fetch only the gap.  Sized so that the
#: near k-hops and snapshots are about an eighth of all ops: the slowest
#: tenth is then that whole group, not its upper tail.
MIXED_NEAR_SHARE = 0.15
#: SoTS centers skip the best-connected 5 %: a hub's 1-hop neighbourhood
#: holds a hundred histories and one such op would own the slow tail.
SOTS_TOP_SKIP = 0.05
SERVICE_POOL = 24
SERVICE_CLIENTS = 2
BATCH_REQUESTS = 16
BATCH_POOL = 8
HISTORY_NODES = 32
SON_ID_RANGE = 100
SOTS_CENTERS = 4
EVOLUTION_POINTS = 6

Op = Dict[str, Any]


def _van_der_corput(i: int) -> float:
    """``i``-th point of the base-2 low-discrepancy sequence in [0, 1):
    any prefix of it is spread evenly."""
    x, step = 0.0, 0.5
    while i:
        if i & 1:
            x += step
        i >>= 1
        step /= 2
    return x


class _Picker:
    """Seeded draws over one dataset, made so that two seeds give
    different ops with nearly the same cost profile.

    Subjects are picked by *degree rank*: a fraction ``f`` in [0, 1)
    names the node at position ``f`` of the nodes alive at the op's
    time, ordered from the best connected down (what a k-hop costs
    follows the size of the neighbourhood, and degrees are heavy-tailed,
    so picking by id would let a few hubs decide a seed's result).
    Fractions stay in the ops as ``{"rank": f}`` until :func:`_resolve`
    rolls a graph forward and replaces them with node ids.
    """

    def __init__(self, dataset: Dataset, seed: int) -> None:
        self.rng = random.Random(seed)
        self.dataset = dataset
        span = dataset.t_max - dataset.t_min
        #: queries avoid the first tenth of history (near-empty graph)
        self.t_lo = dataset.t_min + span // 10
        self.t_hi = dataset.t_max

    def strata(self, n: int) -> List[float]:
        """``n`` fractions in [0, 1), one per equal slice, shuffled."""
        out = [(i + self.rng.random()) / n for i in range(n)]
        self.rng.shuffle(out)
        return out

    def lattice(self, n: int) -> List[Tuple[float, float]]:
        """``n`` points of the unit square: each coordinate has one
        point per equal slice and the pairs are spread evenly (a jittered
        rank-1 lattice), so time and subject rank never bunch up."""
        step = max(1, round(n * 0.6180339887))
        while math.gcd(step, n) != 1:
            step += 1
        shift = self.rng.randrange(n)
        out = [
            ((i + self.rng.random()) / n,
             ((i * step + shift) % n + self.rng.random()) / n)
            for i in range(n)
        ]
        self.rng.shuffle(out)
        return out

    def deal(self, n_ops: int, per_op: int) -> List[List[float]]:
        """``per_op`` fractions for each of ``n_ops`` ops, from one fine
        stratification of all ``n_ops * per_op`` draws: every op gets
        one fraction out of each of ``per_op`` equal bands."""
        n = n_ops * per_op
        fine = [(i + self.rng.random()) / n for i in range(n)]
        hands = [fine[j::n_ops] for j in range(n_ops)]
        self.rng.shuffle(hands)
        return hands

    def time(self, fraction: float, lo: int = None, hi: int = None) -> int:
        lo = self.t_lo if lo is None else lo
        hi = self.t_hi if hi is None else hi
        return lo + int(fraction * (hi - lo))

    def spread_times(self, n: int) -> List[int]:
        """``n`` times of which every prefix covers history evenly: the
        hot head of a Zipf draw over them costs the same for every seed."""
        return [
            self.time((_van_der_corput(i) + self.rng.random() / n) % 1.0)
            for i in range(n)
        ]

    def kinds(self, mix: Sequence[Tuple[str, float]], n: int) -> List[str]:
        """``n`` kinds in the exact proportions of ``mix``."""
        out: List[str] = []
        for kind, share in mix:
            out.extend([kind] * round(share * n))
        while len(out) < n:
            out.append(mix[0][0])
        del out[n:]
        return out

    def zipf(self, n_items: int, n_draws: int) -> List[int]:
        """``n_draws`` item ranks with Zipf popularity, each item drawn
        its expected number of times (largest remainder), shuffled."""
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n_items)]
        scale = n_draws / sum(weights)
        shares = [w * scale for w in weights]
        counts = [int(share) for share in shares]
        by_remainder = sorted(
            range(n_items), key=lambda r: shares[r] - counts[r], reverse=True
        )
        for rank in by_remainder[:n_draws - sum(counts)]:
            counts[rank] += 1
        out = [rank for rank, count in enumerate(counts) for _ in range(count)]
        self.rng.shuffle(out)
        return out


def _window(dataset: Dataset) -> int:
    """Interval length of history reads: a bit over one timespan, so
    version chains cross a span boundary."""
    return int(1.2 * dataset.scale.events_per_timespan)


def _read_op(
    dataset: Dataset, kind: str, t: int, fraction: float, k: int = 2
) -> Op:
    if kind == "snapshot":
        return {"kind": "snapshot", "t": t}
    node = {"rank": fraction}
    if kind == "khop":
        return {"kind": "khop", "t": t, "node": node, "k": k}
    if kind == "node_state":
        return {"kind": "node_state", "t": t, "node": node}
    ts = max(dataset.t_min, t - _window(dataset))
    return {"kind": "node_history", "ts": ts, "te": t, "node": node}


def _popular_reads(
    pick: _Picker, mix, n: int, spots: List[int], near_share: float
) -> List[Op]:
    """``n`` reads in the proportions of ``mix``.  Every kind draws its
    times from ``spots`` with the same Zipf popularity, except for a
    ``near_share`` that lands up to one eventlist after a spot (each
    spot in turn, gaps stratified), and its subjects skewed to the well
    connected (cubic over the rank order)."""
    dataset = pick.dataset
    gap = dataset.scale.eventlist_size
    # timespans are cut every ``events_per_timespan`` events; a read past
    # the end of its spot's span would find no warm state to start from
    step = dataset.scale.events_per_timespan
    span_starts = [ev.time for ev in dataset.events[::step]]

    def after(spot: int, fraction: float) -> int:
        nxt = bisect.bisect_right(span_starts, spot)
        span_end = (
            span_starts[nxt] - 1 if nxt < len(span_starts) else dataset.t_max
        )
        return max(spot, min(span_end, spot + 1 + int(fraction * gap)))

    ops = []
    for kind, count in Counter(pick.kinds(mix, n)).items():
        n_near = round(count * near_share)
        times = [spots[rank] for rank in pick.zipf(len(spots), count - n_near)]
        times += [
            after(spots[i % len(spots)], f)
            for i, f in enumerate(pick.strata(n_near))
        ]
        for t, u in zip(times, pick.strata(count)):
            ops.append(_read_op(dataset, kind, t, u ** 3))
    pick.rng.shuffle(ops)
    return ops


def _resolve(dataset: Dataset, ops: List[Op]) -> List[Op]:
    """Replace every ``{"rank": f}`` by the id of the node at position
    ``f`` of the degree order at the op's time (``t``, or the end of its
    interval), rolling one graph forward over the events."""
    def anchor(op: Op) -> int:
        return op.get("t", op.get("te", 0))

    graph = Graph()
    events, cursor = dataset.events, 0
    order: List[int] = []
    order_t = None
    for op in sorted(ops, key=anchor):
        ranked = [
            key for key in ("node", "nodes", "centers")
            if key in op and (
                isinstance(op[key], dict) or
                (op[key] and isinstance(op[key][0], dict))
            )
        ]
        if not ranked:
            continue
        t = anchor(op)
        while cursor < len(events) and events[cursor].time <= t:
            graph.apply_event(events[cursor])
            cursor += 1
        if t != order_t:
            order = sorted(graph.nodes(), key=lambda n: (-graph.degree(n), n))
            order_t = t
        for key in ranked:
            if isinstance(op[key], dict):
                op[key] = order[int(op[key]["rank"] * len(order))]
            else:
                op[key] = [
                    order[int(item["rank"] * len(order))] for item in op[key]
                ]
                if op["kind"] != "batch":  # a batch repeats on purpose
                    op[key] = list(dict.fromkeys(op[key]))
    return ops


def make_ops(workload: str, dataset: Dataset) -> List[Op]:
    """The fixed op list of one pass of ``workload``."""
    # one independent stream per workload, all derived from the seed
    index = list(WORKLOADS).index(workload)
    pick = _Picker(dataset, dataset.seed * 1000003 + index)
    return _resolve(dataset, _draw_ops(workload, dataset, pick))


def _draw_ops(workload: str, dataset: Dataset, pick: _Picker) -> List[Op]:
    scale = dataset.scale
    if workload == "snapshot_cold":
        return [
            {"kind": "snapshot", "t": pick.time(f)}
            for f in pick.strata(scale.snapshot_ops)
        ]
    if workload == "khop_cold":
        # as many k=1 as k=2, each k on its own lattice over (time, rank)
        ops = []
        for k in (1, 2):
            for ft, fn in pick.lattice(scale.khop_ops // 2):
                ops.append({
                    "kind": "khop", "t": pick.time(ft),
                    "node": {"rank": fn}, "k": k,
                })
        pick.rng.shuffle(ops)
        return ops
    if workload == "khop_batch":
        ops = []
        pools = pick.deal(scale.batches, BATCH_POOL)
        for f, pool in zip(pick.strata(scale.batches), pools):
            ops.append({
                "kind": "batch", "t": pick.time(f), "k": 2,
                "nodes": [
                    {"rank": pick.rng.choice(pool)}
                    for _ in range(BATCH_REQUESTS)
                ],
            })
        return ops
    if workload == "mixed_warm":
        # Warm-up first materializes a snapshot at every hot time.  With
        # that done ``auto`` answers hot k-hops from the warm snapshot on
        # every seed; without it the session settles, by the luck of the
        # first few ops, into either that regime or the one where
        # Algorithm 4's partition states keep flushing the checkpoints,
        # and store requests per op differ fourfold between seeds.
        hot = pick.spread_times(HOT_TIMES)
        ops = [{"kind": "snapshot", "t": t} for t in hot]
        ops += _popular_reads(
            pick, MIXED_WARM_MIX, scale.mixed_warmup + scale.mixed_ops, hot,
            near_share=MIXED_NEAR_SHARE,
        )
        for op in ops[:HOT_TIMES + scale.mixed_warmup]:
            op["warmup"] = True
        return ops
    if workload == "taf_history":
        window = _window(dataset)

        def interval(f: float) -> Dict[str, int]:
            te = pick.time(f)
            return {"ts": max(dataset.t_min, te - window), "te": te}

        ops = []
        hands = pick.deal(scale.taf_histories, HISTORY_NODES)
        for f, hand in zip(pick.strata(scale.taf_histories), hands):
            ops.append({
                "kind": "node_histories", **interval(f),
                "nodes": [{"rank": fn} for fn in hand],
            })
        for ft, fn in pick.lattice(scale.taf_son):
            op = {"kind": "son", **interval(ft)}
            # ids are dense from 0: the newest node alive bounds the range
            newest = max(
                n for n, born in dataset.births.items() if born <= op["te"]
            )
            op["lo"] = int(fn * max(1, newest - SON_ID_RANGE))
            op["hi"] = op["lo"] + SON_ID_RANGE
            ops.append(op)
        hands = pick.deal(scale.taf_sots, SOTS_CENTERS)
        for f, hand in zip(pick.strata(scale.taf_sots), hands):
            ops.append({
                "kind": "sots", **interval(f),
                "centers": [
                    {"rank": SOTS_TOP_SKIP + (1 - SOTS_TOP_SKIP) * fn}
                    for fn in hand
                ],
            })
        pick.rng.shuffle(ops)
        return ops
    if workload == "ingest_update":
        events = dataset.events
        half = len(events) // 2
        step = scale.events_per_timespan
        bounds = list(range(half, len(events), step)) + [len(events)]
        per_batch = math.ceil(scale.ingest_reads / (len(bounds) - 1))
        ops: List[Op] = [{"kind": "build", "lo": 0, "hi": half}]
        for lo, hi in zip(bounds, bounds[1:]):
            ops.append({"kind": "update", "lo": lo, "hi": hi})
            # reads land in the newest quarter of what is indexed so far
            t_max = events[hi - 1].time
            t_lo = t_max - (t_max - dataset.t_min) // 4
            kinds = pick.kinds(INGEST_READ_MIX, per_batch)
            pick.rng.shuffle(kinds)
            for kind, (ft, fn) in zip(kinds, pick.lattice(per_batch)):
                ops.append(_read_op(
                    dataset, kind, pick.time(ft, t_lo, t_max), fn, INGEST_K
                ))
        # after the last batch: save -> load -> one more verified query
        ops.append({"kind": "reload"})
        ops.append({
            "kind": "khop", "t": dataset.t_max, "node": {"rank": 0.5},
            "k": INGEST_K,
        })
        return ops
    if workload == "service_closed":
        # One shared pool of (time, subject) pairs: both clients draw
        # from it with the same popularity, so their requests overlap.
        # Warm-up materializes a snapshot at every pool time (see
        # ``mixed_warm``); after it execution is small and what is left
        # is the service itself.
        times = pick.spread_times(SERVICE_POOL)
        ranks = pick.strata(SERVICE_POOL)
        ops = [{"kind": "snapshot", "t": t, "warmup": True} for t in times]
        for client in range(SERVICE_CLIENTS):
            share = []
            for kind, count in Counter(
                pick.kinds(SERVICE_MIX, scale.service_requests)
            ).items():
                for spot in pick.zipf(SERVICE_POOL, count):
                    share.append(
                        _read_op(dataset, kind, times[spot], ranks[spot])
                    )
            pick.rng.shuffle(share)
            for op in share:
                op["client"] = client
            ops.extend(share)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# executing one op in-process
# ----------------------------------------------------------------------
def _degree(state) -> int:
    return len(state.E) if state is not None else 0


def _density(graph) -> float:
    n = graph.num_nodes
    return 2.0 * graph.num_edges / (n * (n - 1)) if n > 1 else 0.0


def _num_edges(graph) -> int:
    return graph.num_edges


def execute_op(
    session: GraphSession, op: Op, algorithm: str = "auto"
) -> Tuple[Any, List[Any]]:
    """Run one read op; returns ``(value, stats)`` where ``value`` is
    what the oracle checks and ``stats`` the ``QueryStats`` (or TAF
    fetch stats) objects the op produced, one per request."""
    kind = op["kind"]
    if kind == "snapshot":
        r = session.at(op["t"]).snapshot()
        return r.value, [r.stats]
    if kind == "khop":
        r = session.at(op["t"]).khop(op["node"], k=op["k"], algorithm=algorithm)
        return r.value, [r.stats]
    if kind == "batch":
        results = session.execute_batch([
            QueryRequest(
                kind="khop", t=op["t"], nodes=(node,), k=op["k"], single=True
            )
            for node in op["nodes"]
        ])
        return [r.value for r in results], [r.stats for r in results]
    if kind == "node_state":
        r = session.at(op["t"]).node_state(op["node"])
        return r.value, [r.stats]
    if kind == "node_history":
        r = session.between(op["ts"], op["te"]).node_history(op["node"])
        return r.value, [r.stats]
    if kind == "node_histories":
        r = session.between(op["ts"], op["te"]).node_histories(op["nodes"])
        return r.value, [r.stats]
    if kind == "son":
        son = (
            session.nodes(f"id >= {op['lo']} and id < {op['hi']}")
            .timeslice(op["ts"], op["te"]).fetch()
        )
        son.NodeComputeTemporal(_degree)
        son.GetGraph().Evolution(_density, EVOLUTION_POINTS)
        return son, [son.fetch_stats]
    if kind == "sots":
        sots = (
            session.subgraphs(k=1).timeslice(op["ts"], op["te"])
            .fetch(centers=op["centers"])
        )
        sots.NodeComputeTemporal(_num_edges)
        return sots, [sots.fetch_stats]
    raise ValueError(f"cannot execute op kind {kind!r}")


def op_counts(stats: List[Any]) -> Tuple[float, float, float]:
    """``(sim_ms, store_requests, store_bytes)`` of one op: requests in
    a batch share one timeline, so the op completes with its slowest
    member (makespan) while requests and bytes add up (fair shares)."""
    sim = max((s.sim_time_ms for s in stats), default=0.0)
    requests = sum(s.requests for s in stats)
    nbytes = sum(s.bytes_read for s in stats)
    return sim, float(requests), float(nbytes)


def service_spec(op: Op) -> Dict[str, Any]:
    """The wire spec ``ServiceClient.query`` sends for a service op."""
    if op["kind"] == "snapshot":
        return {"kind": "snapshot", "time": op["t"]}
    return {"kind": "khop", "node": op["node"], "time": op["t"], "k": op["k"]}
