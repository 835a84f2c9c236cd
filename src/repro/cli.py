"""Command-line interface for the Historical Graph Store.

Subcommands::

    hgs generate  — produce a workload trace (citation / friendster /
                    social) as a JSON-lines event file
    hgs build     — build a TGI over an event file and save it
    hgs query     — run snapshot / node-history / k-hop queries against a
                    saved index
    hgs serve     — long-running HTTP query service with micro-batching,
                    admission control, and graceful drain
    hgs trace     — run queries under the tracer and export the span
                    tree (Chrome trace-event or structured JSON)
    hgs inspect   — summarize an event file, a saved index, or a
                    slow-query log

Run ``python -m repro.cli --help`` (or ``hgs --help`` once installed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional, Union

from repro import __version__
from repro.api import (
    ALGO_AUTO,
    ALGO_KHOP,
    ALGO_SNAPSHOT_FIRST,
    QueryRequest,
    graph_summary,
    request_from_spec,
    result_payload,
)
from repro.graph.static import Graph
from repro.index.tgi import TGI, PartitioningStrategy, TGIConfig
from repro.index.tgi.layout import (
    TAG_AUX_EVENTLIST,
    TAG_AUX_SNAPSHOT,
    TAG_EVENTLIST,
    TAG_SNAPSHOT,
    TAG_VERSION_CHAIN,
)
from repro.io import read_events, write_events
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.cost import CostModel
from repro.session import GraphSession, index_id_for
from repro.storage import load_index, save_index
from repro.workloads.citation import CitationConfig, generate_citation_events
from repro.workloads.friendster import (
    FriendsterConfig,
    generate_friendster_events,
)
from repro.workloads.social import SocialConfig, generate_social_events


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgs",
        description="Historical Graph Store: temporal graph indexing and "
        "retrieval (EDBT 2016 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a workload event file")
    gen.add_argument("workload", choices=["citation", "friendster", "social"])
    gen.add_argument("output", help="output JSON-lines path")
    gen.add_argument("--nodes", type=int, default=1000)
    gen.add_argument("--steps", type=int, default=2000,
                     help="churn steps (social workload)")
    gen.add_argument("--seed", type=int, default=42)

    build = sub.add_parser("build", help="build a TGI over an event file")
    build.add_argument("events", help="input JSON-lines event file")
    build.add_argument("output", help="output index file")
    build.add_argument("--span", type=int, default=4000,
                       help="events per timespan")
    build.add_argument("--eventlist", type=int, default=250,
                       help="eventlist size l")
    build.add_argument("--partition-size", type=int, default=100,
                       help="micro-partition size ps")
    build.add_argument("--machines", type=int, default=1, help="m")
    build.add_argument("--replication", type=int, default=1, help="r")
    build.add_argument("--compress", action="store_true")
    build.add_argument("--checksums", action="store_true",
                       help="wrap every stored row in a CRC32 envelope "
                       "so corrupted payloads surface as typed "
                       "CorruptPayload errors (and the fetch can retry "
                       "or drop them) instead of garbage decodes")
    build.add_argument("--mincut", action="store_true",
                       help="locality-aware micro partitioning")
    build.add_argument("--replicate-boundary", action="store_true",
                       help="1-hop edge-cut replication")
    build.add_argument("--cache-entries", type=int, default=0,
                       help="delta-cache capacity in rows (0 = disabled)")
    build.add_argument("--checkpoints", type=int, default=0,
                       help="materialized-state checkpoint capacity: "
                       "fully-replayed partition states / snapshots "
                       "reused across queries (0 = disabled)")
    build.add_argument("--apply-cost", action="store_true",
                       help="cost client-side apply work (payload decode "
                       "+ delta/event replay) in the simulation with "
                       "constants *calibrated* on this machine at build "
                       "time (measured decode ms/KiB and replay "
                       "ms/item); apply_ms appears in query JSON")

    query = sub.add_parser("query", help="query a saved index")
    query.add_argument("index", help="index file from `hgs build`")
    query.add_argument("--explain", action="store_true",
                       help="print the retrieval plan and its cost "
                       "estimate without executing the fetch")
    query.add_argument("--batch", metavar="FILE",
                       help="batched execution: read JSON-lines request "
                       "specs from FILE ('-' = stdin) — e.g. "
                       '{"kind": "khop", "node": 17, "time": 900, "k": 2} '
                       "— run them all through one shared coalesced "
                       "timeline, and emit one JSON result per line; "
                       "with --explain, print each request's plan "
                       "instead (no subcommand needed)")
    query.add_argument("--algorithm",
                       choices=[ALGO_AUTO, ALGO_SNAPSHOT_FIRST, ALGO_KHOP],
                       default=ALGO_AUTO,
                       help="k-hop retrieval algorithm: snapshot-first "
                       "(Algorithm 3), khop (targeted Algorithm 4), or "
                       "auto (cost-based selection via plan pricing; "
                       "predicted and actual cost appear in the JSON)")
    query.add_argument("--resilient", action="store_true",
                       help="enable the cluster's resilience policy for "
                       "this run: per-machine retry with backoff, hedged "
                       "reads off stragglers, and circuit breakers that "
                       "reroute around failing machines")
    query.add_argument("--allow-partial", action="store_true",
                       help="degraded mode: when partitions stay "
                       "unreachable after retries, return the partial "
                       "result with a 'degraded' block naming them "
                       "instead of failing the query")
    # not required at parse time: --batch reads request specs from a
    # file instead of the subcommand; _cmd_query validates the split
    _add_query_kinds(query)

    trace = sub.add_parser(
        "trace",
        help="run queries under the tracer and export the span tree",
    )
    trace.add_argument("index", help="index file from `hgs build`")
    trace.add_argument("--out", default="trace.json", metavar="FILE",
                       help="output path for the exported trace")
    trace.add_argument("--format", choices=["chrome", "json"],
                       default="chrome",
                       help="chrome: trace-event JSON loadable in "
                       "Perfetto / chrome://tracing, with one lane per "
                       "store machine and apply worker on the simulated "
                       "timeline plus wall-clock lanes per thread; "
                       "json: the nested span tree with all attributes")
    trace.add_argument("--batch", metavar="FILE",
                       help="JSON-lines request specs ('-' = stdin), "
                       "traced as one batch through the shared "
                       "coalesced timeline")
    trace.add_argument("--algorithm",
                       choices=[ALGO_AUTO, ALGO_SNAPSHOT_FIRST, ALGO_KHOP],
                       default=ALGO_AUTO)
    trace.add_argument("--resilient", action="store_true",
                       help="enable the cluster's resilience policy so "
                       "retry/hedge/breaker events appear in the trace")
    trace.add_argument("--allow-partial", action="store_true")
    _add_query_kinds(trace)

    serve = sub.add_parser(
        "serve",
        help="serve a saved index over HTTP with micro-batched execution",
    )
    serve.add_argument("--index", required=True,
                       help="index file from `hgs build`")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = pick a free port; the bound "
                       "port is printed on startup)")
    serve.add_argument("--batch-window-ms", type=float, default=0.0,
                       help="linger: the longest a free worker holds the "
                       "first request of a batch for company (default 0: "
                       "a request that meets a free worker runs at once).  "
                       "Batches form from backpressure either way: "
                       "whatever arrives while every worker is busy runs "
                       "as one coalesced batch, so overlapping queries "
                       "from independent callers share store fetches")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="largest batch handed to a worker (the oldest "
                       "requests go first; the rest wait for the next "
                       "free worker); reaching it ends a linger early")
    serve.add_argument("--workers", type=int, default=1,
                       help="executor threads, i.e. batches in flight at "
                       "once; requests wait only while all are busy (1 "
                       "also serializes session-state updates)")
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="per-caller token-bucket rate in requests/s "
                       "(429 + Retry-After beyond it; default unlimited)")
    serve.add_argument("--burst", type=float, default=None,
                       help="token-bucket burst capacity (default: "
                       "max(1, rate))")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="load-shed with 503 when this many admitted "
                       "requests are pending")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-request deadline budget, counted "
                       "from admission (504 on expiry; specs may "
                       "override via \"deadline_ms\")")
    serve.add_argument("--auth-token", default=None,
                       help="require `Authorization: Bearer <token>` on "
                       "every route except /healthz")
    serve.add_argument("--resilient", action="store_true",
                       help="enable the store's resilience policy "
                       "(retries, hedged reads, circuit breakers); "
                       "/healthz then reports per-machine breaker state")
    serve.add_argument("--access-log", default=None, metavar="PATH",
                       help="structured JSON access log, one line per "
                       "request ('-' = stderr)")
    serve.add_argument("--trace", choices=["off", "all", "ratio", "slow"],
                       default="off",
                       help="query tracing: 'all' traces every query, "
                       "'ratio' a deterministic stride of them "
                       "(--trace-ratio), 'slow' traces everything but "
                       "retains only queries slower than --slow-ms; "
                       "retained traces feed GET /debug/slow")
    serve.add_argument("--trace-ratio", type=float, default=0.1,
                       help="fraction of queries traced under "
                       "--trace ratio")
    serve.add_argument("--slow-ms", type=float, default=250.0,
                       help="slow-query threshold (wall ms): traces at "
                       "least this slow land in the slow-query ring "
                       "buffer served at GET /debug/slow")
    serve.add_argument("--slow-log", default=None, metavar="PATH",
                       help="also append slow-query entries as JSON "
                       "lines to PATH (readable offline via "
                       "`hgs inspect PATH --slow`)")

    inspect = sub.add_parser(
        "inspect", help="summarize an event/index file or slow-query log"
    )
    inspect.add_argument("path")
    inspect.add_argument(
        "--kind", choices=["auto", "events", "index"], default="auto"
    )
    inspect.add_argument("--slow", action="store_true",
                         help="treat PATH as a slow-query JSONL log "
                         "(from `hgs serve --slow-log`) and summarize "
                         "its entries: wall time, chosen algorithm, and "
                         "predicted-vs-actual margin per candidate")
    return parser


def _add_query_kinds(parser: argparse.ArgumentParser) -> None:
    """The snapshot/node/khop subcommands, shared by query and trace."""
    qsub = parser.add_subparsers(dest="query_kind", required=False)

    qsnap = qsub.add_parser("snapshot", help="graph as of a time point")
    qsnap.add_argument("time", type=int)
    qsnap.add_argument("--clients", type=int, default=1)

    qnode = qsub.add_parser("node", help="a node's history")
    qnode.add_argument("node", type=int)
    qnode.add_argument("ts", type=int)
    qnode.add_argument("te", type=int)

    qhop = qsub.add_parser("khop", help="k-hop neighborhood at a time point")
    qhop.add_argument("node", type=int)
    qhop.add_argument("time", type=int)
    qhop.add_argument("-k", type=int, default=1)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.workload == "citation":
        events = generate_citation_events(
            CitationConfig(num_nodes=args.nodes, seed=args.seed)
        )
    elif args.workload == "friendster":
        events = generate_friendster_events(
            FriendsterConfig(num_nodes=args.nodes, seed=args.seed)
        )
    else:
        events = generate_social_events(
            SocialConfig(num_nodes=args.nodes, num_steps=args.steps,
                         seed=args.seed)
        )
    count = write_events(events, args.output)
    print(f"wrote {count} events to {args.output}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    events = read_events(args.events)
    config = TGIConfig(
        events_per_timespan=args.span,
        eventlist_size=args.eventlist,
        micro_partition_size=args.partition_size,
        partitioning=(
            PartitioningStrategy.MINCUT if args.mincut
            else PartitioningStrategy.RANDOM
        ),
        replicate_boundary=args.replicate_boundary,
        delta_cache_entries=args.cache_entries,
        checkpoint_entries=args.checkpoints,
        cluster=ClusterConfig(
            num_machines=args.machines,
            replication=args.replication,
            compress=args.compress,
            checksums=args.checksums,
            cost_model=CostModel(),
        ),
    )
    tgi = TGI(config)
    tgi.build(events)
    if args.apply_cost:
        # the build just measured this machine's decode/replay constants;
        # cost apply work with those instead of the fixed defaults
        model = tgi.use_calibrated_apply()
        print(
            f"calibrated apply cost: {model.apply_per_kb_ms:.4f} ms/KiB "
            f"decode, {model.replay_per_item_ms:.5f} ms/item replay"
        )
    save_index(tgi, args.output)
    print(
        f"built TGI over {len(events)} events: {tgi.num_timespans} "
        f"timespans, {tgi.cluster.unique_rows} rows, "
        f"{tgi.cluster.stored_bytes // 1024} KiB -> {args.output}"
    )
    return 0


def _open_session(args: argparse.Namespace) -> Optional[GraphSession]:
    """The session ``hgs query`` / ``trace`` / ``serve`` run against:
    ``args.index`` loaded, keyed in the cache registry like
    :func:`~repro.session.open_graph` keys it, with the cluster's
    resilience policy armed under ``--resilient``.  An index file that
    is not a TGI is refused on stderr (``None``; the caller exits 1)."""
    index = load_index(args.index)
    if not isinstance(index, TGI):
        print(f"hgs {args.command} supports TGI indexes "
              f"(got {type(index).__name__})", file=sys.stderr)
        return None
    session = GraphSession.from_index(
        index, index_id=index_id_for(args.index)
    )
    if args.resilient:
        index.cluster.enable_resilience()
    return session


def _request_for(args: argparse.Namespace) -> QueryRequest:
    """Compile the query subcommand's arguments into a session request."""
    allow_partial = getattr(args, "allow_partial", False)
    if args.query_kind == "snapshot":
        return QueryRequest(kind="snapshot", t=args.time,
                            clients=args.clients,
                            allow_partial=allow_partial)
    if args.query_kind == "node":
        return QueryRequest(kind="node_histories", ts=args.ts, te=args.te,
                            nodes=(args.node,), single=True,
                            allow_partial=allow_partial)
    return QueryRequest(kind="khop", t=args.time, nodes=(args.node,),
                        k=args.k, algorithm=args.algorithm, single=True,
                        allow_partial=allow_partial)


def _batch_specs(path: str) -> List[dict]:
    """Read ``--batch`` request specs: one JSON object per line
    (blank lines and ``#`` comments skipped); ``-`` reads stdin."""
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).expanduser().read_text()
    specs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        specs.append(json.loads(line))
    return specs


def _batch_requests(args: argparse.Namespace) -> List[QueryRequest]:
    """The ``--batch`` file's specs compiled to requests (parsing shared
    with the HTTP service: a malformed spec raises the same structured
    ``BadRequest``), each under ``--allow-partial`` when given."""
    requests = [
        request_from_spec(spec, args.algorithm)
        for spec in _batch_specs(args.batch)
    ]
    if args.allow_partial:
        requests = [
            dataclasses.replace(request, allow_partial=True)
            for request in requests
        ]
    return requests


def _cmd_query_batch(session: GraphSession,
                     args: argparse.Namespace) -> int:
    """``--batch``: all requests through one shared coalesced timeline,
    one JSON result per line (input order).  The kind-specific payload
    lives in :mod:`repro.api.wire`, shared with the HTTP service, so a
    ``--batch`` file replays against ``hgs serve`` with identical keys."""
    requests = _batch_requests(args)
    if args.explain:
        for i, request in enumerate(requests):
            print(f"-- request {i}: {request.describe()}")
            print(session.explain(request))
        return 0
    for request, result in zip(requests,
                               session.execute_batch(requests)):
        print(json.dumps({
            **result_payload(request, result),
            **result.stats.as_dict(),
        }))
    return 0


def _open_query_session(
    args: argparse.Namespace,
) -> Union[GraphSession, int]:
    """The session ``hgs query`` / ``trace`` run against, or the exit
    code: 2 unless exactly one of a query subcommand and ``--batch`` is
    given (checked before the index is opened), 1 for an index
    :func:`_open_session` refuses."""
    if args.batch is None and args.query_kind is None:
        print(f"hgs {args.command}: a query subcommand (snapshot/node/khop) "
              "or --batch FILE is required", file=sys.stderr)
        return 2
    if args.batch is not None and args.query_kind is not None:
        print(f"hgs {args.command}: --batch replaces the query subcommand; "
              "give one or the other", file=sys.stderr)
        return 2
    session = _open_session(args)
    return 1 if session is None else session


def _cmd_query(args: argparse.Namespace) -> int:
    session = _open_query_session(args)
    if isinstance(session, int):
        return session
    if args.batch is not None:
        return _cmd_query_batch(session, args)
    request = _request_for(args)
    if args.explain:
        print(session.explain(request))
        return 0
    result = session.execute(request)
    print(json.dumps({
        **result_payload(request, result), **result.stats.as_dict(),
    }, indent=2))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace one query (or a batch) and export the span tree."""
    from repro.obs import SamplingPolicy, Tracer, write_trace

    session = _open_query_session(args)
    if isinstance(session, int):
        return session
    session.tracer = Tracer(SamplingPolicy.all())
    if args.batch is not None:
        results = session.execute_batch(_batch_requests(args))
        stats_sim = max(
            (r.stats.sim_time_ms or 0.0) for r in results
        ) if results else 0.0
    else:
        result = session.execute(_request_for(args))
        stats_sim = result.stats.sim_time_ms or 0.0
    root = session.tracer.last()
    if root is None:
        print("hgs trace: no trace captured", file=sys.stderr)
        return 1
    out = Path(args.out).expanduser()
    write_trace(root, str(out), format=args.format)
    spans = sum(1 for _ in root.walk())
    trace_sim = root.sim_ms
    drift_pct = (
        abs(trace_sim - stats_sim) / stats_sim * 100.0 if stats_sim else 0.0
    )
    print(
        f"wrote {args.format} trace to {out}: {spans} spans, "
        f"root sim window {trace_sim:.3f} ms vs QueryStats "
        f"{stats_sim:.3f} ms ({drift_pct:.3f}% drift)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio query service until SIGTERM/SIGINT, then drain."""
    import asyncio

    from repro.service import AccessLogger, QueryService
    from repro.service import serve as serve_until_signalled

    session = _open_session(args)
    if session is None:
        return 1
    tracer = None
    if args.trace != "off":
        from repro.obs import SamplingPolicy, SlowQueryLog, Tracer

        slow_log = SlowQueryLog(
            threshold_ms=args.slow_ms, path=args.slow_log
        )
        if args.trace == "slow":
            sampling = SamplingPolicy.slow_only(args.slow_ms)
        elif args.trace == "ratio":
            sampling = SamplingPolicy.ratio_of(args.trace_ratio)
        else:
            sampling = SamplingPolicy.all()
        tracer = Tracer(sampling, slow_log=slow_log)
        session.tracer = tracer
    access = AccessLogger(args.access_log) if args.access_log else None
    service = QueryService(
        session,
        window_ms=args.batch_window_ms,
        max_batch=args.max_batch,
        workers=args.workers,
        rate=args.rate_limit,
        burst=args.burst,
        max_pending=args.queue_depth,
        default_deadline_ms=args.deadline_ms,
        auth_token=args.auth_token,
        access_log=access,
        tracer=tracer,
    )
    try:
        asyncio.run(serve_until_signalled(service, args.host, args.port))
    finally:
        if access is not None:
            access.close()
    return 0


def _cmd_inspect_slow(args: argparse.Namespace) -> int:
    """Summarize a slow-query JSONL log from ``hgs serve --slow-log``."""
    text = Path(args.path).expanduser().read_text(encoding="utf-8")
    entries = [
        json.loads(line) for line in text.splitlines() if line.strip()
    ]
    rows = []
    for entry in entries:
        for query in entry.get("queries", []):
            rows.append({
                "wall_ms": entry.get("wall_ms"),
                "kind": query.get("kind"),
                "algorithm": query.get("algorithm"),
                "predicted_ms": query.get("predicted_ms"),
                "sim_time_ms": query.get("sim_time_ms"),
                "margins_ms": query.get("margins_ms"),
                "degraded_keys": query.get("degraded_keys", 0),
                "error": query.get("error"),
            })
    rows.sort(key=lambda r: -(r["wall_ms"] or 0.0))
    print(json.dumps({
        "entries": len(entries),
        "queries": len(rows),
        "slowest": rows[:20],
    }, indent=2))
    return 0


#: ``hgs inspect`` row kind of each TGI delta-id tag
_ROW_KINDS = {
    TAG_SNAPSHOT: "micro_delta",
    TAG_AUX_SNAPSHOT: "micro_delta",
    TAG_EVENTLIST: "eventlist",
    TAG_AUX_EVENTLIST: "eventlist",
    TAG_VERSION_CHAIN: "version_chain",
}


def _storage_by_kind(cluster) -> dict:
    """Distinct rows and stored KiB (replicas counted, like the index's
    ``stored_kib``) per row kind."""
    keys: dict = {kind: set() for kind in _ROW_KINDS.values()}
    size = dict.fromkeys(keys, 0)
    for machine in cluster.machines:
        for key, value in machine.items():
            kind = _ROW_KINDS[key[2][0]]
            keys[kind].add(key)
            size[kind] += value.stored_size
    return {
        kind: {"rows": len(keys[kind]), "stored_kib": round(size[kind] / 1024, 1)}
        for kind in keys
    }


def _cmd_inspect(args: argparse.Namespace) -> int:
    if args.slow:
        return _cmd_inspect_slow(args)
    kind = args.kind
    if kind == "auto":
        kind = "events" if str(args.path).endswith((".jsonl", ".json",
                                                    ".events")) else "index"
    if kind == "events":
        events = read_events(args.path)
        g = Graph.replay(events)
        kinds: dict = {}
        for ev in events:
            kinds[ev.kind.name] = kinds.get(ev.kind.name, 0) + 1
        print(json.dumps({
            "events": len(events),
            "time_range": [events[0].time, events[-1].time] if events else None,
            "final_graph": graph_summary(g),
            "event_kinds": kinds,
        }, indent=2))
    else:
        index = load_index(args.path)
        info = {"class": type(index).__name__}
        if isinstance(index, TGI):
            info.update({
                "timespans": index.num_timespans,
                "rows": index.cluster.unique_rows,
                "stored_kib": index.cluster.stored_bytes // 1024,
                "machines": index.config.cluster.num_machines,
                "replication": index.config.cluster.replication,
                "checksums": index.config.cluster.checksums,
                "delta_cache_entries": index.config.delta_cache_entries,
                "checkpoint_entries": index.config.checkpoint_entries,
                "storage": _storage_by_kind(index.cluster),
            })
            if index.stats:
                cal = index.stats.calibration
                info["stats"] = {
                    "spans": len(index.stats.spans),
                    "buckets": len(
                        next(iter(index.stats.spans.values())).bucket_bounds
                    ) - 1,
                    "calibration": (
                        {
                            "apply_per_kb_ms": round(cal.apply_per_kb_ms, 5),
                            "replay_per_item_ms": round(
                                cal.replay_per_item_ms, 6
                            ),
                            "sample_rows": cal.sample_rows,
                            "sample_items": cal.sample_items,
                            "items_per_kb": round(cal.items_per_kb, 2),
                        }
                        if cal is not None
                        else None
                    ),
                }
        print(json.dumps(info, indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "build": _cmd_build,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "inspect": _cmd_inspect,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
