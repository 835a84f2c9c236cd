"""The query service end to end: micro-batched HTTP serving over one
shared `GraphSession`, with admission control and live metrics.

Builds a small citation-network TGI, serves it in-process, then plays
three roles against it:

1. a burst of concurrent callers with overlapping k-hop queries — the
   batching window coalesces their store fetches (watch the fair
   per-caller accounting still sum to the deduplicated totals);
2. a greedy caller hitting a per-caller rate limit (429 + Retry-After);
3. an operations view: /healthz, /metrics, and a graceful drain.

Run with::

    python examples/serve_demo.py
"""

import threading

from repro import GraphSession, TGI, TGIConfig
from repro.api import Draining, RateLimited
from repro.kvstore.cluster import ClusterConfig
from repro.service import BackgroundService, ServiceClient
from repro.workloads.citation import CitationConfig, generate_citation_events


def main() -> None:
    events = generate_citation_events(
        CitationConfig(num_nodes=600, citations_per_node=4, seed=7)
    )
    t_end = events[-1].time
    tgi = TGI(TGIConfig(
        events_per_timespan=2500,
        eventlist_size=200,
        micro_partition_size=64,
        cluster=ClusterConfig(num_machines=4),
    ))
    tgi.build(events)
    session = GraphSession.from_index(tgi)

    service = BackgroundService(
        session,
        window_ms=20.0,
        max_batch=16,
        rate=5.0,   # per-caller requests/second
        burst=2.0,
    ).start()
    print(f"service listening on 127.0.0.1:{service.port}\n")

    # --- one lone query -----------------------------------------------------
    client = ServiceClient(port=service.port, caller="demo")
    out = client.query({"kind": "khop", "node": 3, "time": t_end, "k": 2})
    print(f"khop(3, k=2) -> {out['neighborhood']['nodes']} nodes, "
          f"{out['deltas_fetched']} store requests, "
          f"algorithm={out['algorithm']}")
    print(f"  served in batch {out['service']['batch_id']} "
          f"(size {out['service']['batch_size']})\n")

    # --- a concurrent burst of overlapping neighborhoods --------------------
    centers = [3, 5, 8, 3, 5, 8, 3, 5]  # heavy overlap on purpose
    payloads = [None] * len(centers)

    def call(i: int) -> None:
        c = ServiceClient(port=service.port, caller=f"caller-{i % 4}")
        payloads[i] = c.query(
            {"kind": "khop", "node": centers[i], "time": t_end, "k": 2}
        )

    threads = [
        threading.Thread(target=call, args=(i,))
        for i in range(len(centers))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    sizes = {p["service"]["batch_size"] for p in payloads}
    shared = sum(p.get("coalesce", {}).get("hits", 0) for p in payloads)
    fair_total = sum(p["deltas_fetched"] for p in payloads)
    print(f"{len(centers)} concurrent callers -> batch sizes {sorted(sizes)}, "
          f"{shared} coalesced key hits")
    print(f"fair per-request shares sum to {fair_total:.2f} store requests "
          f"(vs {len(centers)}x a lone query without batching)\n")

    # --- rate limiting ------------------------------------------------------
    greedy = ServiceClient(port=service.port, caller="greedy")
    sent = 0
    try:
        for _ in range(10):
            greedy.query({"kind": "snapshot", "time": t_end // 2})
            sent += 1
    except RateLimited as exc:
        print(f"greedy caller rate-limited after {sent} queries "
              f"(retry after {exc.retry_after:.2f}s)\n")

    # --- operations view ----------------------------------------------------
    metrics = client.metrics()
    print(f"health: {client.healthz()['status']}")
    print(f"served {metrics['requests']['total']} requests in "
          f"{metrics['batches']['count']} batches "
          f"(mean size {metrics['batches']['mean_size']})")
    print(f"per-caller store requests: "
          f"{metrics['store']['requests_by_caller']}")
    print(f"service p50 latency: "
          f"{metrics['latency']['service_ms']['p50_ms']}ms")

    # --- graceful drain -----------------------------------------------------
    service.service.begin_drain()
    try:
        client.query({"kind": "snapshot", "time": t_end // 2})
    except Draining as exc:
        print(f"\nafter drain begins: {exc.http_status} {exc.code} "
              f"(retryable={exc.retryable})")
    service.stop()
    print("service drained and stopped cleanly")


if __name__ == "__main__":
    main()
