"""Citation-network workload (Dataset 1 analogue).

The paper's primary dataset is the Wikipedia citation network: a growing
graph driven almost entirely by edge-addition events (266.7M of them).  We
generate a scaled-down stream with the same shape: nodes arrive over time
and cite earlier nodes with preferential attachment, so the degree
distribution is heavy-tailed and the graph only grows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.graph.events import Event, EventBuilder
from repro.types import TimePoint


@dataclass(frozen=True)
class CitationConfig:
    """Shape of the generated citation stream.

    Attributes:
        num_nodes: articles created.
        citations_per_node: average out-citations per new article.
        seed: RNG seed (the stream is deterministic given the seed).
        start_time: time of the first event; each arrival advances time
            by one tick, giving a dense integer timeline.
    """

    num_nodes: int = 1000
    citations_per_node: int = 4
    seed: int = 42
    start_time: TimePoint = 1


def generate_citation_events(config: CitationConfig) -> List[Event]:
    """Generate the event stream: a ``NODE_ADD`` per article followed by
    preferential-attachment ``EDGE_ADD`` citations to earlier articles."""
    rng = random.Random(config.seed)
    eb = EventBuilder()
    events: List[Event] = []
    t = config.start_time
    # repeated-endpoints list for O(1) preferential sampling
    endpoint_pool: List[int] = []
    existing_edges = set()
    for node in range(config.num_nodes):
        events.append(eb.node_add(t, node, {"year": t}))
        endpoint_pool.append(node)
        t += 1
        if node == 0:
            continue
        cites = min(node, max(1, int(rng.expovariate(
            1.0 / config.citations_per_node)) or 1))
        targets = set()
        for _ in range(cites):
            target = endpoint_pool[rng.randrange(len(endpoint_pool))]
            if target == node or (node, target) in existing_edges:
                continue
            targets.add(target)
        for target in sorted(targets):
            events.append(eb.edge_add(t, node, target))
            existing_edges.add((node, target))
            existing_edges.add((target, node))
            endpoint_pool.append(target)
            endpoint_pool.append(node)
            t += 1
    return events
