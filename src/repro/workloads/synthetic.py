"""Synthetic augmentation workload (Datasets 2 and 3 analogues).

The paper builds Datasets 2 and 3 by appending ~333M / ~733M synthetic
events to the Wikipedia trace: events that "randomly add new edges or
delete existing edges over a period of time".  :func:`augment_with_churn`
does the same against any base stream.
"""

from __future__ import annotations

import random
from typing import List, Set, Tuple

from repro.graph.events import Event, EventBuilder
from repro.graph.static import Graph
from repro.types import NodeId, canonical_edge


def augment_with_churn(
    base_events: List[Event],
    num_events: int,
    seed: int = 7,
    add_fraction: float = 0.5,
) -> List[Event]:
    """Append ``num_events`` of random edge churn after ``base_events``.

    Additions pick random non-adjacent node pairs; deletions pick random
    existing edges.  The returned stream is the base stream plus the
    augmentation, chronologically sorted and sequence-consistent.
    """
    if not base_events:
        raise ValueError("augmentation requires a non-empty base stream")
    rng = random.Random(seed)
    final = Graph.replay(base_events)
    nodes = sorted(final.nodes())
    edges: Set[Tuple[NodeId, NodeId]] = set(final.edges())
    eb = EventBuilder(start_seq=base_events[-1].seq + 1)
    t = base_events[-1].time
    out = list(base_events)
    for _ in range(num_events):
        t += 1
        do_add = rng.random() < add_fraction or not edges
        if do_add:
            u, v = rng.sample(nodes, 2)
            eid = canonical_edge(u, v)
            if eid in edges:
                # flip to a deletion of this existing edge instead of
                # silently skipping, keeping event counts exact
                out.append(eb.edge_delete(t, *eid))
                edges.discard(eid)
            else:
                out.append(eb.edge_add(t, u, v))
                edges.add(eid)
        else:
            eid = rng.choice(sorted(edges))
            out.append(eb.edge_delete(t, *eid))
            edges.discard(eid)
    return out
