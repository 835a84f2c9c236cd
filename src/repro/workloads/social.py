"""Dynamic social-network workload with communities and attribute churn.

Used by the TAF examples and tests: nodes carry a ``community`` attribute
that can change over time, edges appear with intra-community bias and can
disappear, and an ``activity`` attribute fluctuates — giving all eight
event kinds a realistic presence (unlike the growth-only citation trace).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.graph.events import Event, EventBuilder
from repro.types import NodeId, canonical_edge


@dataclass(frozen=True)
class SocialConfig:
    """Shape of the generated dynamic social network.

    Attributes:
        num_nodes: people joining over the first phase.
        num_steps: churn steps after the join phase (one event per step).
        communities: community labels (node attribute ``community``).
        edge_probability: share of churn steps creating an edge.
        delete_probability: share of churn steps deleting an edge.
        relabel_probability: share of churn steps switching a node's
            community (the remainder update the ``activity`` attribute).
        intra_community_bias: probability a new edge is intra-community.
        seed: RNG seed.
    """

    num_nodes: int = 200
    num_steps: int = 2000
    communities: Tuple[str, ...] = ("A", "B", "C")
    edge_probability: float = 0.55
    delete_probability: float = 0.15
    relabel_probability: float = 0.10
    intra_community_bias: float = 0.8
    seed: int = 5


def generate_social_events(config: SocialConfig) -> List[Event]:
    """Join phase (node adds) followed by churn (edges, deletions,
    community switches, activity updates)."""
    rng = random.Random(config.seed)
    eb = EventBuilder()
    events: List[Event] = []
    t = 0
    community: dict = {}
    for n in range(config.num_nodes):
        t += 1
        label = rng.choice(config.communities)
        community[n] = label
        events.append(eb.node_add(t, n, {"community": label, "activity": 0}))
    nodes = list(range(config.num_nodes))
    edges: Set[Tuple[NodeId, NodeId]] = set()
    activity = {n: 0 for n in nodes}
    for _ in range(config.num_steps):
        t += 1
        roll = rng.random()
        if roll < config.edge_probability:
            u = rng.choice(nodes)
            peers = [
                m for m in nodes if m != u and (
                    community[m] == community[u]
                    if rng.random() < config.intra_community_bias
                    else True
                )
            ]
            if not peers:
                continue
            v = rng.choice(peers)
            eid = canonical_edge(u, v)
            if eid in edges:
                continue
            edges.add(eid)
            events.append(eb.edge_add(t, *eid, {"since": t}))
        elif roll < config.edge_probability + config.delete_probability:
            if not edges:
                continue
            eid = rng.choice(sorted(edges))
            edges.discard(eid)
            events.append(eb.edge_delete(t, *eid))
        elif roll < (
            config.edge_probability
            + config.delete_probability
            + config.relabel_probability
        ):
            n = rng.choice(nodes)
            old = community[n]
            new = rng.choice([c for c in config.communities if c != old])
            community[n] = new
            events.append(eb.node_attr_set(t, n, "community", new, old=old))
        else:
            n = rng.choice(nodes)
            old = activity[n]
            activity[n] = old + rng.randint(1, 3)
            events.append(eb.node_attr_set(t, n, "activity", activity[n], old=old))
    return events
