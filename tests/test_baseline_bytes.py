"""Pinned stored bytes of the baseline index families (Log, Copy+Log,
DeltaGraph): each one's rows, over one seeded int-id history, hash to a
fixed sha256.  A change to how their eventlist or snapshot rows are
written must keep every byte, or change these values on purpose."""

import hashlib
from dataclasses import replace

import pytest

from repro.index.copylog import CopyLogIndex
from repro.index.deltagraph import DeltaGraphIndex
from repro.index.log import LogIndex
from repro.kvstore.cluster import ClusterConfig
from tests.helpers import random_history


def history():
    """Attribute and edge-attribute churn, bare edges, and up to three
    events per time point, so a split keeps a time point in one row."""
    events = random_history(
        steps=600, seed=21, edge_attr_churn=True, bare_edges=True
    )
    return [replace(ev, time=(ev.time + 2) // 3) for ev in events]


def payload_digest(index) -> str:
    h = hashlib.sha256()
    payloads = sorted(
        v.payload for m in index.cluster.machines for _k, v in m.items()
    )
    for payload in payloads:
        h.update(len(payload).to_bytes(8, "big"))
        h.update(payload)
    return h.hexdigest()


CLUSTER = ClusterConfig(num_machines=3, replication=2)


@pytest.mark.parametrize("make, rows, sha", [
    (lambda: LogIndex(CLUSTER, eventlist_size=40),
     32, "234c108d12b522064de89fc73da0205fe411cdbb"
     "e4059378316935d985b12478"),
    (lambda: CopyLogIndex(CLUSTER, eventlist_size=40, lists_per_checkpoint=3),
     44, "4e9ab84b80fcda3288c323f19641a0736e5a0daf"
     "9bb8e6c18ee11f8968703590"),
    (lambda: DeltaGraphIndex(CLUSTER, eventlist_size=40, arity=2),
     106, "e3b3f595a9c475dc195db3afc527612e90709367"
     "61ddf808666ee7010babe636"),
], ids=["log", "copylog", "deltagraph"])
def test_baseline_rows_are_pinned(make, rows, sha):
    index = make()
    index.build(history())
    stored = sum(len(list(m.items())) for m in index.cluster.machines)
    assert (stored, payload_digest(index)) == (rows, sha)
