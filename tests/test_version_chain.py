"""Tests for the version-chain row layout: flat int tuples, six ints per
pointer, sorted by ``(t_min, t_max)`` — the same tuple in memory and in
the store (a pickled row)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.index.tgi.layout import TAG_EVENTLIST, delta_key, version_chain_key
from repro.index.tgi.version_chain import (
    ENTRY_WIDTH,
    VersionChainStore,
    pointers_in_range,
)
from repro.kvstore.cluster import Cluster, ClusterConfig

#: a small pool of eventlist keys, so chains repeat keys
KEYS = [
    delta_key(tsid, sid, TAG_EVENTLIST, j, pid)
    for tsid, sid, j, pid in [
        (0, 0, 0, 1), (0, 1, 0, 2), (0, 0, 1, 1), (1, 3, 4, 1), (2, 2, 9, 7),
    ]
]
TIMES = st.integers(0, 30)


@st.composite
def pointers(draw):
    """``(t_min, t_max, key)`` entries, in record order."""
    out = []
    for _ in range(draw(st.integers(1, 12))):
        lo, hi = sorted((draw(TIMES), draw(TIMES)))
        out.append((lo, hi, draw(st.sampled_from(KEYS))))
    return out


def reference(entries, ts, te):
    """The delta keys of the entries overlapping ``(ts, te]``, first
    occurrence first, over the store's (stable) ``(t_min, t_max)`` order."""
    keys = []
    for t_min, t_max, key in sorted(entries, key=lambda e: (e[0], e[1])):
        if t_max > ts and t_min <= te and key not in keys:
            keys.append(key)
    return keys


def stored_chain(entries, **cluster):
    """Record ``entries`` for one node, flush, and read the row back."""
    store = VersionChainStore(Cluster(ClusterConfig(**cluster)), 4)
    for t_min, t_max, key in entries:
        store.record(5, t_min, t_max, key)
    store.flush()
    return store, store._cluster.get(version_chain_key(5, 4))


@given(entries=pointers(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_pointers_in_range_matches_reference_filter(entries, data):
    store, row = stored_chain(entries)
    assert row == store.chain(5) and type(row) is tuple
    assert len(row) == ENTRY_WIDTH * len(entries)
    # windows on the entries' own boundaries: t_max == ts excludes an
    # entry, t_min == te includes it
    bounds = [t for e in entries for t in e[:2]] or [0]
    ts = data.draw(st.one_of(TIMES, st.sampled_from(bounds)))
    te = data.draw(st.one_of(TIMES, st.sampled_from(bounds)))
    assert pointers_in_range(row, ts, te) == reference(entries, ts, te)


def test_window_boundaries():
    key_a, key_b = KEYS[0], KEYS[1]
    _, row = stored_chain([(5, 10, key_a), (10, 20, key_b), (12, 12, key_a)])
    assert pointers_in_range(row, 10, 11) == [key_b]  # t_max == ts is out
    assert pointers_in_range(row, 0, 5) == [key_a]  # t_min == te is in
    assert pointers_in_range(row, 0, 4) == []
    assert pointers_in_range(row, 9, 12) == [key_a, key_b]  # deduplicated
    assert pointers_in_range((), 0, 100) == []


@pytest.mark.parametrize("checksums", [False, True])
@pytest.mark.parametrize("compress", [False, True])
def test_chain_rows_round_trip(checksums, compress):
    entries = [(3, 9, KEYS[2]), (1, 4, KEYS[0]), (1, 2, KEYS[3])]
    store, row = stored_chain(
        entries, checksums=checksums, compress=compress
    )
    assert row == (
        1, 2, 1, 3, 4, 1,
        1, 4, 0, 0, 0, 1,
        3, 9, 0, 0, 1, 1,
    )
    assert row == store.chain(5)
    assert all(type(x) is int for x in row)


def test_flush_merges_new_pointers_and_reports_changed_rows():
    store = VersionChainStore(Cluster(ClusterConfig()), 4)
    store.record(1, 5, 6, KEYS[0])
    store.record(2, 1, 1, KEYS[1])
    assert store.chain(1) == () and not store.has_chain(1)
    assert set(store.flush()) == {version_chain_key(n, 4) for n in (1, 2)}
    assert store.flush() == []  # nothing new: nothing rewritten
    store.record(1, 2, 3, KEYS[3])
    assert store.flush() == [version_chain_key(1, 4)]
    assert store.chain(1) == (2, 3, 1, 3, 4, 1, 5, 6, 0, 0, 0, 1)
    assert store._cluster.get(version_chain_key(1, 4)) == store.chain(1)
