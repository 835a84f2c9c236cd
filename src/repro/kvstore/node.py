"""A single simulated storage machine.

Each machine keeps its rows in clustering-key order (like a Cassandra
SSTable): rows sharing a placement key are sorted by the remainder of the
composite key, so reading consecutive clustering keys is a contiguous scan.
The machine tracks insertion order per placement key to answer "is this
request contiguous with the previous one?" for the cost model.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import KeyNotFound
from repro.kvstore.codec import EncodedValue

KeyTuple = Tuple


class StorageNode:
    """One storage machine holding rows sorted by composite key."""

    #: key -> position in ``_keys``: dropped by a put/delete that changes
    #: the key set, rebuilt by the next :meth:`rank` (reads vastly
    #: outnumber writes).  Derived, so never persisted.
    _ranks: Optional[Dict[KeyTuple, int]] = None

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._keys: List[KeyTuple] = []  # sorted
        self._rows: Dict[KeyTuple, EncodedValue] = {}

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_ranks", None)
        return state

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: KeyTuple) -> bool:
        return key in self._rows

    def put(self, key: KeyTuple, value: EncodedValue) -> None:
        if key not in self._rows:
            bisect.insort(self._keys, key)
            self._ranks = None
        self._rows[key] = value

    def get(self, key: KeyTuple) -> EncodedValue:
        try:
            return self._rows[key]
        except KeyError:
            raise KeyNotFound(f"key {key!r} not on node {self.node_id}") from None

    def delete(self, key: KeyTuple) -> None:
        if key in self._rows:
            del self._rows[key]
            idx = bisect.bisect_left(self._keys, key)
            if idx < len(self._keys) and self._keys[idx] == key:
                del self._keys[idx]
            self._ranks = None

    def scan_prefix(self, prefix: KeyTuple) -> Iterator[Tuple[KeyTuple, EncodedValue]]:
        """Yield rows whose key starts with ``prefix``, in key order."""
        lo = bisect.bisect_left(self._keys, prefix)
        n = len(prefix)
        for i in range(lo, len(self._keys)):
            key = self._keys[i]
            if key[:n] != prefix:
                break
            yield key, self._rows[key]

    def items(self) -> Iterator[Tuple[KeyTuple, EncodedValue]]:
        """All rows in clustering-key order (used by introspection and
        the build-time apply-cost calibration)."""
        for key in self._keys:
            yield key, self._rows[key]

    def rank(self, key: KeyTuple) -> int:
        """Position of ``key`` in the node's sorted order (for contiguity
        checks by the cost model)."""
        ranks = self._ranks
        if ranks is None:
            ranks = self._ranks = {k: i for i, k in enumerate(self._keys)}
        try:
            return ranks[key]
        except KeyError:
            raise KeyNotFound(f"key {key!r} not on node {self.node_id}") from None

    @property
    def stored_bytes(self) -> int:
        return sum(v.stored_size for v in self._rows.values())

    @property
    def raw_bytes(self) -> int:
        return sum(v.raw_size for v in self._rows.values())
