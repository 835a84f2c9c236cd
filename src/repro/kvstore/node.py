"""A single simulated storage machine.

Each machine keeps its rows in clustering-key order (like a Cassandra
SSTable): rows sharing a placement key are sorted by the remainder of the
composite key, so reading consecutive clustering keys is a contiguous scan.
The machine tracks insertion order per placement key to answer "is this
request contiguous with the previous one?" for the cost model.

What the cost model reads of a row is kept once, beside the row, in a
*card table*: ``key -> (rank, stored_size, raw_size, compressed)``, the
row's position in clustering order and its sizes.  Routing and pricing
read cards only, never the payload, so costing a plan touches no
:class:`~repro.kvstore.codec.EncodedValue`.  The table is built on the
first read after a write that moved ranks (a new key or a delete), an
overwrite refreshes the one card, and it is never persisted.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import KeyNotFound
from repro.kvstore.codec import EncodedValue

KeyTuple = Tuple
#: ``(rank, stored_size, raw_size, compressed)`` of one row.
Card = Tuple[int, int, int, bool]


class StorageNode:
    """One storage machine holding rows sorted by composite key."""

    #: key -> :data:`Card`: dropped by a put/delete that changes the key
    #: set (every later rank shifts), rebuilt by the next :meth:`cards`
    #: (reads vastly outnumber writes).  Derived, so never persisted.
    _cards: Optional[Dict[KeyTuple, Card]] = None

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._keys: List[KeyTuple] = []  # sorted
        self._rows: Dict[KeyTuple, EncodedValue] = {}

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_cards", None)
        return state

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: KeyTuple) -> bool:
        return key in self._rows

    def put(self, key: KeyTuple, value: EncodedValue) -> None:
        cards = self._cards
        if key not in self._rows:
            bisect.insort(self._keys, key)
            self._cards = None
        elif cards is not None:
            cards[key] = (
                cards[key][0], value.stored_size, value.raw_size,
                value.compressed,
            )
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
            self._cards = None

    def items(self) -> Iterator[Tuple[KeyTuple, EncodedValue]]:
        """All rows in clustering-key order (used by introspection and
        the build-time apply-cost calibration)."""
        for key in self._keys:
            yield key, self._rows[key]

    def cards(self) -> Dict[KeyTuple, Card]:
        """Every row's :data:`Card`, keyed by row key (built on demand)."""
        cards = self._cards
        if cards is None:
            rows = self._rows
            cards = {}
            for rank, key in enumerate(self._keys):
                value = rows[key]
                cards[key] = (
                    rank, value.stored_size, value.raw_size, value.compressed
                )
            self._cards = cards  # published whole: readers share it
        return cards

    def rank(self, key: KeyTuple) -> int:
        """Position of ``key`` in the node's sorted order (for contiguity
        checks by the cost model)."""
        try:
            return self.cards()[key][0]
        except KeyError:
            raise KeyNotFound(f"key {key!r} not on node {self.node_id}") from None

    @property
    def stored_bytes(self) -> int:
        return sum(v.stored_size for v in self._rows.values())
