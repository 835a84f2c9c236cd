"""Serialization of deltas and eventlists to bytes.

The paper's prototype serialized deltas with Python's Pickle before writing
them to Cassandra; we do the same by default (the library controls both
ends, so pickle's trust model is acceptable here) and optionally compress
with zlib — Fig. 13a of the paper evaluates compressed vs. uncompressed
delta storage.

The ``columnar`` codec additionally stores the two bulky row kinds in
the packed layouts of :mod:`repro.deltas.columnar`, each under its own
self-describing tag pair (raw / zlib):

===== ================== ===============================================
tags  value              decodes to
===== ================== ===============================================
R / Z anything           ``pickle.loads`` of the stream
C / c eventlist          lazy zero-copy :class:`ColumnarEventList` view —
                         no ``Event`` object is unpickled
D / d micro-delta        :class:`Delta` over the row's packed node
                         columns (node ids, CSR offsets + neighbours at
                         int32 or int64, pickled side-table for
                         attributes and explicit edges) — edge lists are
                         sliced out only when a read asks for them
K     any of the above   CRC32 envelope around one tagged payload
===== ================== ===============================================

Only values whose fields fit a packed layout use it; everything else
(eventlists or deltas with non-``int`` or beyond-int64 ids, and every
other value) falls back to pickle, so a store freely holds a mix of
tags.  Version chains always pickle: a chain row is already one flat
tuple of ints (:mod:`repro.index.tgi.version_chain`), the same under
either codec.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import Any

from repro.deltas.base import Delta
from repro.deltas.columnar import (
    ColumnarEventList,
    pack_delta,
    pack_eventlist,
    unpack_delta,
)
from repro.deltas.eventlist import EventList
from repro.errors import CorruptPayload

#: Magic prefixes distinguish the stored forms so a store can hold a mix
#: (e.g. after changing the config between builds): raw / zlib pickle,
#: raw / zlib columnar eventlist, raw / zlib packed micro-delta,
#: checksummed wrapper.
_RAW = b"R"
_ZIP = b"Z"
_COL = b"C"
_COLZ = b"c"
_DEL = b"D"
_DELZ = b"d"
#: Checksummed wrapper: ``K`` + 4-byte big-endian CRC32 of the inner
#: payload + the inner payload (itself a normal tagged value).  Lets a
#: store detect bit-rot / corrupted reads (``ClusterConfig.checksums``)
#: at a 5-byte-per-row cost, raised as :class:`CorruptPayload`.
_CRC = b"K"

#: Codec names accepted by :func:`encode` / ``ClusterConfig.codec``.
CODECS = ("pickle", "columnar")


@dataclass(frozen=True)
class EncodedValue:
    """A serialized payload plus the sizes the cost model needs."""

    payload: bytes
    raw_size: int
    stored_size: int
    compressed: bool


def encode(
    obj: Any,
    compress: bool = False,
    level: int = 6,
    codec: str = "pickle",
    checksum: bool = False,
) -> EncodedValue:
    """Serialize ``obj``; optionally zlib-compress the stream.

    With ``codec="columnar"``, eventlists and deltas that fit their
    packed layouts are stored as parallel arrays; all other values
    pickle as before.  With
    ``checksum=True`` the tagged payload is wrapped in a CRC32 envelope
    (tag ``K``) that :func:`decode` verifies, raising
    :class:`CorruptPayload` on mismatch.
    """
    if codec not in CODECS:
        raise ValueError(f"unknown codec {codec!r} (expected one of {CODECS})")
    encoded = None
    if codec == "columnar":
        body, tags = None, (_COL, _COLZ)
        if isinstance(obj, ColumnarEventList):
            body = obj.packed_bytes()  # re-store a decoded row verbatim
        elif isinstance(obj, EventList):
            body = pack_eventlist(obj.ts, obj.te, obj.events)
        elif isinstance(obj, Delta):
            body, tags = pack_delta(obj), (_DEL, _DELZ)
        if body is not None:
            if compress:
                packed = tags[1] + zlib.compress(body, level)
                encoded = EncodedValue(packed, len(body), len(packed), True)
            else:
                packed = tags[0] + body
                encoded = EncodedValue(packed, len(body), len(packed), False)
    if encoded is None:
        raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        if compress:
            packed = _ZIP + zlib.compress(raw, level)
            encoded = EncodedValue(packed, len(raw), len(packed), True)
        else:
            packed = _RAW + raw
            encoded = EncodedValue(packed, len(raw), len(packed), False)
    if not checksum:
        return encoded
    inner = encoded.payload
    wrapped = _CRC + (zlib.crc32(inner) & 0xFFFFFFFF).to_bytes(4, "big") + inner
    return EncodedValue(
        wrapped, encoded.raw_size, len(wrapped), encoded.compressed
    )


def decode(payload: bytes) -> Any:
    """Inverse of :func:`encode`.

    Columnar eventlist payloads decode to a lazy
    :class:`ColumnarEventList` wrapping the payload's buffer — zero-copy
    for the uncompressed tag; packed micro-deltas to a :class:`Delta`
    over the row's packed node columns.
    """
    if not payload:
        raise ValueError(
            "empty payload: a stored value always starts with a codec "
            "tag byte (R/Z pickle, C/c columnar eventlist, D/d packed "
            "micro-delta, K checksummed)"
        )
    tag = payload[:1]
    if tag == _CRC:
        if len(payload) < 5:
            raise CorruptPayload("truncated checksummed payload")
        inner = payload[5:]
        expect = int.from_bytes(payload[1:5], "big")
        if (zlib.crc32(inner) & 0xFFFFFFFF) != expect:
            raise CorruptPayload(
                "payload checksum mismatch: stored row corrupted in flight "
                "or at rest"
            )
        if inner[:1] == _CRC:
            raise CorruptPayload("nested checksum envelope")
        return decode(inner)
    if tag == _COL:
        # zero-copy: the view windows the payload bytes directly
        return ColumnarEventList(memoryview(payload)[1:])
    if tag == _COLZ:
        return ColumnarEventList(zlib.decompress(payload[1:]))
    if tag == _DEL:
        return unpack_delta(memoryview(payload)[1:])
    if tag == _DELZ:
        return unpack_delta(zlib.decompress(payload[1:]))
    body = payload[1:]
    if tag == _ZIP:
        body = zlib.decompress(body)
    elif tag != _RAW:
        raise ValueError(f"unknown payload tag {tag!r}")
    return pickle.loads(body)
