"""Serialization of stored rows to bytes.

The paper's prototype serialized deltas with Python's Pickle before writing
them to Cassandra.  Here each row kind has one stored form: the two bulky
kinds — eventlists and micro-deltas — are always stored in the packed
layouts of :mod:`repro.deltas.columnar`, and every other value (version
chains, node-centric rows, metadata) pickles (the library controls both
ends, so pickle's trust model is acceptable here).  Any row may be
zlib-compressed — Fig. 13a of the paper evaluates compressed vs.
uncompressed delta storage — and each form has its own self-describing
tag pair (raw / zlib):

===== ================== ===============================================
tags  value              decodes to
===== ================== ===============================================
R / Z anything else      ``pickle.loads`` of the stream
C / c eventlist          lazy zero-copy :class:`ColumnarEventList` view —
                         no ``Event`` object is unpickled
D / d micro-delta        :class:`Delta` over the row's packed node
                         columns (node ids, CSR offsets + neighbours at
                         int32 or int64, pickled side-table for
                         attributes and explicit edges) — edge lists are
                         sliced out only when a read asks for them
K     any of the above   CRC32 envelope around one tagged payload
===== ================== ===============================================

The packed layouts are total: a row with a non-``int`` or beyond-int64
id carries a pickled id table under the same tag (its layout version
byte says so), and decodes to the same types as an all-int row.  Version
chains pickle: a chain row is already one flat tuple of ints
(:mod:`repro.index.tgi.version_chain`).
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import Any

from repro.deltas.base import Delta
from repro.deltas.columnar import ColumnarEventList, pack_delta, unpack_delta
from repro.errors import CorruptPayload

#: Tag bytes name the stored form: raw / zlib pickle, raw / zlib
#: columnar eventlist, raw / zlib packed micro-delta, checksummed wrapper.
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
    checksum: bool = False,
) -> EncodedValue:
    """Serialize ``obj`` in its row kind's stored form; optionally
    zlib-compress the stream.

    An eventlist (a :class:`ColumnarEventList`, the one eventlist type)
    is stored as its packed payload, a delta packs into its layout, and
    all other values pickle.  With ``checksum=True`` the tagged payload
    is wrapped in a CRC32 envelope (tag ``K``) that :func:`decode`
    verifies, raising :class:`CorruptPayload` on mismatch.
    """
    if isinstance(obj, ColumnarEventList):
        body, tags = obj.packed_bytes(), (_COL, _COLZ)
    elif isinstance(obj, Delta):
        body, tags = pack_delta(obj), (_DEL, _DELZ)
    else:
        body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        tags = (_RAW, _ZIP)
    if compress:
        payload = tags[1] + zlib.compress(body, level)
    else:
        payload = tags[0] + body
    encoded = EncodedValue(payload, len(body), len(payload), compress)
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
