"""Persistence for historical graph indexes.

The paper's store is durable by virtue of Cassandra; the in-process
reproduction offers explicit save/load instead, so a built index (the
expensive part) can be reused across sessions and shipped with benchmark
results.

Format: a fixed header — magic, format version, CRC32 of the payload —
followed by the pickled index.  Loading verifies all three before any
byte reaches ``pickle``, so a damaged or foreign file fails typed
(:class:`PersistenceError`) instead of unpickling into something else.
Pickle is appropriate for the payload for the same reason it was in the
paper's prototype ("using Pickle ... for serialization"): the library
writes and reads its own files.  The checksum detects damage, not
tampering: do not load index files from untrusted sources.
"""

from __future__ import annotations

import os
import pickle
import re
import struct
import threading
import zlib
from pathlib import Path
from typing import Union

from repro.errors import HGSError
from repro.index.interface import HistoricalGraphIndex

_MAGIC = b"hgs-index"
# Older files raise PersistenceError on load; what each version added:
# 2: fetch-plan executor / delta-cache attributes on indexes (repro.exec)
# 3: TGIConfig.pipeline
# 4: TGIConfig.checkpoint_entries, TGI.checkpoints
# 5: TGI.stats (GraphStatistics: planning, pricing, near-seed decisions)
# 6: columnar eventlist rows (tags C/c), TGIConfig.apply_workers
# 7: TGIConfig.coalesce
# 8: ClusterConfig.checksums, CRC32 row envelope (tag K)
# 9: packed micro-delta rows (tags D/d); Delta pickles as node/edge maps
# 10: TGIConfig loses apply_workers / pipeline / coalesce
# 11: TGIConfig loses its cache byte bound, checkpoint admission policy
#     and stats bucket count; ClusterConfig its per-round key limit
# 12: checksummed binary header ahead of the pickled index (below), not
#     an envelope dict pickled around it; indexes no longer carry the
#     stats of the last query run on them
# 13: under ``replicate_boundary`` an auxiliary micro holds every
#     attributed edge touching a boundary node, not only those inside
#     the partition's scope (older replicated rows replay inexactly)
# 14: version-chain rows are flat int tuples (six ints per pointer), not
#     tuples of VersionPointer objects; decoded micro-delta rows carry
#     their packed node columns until a read needs them
# 15: eventlist and delta rows are always packed (tags C/c, D/d; rows
#     with non-int ids carry an id table), never pickled eventlist /
#     Delta objects; ClusterConfig loses codec
# 16: TGI loses its learned k-hop frontier margins and the lock that
#     guarded them; reading an index no longer changes its saved file
# 17: TGI carries no reader state: no delta cache (its rows and
#     counters), no checkpoint cache (its counters) and no executor; a
#     loaded index builds empty ones from its config
_FORMAT_VERSION = 17
#: magic, format version, CRC32 of everything after the header
_HEADER = struct.Struct(">9sII")
# formats <= 11 were one pickle stream of an envelope dict whose head
# names the format; recognized (never unpickled) to say which it was
_LEGACY_FORMAT = re.compile(rb"hgs-index\x94\x8c\x06format\x94K(.)", re.S)
# CRC read size on load: below glibc's mmap threshold, so checking a file
# leaves the allocator as it found it (1 MiB reads cost `hgs serve`
# ~1 MiB of peak RSS for the life of the process)
_CHUNK = 1 << 16


class PersistenceError(HGSError):
    """Raised on malformed or incompatible index files."""


class _ChecksummingWriter:
    """The ``write`` side of a file, CRC32-ing what passes through — so
    saving checksums the stream without holding a second copy of it."""

    def __init__(self, f) -> None:
        self._f = f
        self.crc = 0

    def write(self, data) -> int:
        self.crc = zlib.crc32(data, self.crc)
        return self._f.write(data)


def save_index(index: HistoricalGraphIndex, path: Union[str, Path]) -> None:
    """Serialize a built index (any of the six families) to ``path``.

    Crash-safe: the stream goes to a temp file beside ``path``, is
    flushed and fsynced, and only then renamed over it, so a failure
    part-way leaves whatever was at ``path`` untouched and no temp file
    behind."""
    path = Path(path)
    # one temp name per concurrent writer, in the target's directory
    # (``os.replace`` is atomic only within a file system)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        with tmp.open("wb") as f:
            # the checksum is known only once the payload has streamed
            # past: reserve the header, then come back and fill it in
            f.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, 0))
            payload = _ChecksummingWriter(f)
            pickle.dump(index, payload, protocol=pickle.HIGHEST_PROTOCOL)
            f.seek(0)
            f.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, payload.crc))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _unsupported(version: int) -> PersistenceError:
    return PersistenceError(
        f"unsupported index format {version!r} "
        f"(this build reads version {_FORMAT_VERSION})"
    )


def load_index(path: Union[str, Path]) -> HistoricalGraphIndex:
    """Load an index previously written by :func:`save_index`."""
    path = Path(path)
    try:
        with path.open("rb") as f:
            head = f.read(_HEADER.size)
            if not head.startswith(_MAGIC):
                legacy = _LEGACY_FORMAT.search(head + f.read(64))
                if legacy is None:
                    raise PersistenceError(f"{path} is not an HGS index file")
                raise _unsupported(legacy.group(1)[0])
            _magic, version, expected = _HEADER.unpack(head)
            if version != _FORMAT_VERSION:
                raise _unsupported(version)
            crc = 0
            while chunk := f.read(_CHUNK):
                crc = zlib.crc32(chunk, crc)
            if crc != expected:
                raise PersistenceError(
                    f"{path} is corrupt or truncated (checksum mismatch)"
                )
            f.seek(_HEADER.size)
            index = pickle.load(f)
    except (OSError, struct.error, pickle.UnpicklingError, EOFError) as exc:
        raise PersistenceError(f"cannot read index file {path}: {exc}") from exc
    if not isinstance(index, HistoricalGraphIndex):
        raise PersistenceError(f"{path} does not contain an index")
    return index
