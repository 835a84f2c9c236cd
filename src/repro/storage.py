"""Persistence for historical graph indexes.

The paper's store is durable by virtue of Cassandra; the in-process
reproduction offers explicit save/load instead, so a built index (the
expensive part) can be reused across sessions and shipped with benchmark
results.

Format: a single pickle stream with a versioned envelope.  Pickle is
appropriate here for the same reason it was in the paper's prototype
("using Pickle ... for serialization"): the library writes and reads its
own files.  Do not load index files from untrusted sources.
"""

from __future__ import annotations

import os
import pickle
import threading
from pathlib import Path
from typing import Union

from repro.errors import HGSError
from repro.index.interface import HistoricalGraphIndex

_MAGIC = "hgs-index"
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
_FORMAT_VERSION = 11


class PersistenceError(HGSError):
    """Raised on malformed or incompatible index files."""


def save_index(index: HistoricalGraphIndex, path: Union[str, Path]) -> None:
    """Serialize a built index (any of the six families) to ``path``.

    Crash-safe: the stream goes to a temp file beside ``path``, is
    flushed and fsynced, and only then renamed over it, so a failure
    part-way leaves whatever was at ``path`` untouched and no temp file
    behind."""
    envelope = {
        "magic": _MAGIC,
        "format": _FORMAT_VERSION,
        "class": type(index).__name__,
        "index": index,
    }
    path = Path(path)
    # one temp name per concurrent writer, in the target's directory
    # (``os.replace`` is atomic only within a file system)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        with tmp.open("wb") as f:
            pickle.dump(envelope, f, protocol=pickle.HIGHEST_PROTOCOL)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_index(path: Union[str, Path]) -> HistoricalGraphIndex:
    """Load an index previously written by :func:`save_index`."""
    path = Path(path)
    try:
        with path.open("rb") as f:
            envelope = pickle.load(f)
    except (OSError, pickle.UnpicklingError, EOFError) as exc:
        raise PersistenceError(f"cannot read index file {path}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("magic") != _MAGIC:
        raise PersistenceError(f"{path} is not an HGS index file")
    if envelope.get("format") != _FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported index format {envelope.get('format')!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    index = envelope.get("index")
    if not isinstance(index, HistoricalGraphIndex):
        raise PersistenceError(f"{path} does not contain an index")
    return index
