"""Exception hierarchy for the Historical Graph Store.

All library errors derive from :class:`HGSError` so callers can catch a
single base class at API boundaries.
"""

from __future__ import annotations


class HGSError(Exception):
    """Base class for all Historical Graph Store errors."""


class GraphError(HGSError):
    """Structural violation in an in-memory graph (e.g. edge to a missing node)."""


class EventError(HGSError):
    """Malformed or inapplicable change event."""


class DeltaError(HGSError):
    """Invalid delta algebra operation."""


class StorageError(HGSError):
    """Key-value store failure (missing key, node down, bad placement)."""


class KeyNotFound(StorageError):
    """Requested key does not exist on any replica."""


class CorruptPayload(StorageError):
    """A stored payload failed its integrity checksum on decode."""


class PartitionUnavailable(StorageError):
    """Keys stayed unavailable after the fetch's last attempt (one without
    a resilience policy, else the policy's retries and reroutes), or a
    degraded-ineligible query needed rows that a degraded fetch had
    dropped.

    ``partitions`` carries human-readable partition labels,
    ``keys`` the affected store keys (possibly empty when raised at
    finalize time from labels alone).
    """

    def __init__(self, message: str, partitions=(), keys=()) -> None:
        super().__init__(message)
        self.partitions = tuple(partitions)
        self.keys = tuple(keys)


class IndexError_(HGSError):
    """Historical-graph-index construction or retrieval failure.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError``.
    """


class TimeRangeError(IndexError_):
    """Query time lies outside the indexed history."""


class PartitioningError(HGSError):
    """Graph partitioner could not satisfy its constraints."""


class QueryError(HGSError):
    """Malformed TAF query or predicate expression."""


class AnalyticsError(HGSError):
    """Failure while executing a TAF operator."""
