"""The Temporal Graph Index (paper Sec. 4)."""

from repro.index.tgi.config import PartitioningStrategy, TGIConfig
from repro.index.tgi.costs import WorkloadShape, storage_sizes, table1, tree_height
from repro.index.tgi.index import TGI
from repro.index.tgi.planner import TGIPlanner, price_plan
from repro.index.tgi.layout import TimespanInfo, delta_key, version_chain_key
from repro.index.tgi.version_chain import VersionChainStore

__all__ = [
    "TGI",
    "TGIConfig",
    "TGIPlanner",
    "price_plan",
    "PartitioningStrategy",
    "TimespanInfo",
    "delta_key",
    "version_chain_key",
    "VersionChainStore",
    "WorkloadShape",
    "table1",
    "storage_sizes",
    "tree_height",
]
