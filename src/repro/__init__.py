"""Historical Graph Store (HGS).

A complete reproduction of *"Storing and Analyzing Historical Graph Data at
Scale"* (Khurana & Deshpande, EDBT 2016): the Temporal Graph Index (TGI),
the baseline temporal indexes it generalizes, and the Temporal Graph
Analysis Framework (TAF).

Quickstart::

    from repro import GraphSession, TGI, TGIConfig, EventBuilder

    eb = EventBuilder()
    events = [eb.node_add(1, 0), eb.node_add(1, 1), eb.edge_add(2, 0, 1)]
    index = TGI(TGIConfig(events_per_timespan=100, eventlist_size=10,
                          micro_partition_size=10))
    index.build(events)

    session = GraphSession(index)       # the unified query facade
    g = session.at(2).snapshot().value

For stored indexes, ``open_graph(path)`` loads and wires everything —
including the process-wide cache shared between sessions over the same
file.  A session runs every query one way — compile to a fetch plan,
execute, finalize; a single query is the batch of one — and returns the
stats with the result.  Called directly, every index family's
``retrieve_*`` (and ``TGIHandler.retrieve_*``) returns ``(value, stats)``
and ``get_*`` / ``fetch_*`` return the value alone.
"""

from repro.graph.events import Event, EventBuilder, EventKind
from repro.graph.static import Graph
from repro.graph.metrics import GraphMetrics, NodeMetrics
from repro.deltas.base import Delta, StaticEdge, StaticNode
from repro.index.interface import (
    HistoricalGraphIndex,
    NeighborhoodHistory,
    NodeHistory,
)
from repro.index.log import LogIndex
from repro.index.copy import CopyIndex
from repro.index.copylog import CopyLogIndex
from repro.index.nodecentric import NodeCentricIndex
from repro.index.deltagraph import DeltaGraphIndex
from repro.index.tgi import TGI, TGIConfig, PartitioningStrategy
from repro.io import read_events, write_events
from repro.storage import load_index, save_index
from repro.kvstore.cluster import Cluster, ClusterConfig
from repro.kvstore.cost import CostModel, FetchStats
from repro.api import QueryRequest, QueryResult, QueryStats
from repro.session import GraphSession, open_graph
from repro.stats import ApplyCalibration, GraphStatistics

__version__ = "1.1.0"

__all__ = [
    "Event",
    "EventBuilder",
    "EventKind",
    "Graph",
    "GraphMetrics",
    "NodeMetrics",
    "Delta",
    "StaticNode",
    "StaticEdge",
    "HistoricalGraphIndex",
    "NodeHistory",
    "NeighborhoodHistory",
    "LogIndex",
    "CopyIndex",
    "CopyLogIndex",
    "NodeCentricIndex",
    "DeltaGraphIndex",
    "TGI",
    "TGIConfig",
    "PartitioningStrategy",
    "read_events",
    "write_events",
    "save_index",
    "load_index",
    "Cluster",
    "ClusterConfig",
    "CostModel",
    "FetchStats",
    "GraphSession",
    "open_graph",
    "ApplyCalibration",
    "GraphStatistics",
    "QueryRequest",
    "QueryResult",
    "QueryStats",
]
