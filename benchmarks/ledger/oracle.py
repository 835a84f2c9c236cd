"""The event-log replay oracle.

Expected results come from rolling one plain :class:`~repro.Graph`
forward over the raw event log in time order and filtering events per
node — nothing from the index or the session is involved.  Both sides
are reduced to short digests (order-independent sums of tuple hashes
over integer ids, CRC32 of a canonical ``repr`` for states), so a pass
ships one string per op and passes can be compared with each other.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import Event, Graph, NodeHistory

_MASK = (1 << 64) - 1
Op = Dict[str, Any]


# ----------------------------------------------------------------------
# digests (shared by the oracle and the result side)
# ----------------------------------------------------------------------
def digest_members(nodes: Iterable[int], edges: Iterable[Tuple[int, int]]) -> str:
    """Digest of a node set plus an edge set.  ``hash`` of an int tuple
    is not salted, so the value is stable across processes."""
    n = e = hn = he = 0
    for node in nodes:
        n += 1
        hn += hash((node,))  # a 1-tuple's hash spreads small ids
    for edge in edges:
        e += 1
        he += hash(edge)
    return f"{n}.{e}.{hn & _MASK:x}.{he & _MASK:x}"


def digest_graph(graph: Graph) -> str:
    return digest_members(graph.nodes(), graph.edges())


def _crc(value: Any) -> str:
    return f"{zlib.crc32(repr(value).encode()):08x}"


def _state_canon(node: int, neighbors: Iterable[int], attrs: Dict) -> tuple:
    return (node, tuple(sorted(neighbors)), tuple(sorted(attrs.items())))


def _static_canon(state) -> Optional[tuple]:
    if state is None:
        return None
    return (state.I, tuple(sorted(state.E)), tuple(state.A))


def _history_canon(history: NodeHistory) -> tuple:
    return (
        history.node, _static_canon(history.initial),
        tuple(ev.seq for ev in history.events),
    )


def digest_value(op: Op, value: Any) -> str:
    """Digest of what the program returned for ``op``."""
    kind = op["kind"]
    if kind in ("snapshot", "khop"):
        return digest_graph(value)
    if kind == "batch":
        return "|".join(digest_graph(g) for g in value)
    if kind == "node_state":
        return _crc(_static_canon(value))
    if kind == "node_history":
        return _crc(_history_canon(value))
    if kind == "node_histories":
        return _crc([_history_canon(h) for h in value])
    if kind == "son":
        return _crc(sorted(_history_canon(nt.history) for nt in value.collect()))
    if kind == "sots":
        return _crc(sorted(
            (sg.center, sorted(
                _history_canon(nt.history) for nt in sg.members.values()
            ))
            for sg in value.collect()
        ))
    raise ValueError(f"no digest for op kind {kind!r}")


def digest_service(op: Op, payload: Dict[str, Any]) -> str:
    """Digest of a service response: a k-hop by its ``members``, a
    snapshot by its node and edge counts (all the wire carries)."""
    if op["kind"] == "snapshot":
        summary = payload["snapshot"]
        return f"{summary['nodes']}.{summary['edges']}"
    hood = payload["neighborhood"]
    return _crc((payload["members"], hood["edges"]))


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def _anchor(op: Op) -> int:
    """The time at which the rolled-forward graph must stand for ``op``."""
    return op["t"] if "t" in op else op["ts"]


class Oracle:
    """Expected digests for a list of ops, from the event log alone."""

    def __init__(self, events: Sequence[Event]) -> None:
        self.events = events
        self._by_node: Dict[int, List[int]] = {}
        for i, ev in enumerate(events):
            for node in ev.entities:
                self._by_node.setdefault(node, []).append(i)
        self._times_by_node = {
            node: [events[i].time for i in idx]
            for node, idx in self._by_node.items()
        }

    def _events_of(self, node: int, ts: int, te: int) -> List[Event]:
        """Events touching ``node`` with ``ts < time <= te``."""
        times = self._times_by_node.get(node, [])
        lo = bisect.bisect_right(times, ts)
        hi = bisect.bisect_right(times, te)
        return [self.events[i] for i in self._by_node.get(node, [])[lo:hi]]

    def _history(self, graph: Graph, node: int, ts: int, te: int):
        """Canonical history of ``node`` (``graph`` stands at ``ts``), or
        ``None`` when the node neither exists at ``ts`` nor changes."""
        initial = None
        if graph.has_node(node):
            initial = _state_canon(
                node, graph.neighbors(node), graph.node_attrs(node)
            )
        events = self._events_of(node, ts, te)
        if initial is None and not events:
            return None
        return (node, initial, tuple(ev.seq for ev in events))

    @staticmethod
    def _khop(graph: Graph, node: int, k: int):
        """Members of the k-hop neighbourhood and the edges among them."""
        members = graph.khop_nodes(node, k)
        edges = [
            (u, v) for u in members for v in graph.neighbors(u)
            if u < v and v in members
        ]
        return members, edges

    def _expect(self, graph: Graph, op: Op, service: bool) -> str:
        kind = op["kind"]
        if kind == "snapshot":
            if service:
                return f"{graph.num_nodes}.{graph.num_edges}"
            return digest_graph(graph)
        if kind == "khop":
            members, edges = self._khop(graph, op["node"], op["k"])
            if service:
                return _crc((sorted(members), len(edges)))
            return digest_members(members, edges)
        if kind == "batch":
            return "|".join(
                digest_members(*self._khop(graph, node, op["k"]))
                for node in op["nodes"]
            )
        if kind == "node_state":
            node = op["node"]
            if not graph.has_node(node):
                return _crc(None)
            return _crc(_state_canon(
                node, graph.neighbors(node), graph.node_attrs(node)
            ))
        ts, te = op["ts"], op["te"]
        if kind == "node_history":
            history = self._history(graph, op["node"], ts, te)
            return _crc(history or (op["node"], None, ()))
        if kind == "node_histories":
            return _crc([
                self._history(graph, node, ts, te) or (node, None, ())
                for node in op["nodes"]
            ])
        if kind == "son":
            histories = (
                self._history(graph, node, ts, te)
                for node in range(op["lo"], op["hi"])
            )
            return _crc(sorted(h for h in histories if h is not None))
        if kind == "sots":
            out = []
            for center in op["centers"]:
                root = self._history(graph, center, ts, te)
                if root is None:
                    continue
                members = {center}
                if graph.has_node(center):
                    members |= graph.neighbors(center)
                for ev in self._events_of(center, ts, te):
                    if ev.other is not None:
                        members.add(ev.other if ev.node == center else ev.node)
                out.append((center, sorted(
                    self._history(graph, m, ts, te) or (m, None, ())
                    for m in members
                )))
            return _crc(sorted(out))
        raise ValueError(f"no oracle for op kind {kind!r}")

    def expected(self, ops: Sequence[Op], service: bool = False) -> List[Optional[str]]:
        """One digest per op (``None`` for ops with no result to check,
        such as ``update``), in op order."""
        out: List[Optional[str]] = [None] * len(ops)
        checked = [
            i for i, op in enumerate(ops) if "t" in op or "ts" in op
        ]
        checked.sort(key=lambda i: _anchor(ops[i]))
        graph = Graph()
        cursor = 0
        events = self.events
        for i in checked:
            t = _anchor(ops[i])
            while cursor < len(events) and events[cursor].time <= t:
                graph.apply_event(events[cursor])
                cursor += 1
            out[i] = self._expect(graph, ops[i], service)
        return out
