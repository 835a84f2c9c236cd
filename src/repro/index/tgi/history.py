"""History plans of the Temporal Graph Index (Algorithms 2 and 5).

:class:`HistoryPlans` is a mixin base of
:class:`~repro.index.tgi.index.TGI` holding the batched node-history
plan builder and the neighborhood-history plan chained out of it.  It
reads the index's ``config``, ``_vc``, ``_span_at`` and ``_finish``.
The planner lists a node-history plan from the same pieces:
:func:`history_head` for its first stage and :func:`pointer_stage` for
the version-pointer round, fed the chains' metadata instead of the
fetched chain rows (a session pricing a plan built here asks it for
that round; TAF fetches, which price nothing, never read it).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import PartitionUnavailable
from repro.exec import FetchPlan, FetchStage, KeyGroup
from repro.graph.events import Event, dedup_sorted
from repro.index.interface import (
    NeighborhoodHistory,
    NodeHistory,
    neighbor_intervals,
)
from repro.index.tgi.layout import DeltaKey, version_chain_key
from repro.index.tgi.states import (
    Compiled,
    PartitionStates,
    _charge_dropped,
    _degraded_pids,
)
from repro.index.tgi.version_chain import Chain, pointers_in_range
from repro.kvstore.cost import Counters
from repro.kvstore.degrade import (
    PartialCollector,
    active_partial,
    partial_scope,
)
from repro.types import AttrMap, EdgeId, NodeId, TimePoint


def _missing_chain(node) -> None:
    """A node's version-chain row was dropped by a degraded fetch:
    record it (inside a partial scope) or raise typed."""
    label = f"vc:{node}"
    collector = active_partial()
    if collector is None:
        raise PartitionUnavailable(
            f"version chain unavailable for node {node!r}",
            partitions=(label,),
        )
    collector.add_partition(label)


def history_head(
    state: Optional[FetchStage], chain_keys: Iterable[DeltaKey]
) -> FetchStage:
    """A node-history plan's first stage: what the nodes' partition
    states need (``state``, a partition stage; ``None`` when every
    partition is warm) and the nodes' version-chain rows."""
    return FetchStage("micros+chains", (
        *(state.groups if state is not None else ()),
        KeyGroup("version-chain", tuple(chain_keys)),
    ))


def pointer_stage(
    chains: Iterable[Chain], ts: TimePoint, te: TimePoint
) -> Optional[FetchStage]:
    """The version-pointer round: the distinct eventlist rows the
    ``chains``' pointers select in ``[ts, te]``, in chain order —
    ``None`` when they select none.  An executing plan feeds it the
    fetched chain rows; the planner, the chains' metadata."""
    keys = dict.fromkeys(
        key for chain in chains for key in pointers_in_range(chain, ts, te)
    )
    if not keys:
        return None
    return FetchStage("version-pointers", (KeyGroup("pointer", tuple(keys)),))


class HistoryPlans:
    """Mixin base of ``TGI``: Algorithm-2 and Algorithm-5 plans."""

    def _chain_keys(
        self, nodes: Iterable[NodeId]
    ) -> Dict[NodeId, DeltaKey]:
        """The version-chain row key of each of ``nodes`` that has one."""
        ns = self.config.placement_groups
        return {
            n: version_chain_key(n, ns)
            for n in nodes if self._vc.has_chain(n)
        }

    def _node_histories_plan(
        self, nodes: Sequence[NodeId], ts: TimePoint, te: TimePoint,
        edge_attrs: Optional[Dict[EdgeId, AttrMap]] = None,
    ) -> Compiled:
        """Build the batched Algorithm-2 plan for ``nodes`` plus a
        finalizer that maps the executed plan's values back to one
        :class:`NodeHistory` per input node (input order, duplicates
        preserved).  Splitting plan from finalizer lets callers compose
        several history levels — and other plans — into one pipelined
        execution.  The third element counts the checkpoint hits/misses
        the plan resolved at build time (warm partitions contribute no
        fetch keys — their initial states come from the memoized replay);
        callers fold it into their fetch stats.  With ``edge_attrs`` (a
        SoTS level) the finalizer adds to it the attributed edges at
        ``ts`` touching one of ``nodes`` off the replayed partition
        states, complete by the self-containment invariant."""
        span = self._span_at(ts)
        extra = Counters()

        node_pid = {node: span.pid_of(node) for node in dict.fromkeys(nodes)}
        chain_keys = self._chain_keys(node_pid)
        # metadata-only planning: the initial states are read out of the
        # nodes' partitions' states at ``ts`` (warm partitions contribute
        # no keys); without checkpoints only these nodes are replayed
        states = PartitionStates(
            self, span, ts, False, extra, only=set(node_pid)
        )
        stage = states.stage(
            {pid for pid in node_pid.values() if pid is not None},
            "micros+chains",
        )
        plan = FetchPlan(
            f"node_histories({len(node_pid)} nodes, ts={ts}, te={te})",
            [history_head(stage, chain_keys.values())],
        )

        def fetched_chains(
            values: Dict[DeltaKey, object],
        ) -> Dict[NodeId, Chain]:
            chains = {}
            for n, chain_key in chain_keys.items():
                chain = values.get(chain_key)
                if chain is None:
                    _missing_chain(n)
                    continue
                chains[n] = chain
            return chains

        plan.add_factory(lambda values: pointer_stage(
            fetched_chains(values).values(), ts, te
        ))

        def finalize(values: Dict[DeltaKey, object]) -> List[NodeHistory]:
            # a node whose partition a degraded fetch dropped gets no
            # initial state this window
            states.settle(values)
            initial = states.merged.nodes
            if edge_attrs is not None:
                for (u, v), attrs in states.merged.edge_attrs.items():
                    if u in node_pid or v in node_pid:
                        edge_attrs.setdefault((u, v), attrs)
            chains = fetched_chains(values)
            # the asked nodes whose chains point at each eventlist row
            readers: Dict[DeltaKey, List[NodeId]] = {}
            for n, chain in chains.items():
                keys = pointers_in_range(chain, ts, te)
                if _degraded_pids(keys, values):
                    # a chain spans timespans, and a partition is a
                    # (tsid, pid): the same pid in another timespan is
                    # another partition, whose rows still count
                    bad = {(k[0], k[3]) for k in keys if k not in values}
                    keys = [k for k in keys if (k[0], k[3]) not in bad]
                for key in keys:
                    readers.setdefault(key, []).append(n)
            # each row is windowed (a bisection) and scanned once for all
            # its readers; columnar rows materialize only matching rows
            changes: Dict[NodeId, List[Event]] = {}
            for key, who in readers.items():
                rows = values[key].filter_by_time(ts, te).group_by_id(who)
                for n, evs in rows.items():
                    changes.setdefault(n, []).extend(evs)
            histories = {
                node: NodeHistory(
                    node, ts, te, initial.get(node),
                    tuple(dedup_sorted(changes.get(node, ()))),
                )
                for node in node_pid
            }
            return [histories[node] for node in nodes]

        return plan, finalize, extra

    def _khop_history_plan(
        self, node: NodeId, ts: TimePoint, te: TimePoint
    ) -> Compiled:
        """Algorithm 5 as one plan: the center's history stages, then a
        factory that reads the ``(neighbor, sub-interval)`` pairs off the
        fetched center and chains each neighbor's history stages behind
        its predecessor's.  Every sub-plan is built only once the one
        before it was finalized (and its replayed states checkpointed),
        so rounds, requests and checkpoint outcomes equal the inherited
        one-history-at-a-time loop exactly."""
        plan = FetchPlan(f"khop_history(node={node}, ts={ts}, te={te})")
        extra = Counters()
        histories: List[NodeHistory] = []
        todo: List[Tuple[NodeId, TimePoint, TimePoint]] = [(node, ts, te)]
        # what a degraded fetch dropped while the factories finalized
        # under a batch window's scope (cf. ``_khops_plan``'s ``dropped``)
        lost = PartialCollector()

        def chain_next() -> None:
            member, s, e = todo.pop(0)
            sub = self._node_histories_plan([member], s, e)
            plan.stages.extend(sub[0].stages)

            def settle(values: Dict[DeltaKey, object]) -> None:
                scope = lost if active_partial() is not None else None
                with partial_scope(scope):
                    history = self._finish(sub, values, extra)[0]
                if not histories:
                    todo.extend(neighbor_intervals(history))
                histories.append(history)
                if todo:
                    chain_next()

            plan.add_factory(settle)

        chain_next()

        def finalize(values: Dict[DeltaKey, object]) -> NeighborhoodHistory:
            _charge_dropped(lost.partitions, "neighborhood history")
            return NeighborhoodHistory(histories[0], tuple(histories[1:]))

        return plan, finalize, extra
