"""Declarative fetch plans: ordered stages of role-tagged key groups.

A plan is data, not code: it can be built, inspected and counted without
touching the store (the same property the TGI planner's EXPLAIN exploits).
The executor decides how the keys become ``multiget`` rounds; the plan
only states *what* is needed, in which stage, and *why* (the role).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

#: Composite row key as used by the kvstore (opaque to this layer).
KeyTuple = Tuple


@dataclass(frozen=True)
class KeyGroup:
    """An ordered group of keys fetched for one purpose.

    ``role`` names how the decoded rows are consumed (e.g. ``"micro-path"``,
    ``"eventlist"``, ``"version-chain"``, ``"pointer"``); consumers use it
    to pull a stage's rows back out of the result by purpose.
    """

    role: str
    keys: Tuple[KeyTuple, ...]

    @property
    def num_keys(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class FetchStage:
    """One dependency level of a plan.

    All keys of a stage are independent of one another and may be
    coalesced into a single ``multiget`` round; a later stage may depend
    on this stage's values (which is the only reason to have one).
    """

    label: str
    groups: Tuple[KeyGroup, ...]

    def keys(self) -> List[KeyTuple]:
        """All stage keys in group order, first occurrence wins."""
        return list(dict.fromkeys(
            chain.from_iterable(group.keys for group in self.groups)
        ))

    @property
    def num_keys(self) -> int:
        return sum(group.num_keys for group in self.groups)


#: A stage computed from the values fetched so far (``None`` = skip).
#: A factory may also *append* further entries to the running plan's
#: ``stages`` list (the executor iterates by index), which is how
#: data-dependent expansions — a BFS whose depth depends on what each
#: level fetched — stay inside one plan.
StageFactory = Callable[[Dict[KeyTuple, Any]], Optional[FetchStage]]


@dataclass
class FetchPlan:
    """An ordered sequence of stages (static or lazily produced).

    Static stages are known up front; a :data:`StageFactory` entry is
    resolved by the executor against the values accumulated so far —
    e.g. version-chain rows resolving into the eventlist rows their
    pointers select.
    """

    query: str
    stages: List[Union[FetchStage, StageFactory]] = field(default_factory=list)

    def add_stage(self, label: str, *groups: KeyGroup) -> "FetchStage":
        stage = FetchStage(label, tuple(groups))
        self.stages.append(stage)
        return stage

    def add_factory(self, factory: StageFactory) -> None:
        self.stages.append(factory)

    def describe(self) -> str:
        """Human-readable plan outline (factories shown as deferred)."""
        lines = [f"FetchPlan[{self.query}]"]
        for stage in self.stages:
            if isinstance(stage, FetchStage):
                parts = ", ".join(
                    f"{g.role}:{g.num_keys}" for g in stage.groups
                )
                lines.append(f"  - {stage.label} ({parts})")
            else:
                lines.append("  - <deferred stage>")
        return "\n".join(lines)
