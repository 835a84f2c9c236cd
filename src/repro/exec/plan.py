"""Declarative fetch plans: ordered stages of role-tagged key groups.

A plan is data, not code: it can be built, inspected and counted without
touching the store.  The executor decides how the keys become
``multiget`` rounds; the plan only states *what* is needed, in which
stage, and *why* (the role).  There is one plan type: the TGI planner
prices and EXPLAIN prints the same :class:`FetchPlan` shape the executor
runs, built by the same stage helpers — the planner lists from metadata
what an executing plan leaves to a :data:`StageFactory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

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

    A plan the planner builds from metadata lists every stage statically
    and may carry ``notes`` — remarks that are not key groups (how many
    partitions a warm checkpoint seeds, a statistics bound) — and
    ``expected_keys``: the *expected-cost* key set from the build-time
    statistics (the frontier-growth model of
    :func:`repro.stats.model.expected_khop_pids`), a subset of the sound
    bound in ``stages`` that pricing uses instead of it.
    """

    query: str
    stages: List[Union[FetchStage, StageFactory]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    expected_keys: Optional[Tuple[KeyTuple, ...]] = None

    def add_stage(self, label: str, *groups: KeyGroup) -> "FetchStage":
        stage = FetchStage(label, tuple(groups))
        self.stages.append(stage)
        return stage

    def add_factory(self, factory: StageFactory) -> None:
        self.stages.append(factory)

    @property
    def num_keys(self) -> int:
        """Keys the static stages name, group by group: a key two
        stages name counts twice (the executor fetches it once)."""
        return sum(
            s.num_keys for s in self.stages if isinstance(s, FetchStage)
        )

    def keys(self) -> List[KeyTuple]:
        """The distinct keys of the static stages, in stage order."""
        return list(dict.fromkeys(
            key for s in self.stages if isinstance(s, FetchStage)
            for group in s.groups for key in group.keys
        ))

    def pricing_keys(self) -> List[KeyTuple]:
        """Keys cost estimation prices: the statistics-backed expected
        set when one exists, else every distinct key — each once, as the
        executor fetches it."""
        if self.expected_keys is not None:
            return list(self.expected_keys)
        return self.keys()

    def describe(self) -> str:
        """The plan as EXPLAIN prints it: each stage's non-empty groups
        with a preview of their keys (factories shown as deferred), the
        expected key set and the notes."""
        lines = [f"FetchPlan[{self.query}]  ({self.num_keys} deltas)"]
        for stage in self.stages:
            if not isinstance(stage, FetchStage):
                lines.append("  - <deferred stage>")
                continue
            lines.append(f"  - {stage.label}")
            for group in stage.groups:
                if not group.keys:
                    continue
                lines.append(f"      {group.role}: {group.num_keys} deltas")
                preview = ", ".join(repr(k) for k in group.keys[:3])
                suffix = ", ..." if group.num_keys > 3 else ""
                lines.append(f"        {preview}{suffix}")
        if self.expected_keys is not None:
            lines.append(
                f"  expected: {len(self.expected_keys)} of "
                f"{self.num_keys} deltas (stats frontier bound; "
                f"pricing uses the expected set)"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)
