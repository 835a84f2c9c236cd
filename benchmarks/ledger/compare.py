"""Judge two result sets against the bounds: ``compare A.json B.json``.

A result set is what ``run`` writes: for every workload, one run per
seed.  When both sets ran the same seeds the runs are *paired*: the
change is the median over seeds of the per-seed relative change, and
the spread is the interquartile range of those changes — what differs
between seeds cancels, only the machine's noise is left.  Otherwise the
medians over runs are compared and the spread is the wider of the two
sets' own (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives it).  The verdict is
``regressed`` when the candidate is worse by more than the metric's
bound, ``unresolved`` when the spread is wider than the bound — the
sets cannot resolve a change that small — and ``ok`` otherwise.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Tuple

from benchmarks.ledger import SCHEMA_VERSION
from benchmarks.ledger.spec import BY_NAME, EXACT_ON_SAME_SEED


class ResultError(ValueError):
    """A result file does not have the ledger's schema."""


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    problems = validate(data)
    if problems:
        raise ResultError(f"{path}: " + "; ".join(problems[:5]))
    return data


def validate(data: Any) -> List[str]:
    """Schema check of a result set; returns what is wrong with it."""
    if not isinstance(data, dict) or data.get("kind") != "hgs-perf-ledger":
        return ["not a perf-ledger result file"]
    problems = []
    if data.get("schema") != SCHEMA_VERSION:
        problems.append(f"schema {data.get('schema')!r} != {SCHEMA_VERSION}")
    for key in ("host", "scale", "traced", "workloads"):
        if key not in data:
            problems.append(f"missing {key!r}")
    for key in ("nproc", "python", "platform"):
        if key not in data.get("host", {}):
            problems.append(f"host lacks {key!r}")
    for workload, runs in data.get("workloads", {}).items():
        if not isinstance(runs, list) or not runs:
            problems.append(f"{workload}: no runs")
            continue
        for run in runs:
            for key in ("seed", "attempted", "failed", "metrics"):
                if key not in run:
                    problems.append(f"{workload}: run lacks {key!r}")
            for name, cell in run.get("metrics", {}).items():
                if name not in BY_NAME:
                    problems.append(f"{workload}: unknown metric {name!r}")
                elif (
                    not isinstance(cell, dict)
                    or not isinstance(cell.get("value"), (int, float))
                    or cell.get("unit") != BY_NAME[name].unit
                ):
                    problems.append(f"{workload}: malformed metric {name!r}")
    return problems


def _iqr(values: List[float]) -> float:
    """Interquartile range (plain range with fewer than four values)."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return max(values) - min(values)
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    median = statistics.median(values)
    return _iqr(values) / abs(median) if median else 0.0


def _values(runs: List[Dict[str, Any]], name: str) -> Dict[int, float]:
    return {
        run["seed"]: run["metrics"][name]["value"]
        for run in runs if name in run["metrics"]
    }


def judge(
    name: str, base: Dict[int, float], cand: Dict[int, float]
) -> Tuple[float, float, float, float, str]:
    """``(baseline, candidate, worse_by, widest_spread, verdict)``;
    ``worse_by`` is a share of the baseline, positive when worse."""
    metric = BY_NAME[name]
    b = statistics.median(base.values())
    c = statistics.median(cand.values())
    if base.keys() == cand.keys() and all(base.values()):
        changes = [(cand[s] - base[s]) / abs(base[s]) for s in base]
        change, noise = statistics.median(changes), _iqr(changes)
    else:
        change = (c - b) / abs(b) if b else (0.0 if c == b else float("inf"))
        noise = max(spread(list(base.values())), spread(list(cand.values())))
    worse_by = change if metric.better == "lower" else -change
    if metric.bound is None:
        return b, c, worse_by, noise, "-"
    if name in EXACT_ON_SAME_SEED and base == cand:
        return b, c, worse_by, noise, "ok (identical)"
    if worse_by > metric.bound:
        verdict = "regressed"
    elif noise > metric.bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return b, c, worse_by, noise, verdict


def compare(base: Dict[str, Any], cand: Dict[str, Any]) -> Tuple[List[str], int]:
    """Report lines and the number of regressions."""
    lines = [
        f"{'workload':15s} {'metric':38s} {'baseline':>12s} {'candidate':>12s} "
        f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict"
    ]
    regressions = 0
    for workload in base["workloads"]:
        if workload not in cand["workloads"]:
            lines.append(f"{workload:15s} missing from the candidate set")
            continue
        base_runs = base["workloads"][workload]
        cand_runs = cand["workloads"][workload]
        failed = sum(run["failed"] for run in cand_runs)
        if failed:
            regressions += 1
            lines.append(f"{workload:15s} candidate has {failed} failed ops")
        for name in base_runs[0]["metrics"]:
            b_vals, c_vals = _values(base_runs, name), _values(cand_runs, name)
            if not c_vals:
                continue
            b, c, worse_by, noise, verdict = judge(name, b_vals, c_vals)
            regressions += verdict == "regressed"
            bound = BY_NAME[name].bound
            lines.append(
                f"{workload:15s} {name:38s} {b:12.4f} {c:12.4f} "
                f"{worse_by:+9.1%} "
                f"{'' if bound is None else format(bound, '.2f'):>6s} "
                f"{noise:7.1%}  {verdict}"
            )
    return lines, regressions
