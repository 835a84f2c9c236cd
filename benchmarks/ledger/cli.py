"""Command line of the perf ledger.

``run``      every workload (or ``--workloads``) for every seed; prints
             each metric by name and unit and writes one result set.
``compare``  judge two result sets against the bounds.
``driver``   one workload, one seed: the ``BENCHMARK.json`` contract
             (``bench.py`` forwards here).
``pass``     internal: one untraced pass in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional

DEFAULT_SECONDS = 8.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads, write a result set")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--seeds", type=int, default=1,
        help="runs per workload, on seeds SEED, SEED+1, ... (default 1)",
    )
    run.add_argument("--workloads", default=None, help="comma-separated names")
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    run.add_argument(
        "--trace", action="store_true",
        help="the separate traced run: per-layer metrics + Perfetto traces",
    )
    run.add_argument("--out", default=None, help="result file (JSON)")

    compare = sub.add_parser("compare", help="judge two result sets")
    compare.add_argument("baseline")
    compare.add_argument("candidate")

    driver = sub.add_parser("driver", help="one workload, one seed")
    driver.add_argument("--workload", required=True)
    driver.add_argument("--seed", type=int, required=True)
    driver.add_argument("--seconds", type=float, required=True)
    driver.add_argument("--trace", type=int, choices=(0, 1), default=0)

    child = sub.add_parser("pass", help="internal: one untraced pass")
    child.add_argument("--job", required=True)
    child.add_argument("--out", required=True)
    return parser


def _measure(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """One run of one workload, with its metrics in contract shape."""
    from benchmarks.ledger import runner, spec, tracerun

    if trace:
        result = tracerun.trace_run(workload, seed)
    else:
        result = runner.measure(workload, seed, seconds)
    result["metrics"] = spec.metric_block(result["metrics"])
    return result


def _workload_names(selection: Optional[str]) -> List[str]:
    from benchmarks.ledger.workloads import WORKLOADS

    names = selection.split(",") if selection else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise SystemExit(
            f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}"
        )
    return names


def _cmd_run(args: argparse.Namespace) -> int:
    from benchmarks.ledger import OUT_DIR, SCHEMA_VERSION

    names = _workload_names(args.workloads)
    result_set: Dict[str, Any] = {
        "kind": "hgs-perf-ledger",
        "schema": SCHEMA_VERSION,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "scale": "d1",
        "traced": args.trace,
        "seconds": args.seconds,
        "started_unix": time.time(),
        "workloads": {name: [] for name in names},
    }
    failed = 0
    # seeds outermost: a drift of the machine hits every workload alike
    for seed in range(args.seed, args.seed + args.seeds):
        for name in names:
            result = _measure(name, seed, args.seconds, args.trace)
            result["failed_frac"] = result["failed"] / result["attempted"]
            failed += result["failed"]
            result_set["workloads"][name].append(result)
            print(f"== {name}  seed {seed}  "
                  f"({result['attempted']} ops attempted, "
                  f"{result['failed']} failed)")
            for metric, cell in result["metrics"].items():
                print(f"  {metric:40s} {cell['value']:14.4f} {cell['unit']}")
            for problem in result["problems"][:10]:
                print(f"  FAILED: {problem}")
            if result.get("trace_file"):
                print(f"  trace: {result['trace_file']} (open in ui.perfetto.dev)")
            sys.stdout.flush()
    out = args.out or str(
        OUT_DIR / ("result-traced.json" if args.trace else "result.json")
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result_set, f, indent=1)
    print(f"wrote {out}")
    return 1 if failed else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from benchmarks.ledger import compare

    lines, regressions = compare.compare(
        compare.load(args.baseline), compare.load(args.candidate)
    )
    print("\n".join(lines))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def _cmd_driver(args: argparse.Namespace) -> int:
    _workload_names(args.workload)
    result = _measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"][:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def _cmd_pass(args: argparse.Namespace, started: float) -> int:
    from benchmarks.ledger import passes

    return passes.child_main(
        args.job, args.out, import_s=time.perf_counter() - started
    )


def main(argv: List[str], started: Optional[float] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "driver":
        return _cmd_driver(args)
    return _cmd_pass(args, started if started is not None else time.perf_counter())
