"""Call census: which functions in ``src/`` do the real entry points reach?

Every module- and class-level function under ``src/`` is listed with
``ast``.  Each entry point then runs in a subprocess with a profile hook
(``sys.setprofile`` and ``threading.setprofile``) installed through a
``sitecustomize`` module put first on ``PYTHONPATH``, so the processes
an entry point starts (``hgs serve`` under the service bench) are
counted too.  The tier-1 suite (``tests/``) runs the same way.  Each
function then reads as one of

- **entry**: an entry point calls it;
- **test-only**: only the tier-1 tests call it;
- **unreached**: nothing calls it.

The entry points are the six examples, the ledger smoke, every
``benchmarks/bench_*.py`` (the CI smokes and the paper benches) and one
pass over every ``hgs`` subcommand.  Test-only and unreached functions
are listed with the reason each is kept (:data:`KEEP`); the table goes
to ``benchmarks/CENSUS.md``.  Run from the repository root (a full run
takes several minutes; the hook slows Python code down a few times)::

    PYTHONPATH=src python benchmarks/census.py [--out benchmarks/CENSUS.md]
        [--summary FILE]

``--summary`` appends the three counts as a markdown table to FILE (CI
passes ``$GITHUB_STEP_SUMMARY``).

Two traps, both handled here.  pytest-benchmark clears the profile hook
during timed rounds (its ``PauseInstrumentation`` calls
``sys.setprofile(None)``), so bench files run with
``--benchmark-disable``.  A decorated function's code object reports its
first decorator's line as ``co_firstlineno``, so a function matches on
that line or on its ``def`` line.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``(co_filename, co_firstlineno)`` of one called code object.
Hit = Tuple[str, int]
#: An entry point: an argv, or a callable ``(env, workdir) -> exit code``.
Command = Union[Sequence[str], Callable[[Dict[str, str], Path], int]]

HOOK = '''\
"""Profile hook of benchmarks/census.py: writes each code object under
CENSUS_SRC the first time this process calls it."""
import os
import sys
import threading


def _install(src, out):
    seen = set()
    log = open(os.path.join(out, "%d.hits" % os.getpid()), "a", buffering=1)

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                if code.co_filename.startswith(src):
                    log.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    threading.setprofile(hook)


if os.environ.get("CENSUS_SRC") and os.environ.get("CENSUS_OUT"):
    _install(os.environ["CENSUS_SRC"], os.environ["CENSUS_OUT"])
'''


@dataclass(frozen=True)
class Function:
    """One module- or class-level function of the source tree."""

    path: str  # relative to the source root, e.g. repro/io.py
    qualname: str
    lines: Tuple[int, ...]  # first decorator line, def line
    size: int  # lines from ``def`` to the end of the body
    stub: bool  # abstract: a docstring and raise / pass / ... only

    @property
    def name(self) -> str:
        return f"{self.path}::{self.qualname}"


def _is_stub(node: ast.AST) -> bool:
    for deco in node.decorator_list:
        if (isinstance(deco, ast.Name) and deco.id == "abstractmethod") or (
            isinstance(deco, ast.Attribute) and deco.attr == "abstractmethod"
        ):
            return True
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
        getattr(body[0], "value", None), ast.Constant
    ) and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def _walk(body: Iterable[ast.stmt], path: str, prefix: str):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            yield Function(
                path, prefix + node.name, (first, node.lineno),
                node.end_lineno - node.lineno + 1, _is_stub(node),
            )
        elif isinstance(node, ast.ClassDef):
            yield from _walk(node.body, path, f"{prefix}{node.name}.")


def list_functions(src: Path) -> List[Function]:
    """Every module- and class-level function under ``src``."""
    out: List[Function] = []
    for file in sorted(src.rglob("*.py")):
        tree = ast.parse(file.read_text(encoding="utf-8"), str(file))
        out.extend(_walk(tree.body, file.relative_to(src).as_posix(), ""))
    return out


def run_hooked(
    commands: Sequence[Tuple[str, Command]],
    src: Path,
    *,
    cwd: Path = ROOT,
    timeout: float = 3600.0,
) -> Tuple[Set[Hit], List[Tuple[str, int, float]]]:
    """Run each command under the profile hook; returns every code
    object under ``src`` they called and ``(label, exit code, seconds)``
    per command."""
    src = src.resolve()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        hook_dir, out = Path(tmp, "hook"), Path(tmp, "hits")
        hook_dir.mkdir()
        out.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        path = [str(hook_dir), str(src), str(ROOT)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        env = dict(
            os.environ, CENSUS_SRC=str(src) + os.sep, CENSUS_OUT=str(out),
            PYTHONPATH=os.pathsep.join(path),
        )
        statuses = []
        for label, command in commands:
            start = time.perf_counter()
            work = Path(tmp, f"work-{len(statuses)}")
            work.mkdir()
            try:
                if callable(command):
                    code, output = command(env, work), ""
                else:
                    proc = subprocess.run(
                        list(command), cwd=cwd, env=env, timeout=timeout,
                        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                        text=True,
                    )
                    code, output = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired:
                code, output = -1, "timed out"
            statuses.append((label, code, time.perf_counter() - start))
            print(f"census: {label}: exit {code} "
                  f"({statuses[-1][2]:.0f} s)", file=sys.stderr, flush=True)
            if code:
                tail = output.splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr, flush=True)
        hits: Set[Hit] = set()
        for log in out.iterdir():
            for line in log.read_text(encoding="utf-8").splitlines():
                file, _, lineno = line.rpartition("\t")
                if file:
                    hits.add((os.path.realpath(file), int(lineno)))
    return hits, statuses


def called(functions: Sequence[Function], hits: Set[Hit], src: Path) -> Set[str]:
    """Names of the functions whose code objects appear in ``hits``."""
    src = src.resolve()
    return {
        f.name for f in functions
        if any((str(src / f.path), line) in hits for line in f.lines)
    }


def classify(
    functions: Sequence[Function], entry: Set[str], tests: Set[str]
) -> Dict[str, str]:
    """``entry`` / ``test-only`` / ``unreached`` per function name."""
    return {
        f.name: "entry" if f.name in entry
        else "test-only" if f.name in tests
        else "unreached"
        for f in functions
    }


# -- the repository's entry points ----------------------------------------------

def _hgs(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def _hgs_pass(env: Dict[str, str], work: Path) -> int:
    """Every ``hgs`` subcommand once, ``serve`` driven over HTTP."""
    def run(*args: str) -> int:
        code = subprocess.run(
            _hgs(*args), cwd=work, env=env, timeout=600,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        if code:
            print(f"census: hgs {' '.join(args)}: exit {code}",
                  file=sys.stderr, flush=True)
        return code

    (work / "batch.jsonl").write_text(
        '{"kind": "khop", "node": 5, "time": 1400, "k": 2}\n'
        '{"kind": "khop", "node": 7, "time": 1400, "k": 2}\n'
        '{"kind": "snapshot", "time": 1400}\n'
        '{"kind": "node", "node": 5, "ts": 100, "te": 1400}\n',
        encoding="utf-8",
    )
    codes = [
        run("generate", "citation", "citation.jsonl", "--nodes", "60"),
        run("generate", "friendster", "friendster.jsonl", "--nodes", "60"),
        run("generate", "social", "trace.jsonl", "--nodes", "80",
            "--steps", "1500", "--seed", "9"),
        run("build", "trace.jsonl", "idx.hgs", "--span", "400",
            "--eventlist", "50", "--partition-size", "16", "--machines", "3",
            "--cache-entries", "4096", "--checkpoints", "512",
            "--apply-cost"),
        run("build", "trace.jsonl", "safe.hgs", "--span", "400",
            "--eventlist", "50", "--partition-size", "16", "--machines", "3",
            "--replication", "2", "--compress", "--checksums", "--mincut",
            "--replicate-boundary"),
        run("inspect", "trace.jsonl"),
        run("inspect", "idx.hgs", "--kind", "index"),
        run("query", "idx.hgs", "snapshot", "800"),
        run("query", "idx.hgs", "node", "5", "100", "1400"),
        run("query", "idx.hgs", "khop", "5", "1400", "-k", "2"),
        run("query", "idx.hgs", "--explain", "khop", "5", "1400", "-k", "2"),
        run("query", "safe.hgs", "--resilient", "--allow-partial", "khop",
            "5", "1400", "-k", "2"),
        run("query", "idx.hgs", "--batch", "batch.jsonl"),
        run("query", "idx.hgs", "--batch", "batch.jsonl", "--explain"),
        run("trace", "idx.hgs", "--out", "t.json", "khop", "5", "1400",
            "-k", "2"),
        run("trace", "idx.hgs", "--out", "t2.json", "--format", "json",
            "--batch", "batch.jsonl"),
        _serve(env, work),
        run("inspect", "slow.jsonl", "--slow"),
    ]
    return next((code for code in codes if code), 0)


def _serve(env: Dict[str, str], work: Path) -> int:
    """``hgs serve`` with its options on: one k-hop, then every GET
    route, then SIGTERM (the server drains and exits)."""
    proc = subprocess.Popen(
        _hgs("serve", "--index", "idx.hgs", "--port", "0", "--trace", "all",
             "--slow-ms", "0", "--slow-log", "slow.jsonl", "--resilient",
             "--access-log", "access.jsonl", "--auth-token", "census",
             "--deadline-ms", "60000"),
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        if "listening on" not in line:
            return proc.wait(timeout=60) or 1
        port = int(line.rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        for method, route, body in (
            ("POST", "/query", {"kind": "khop", "node": 5, "time": 1400,
                                "k": 2}),
            ("GET", "/debug/slow?traces=1", None),
            ("GET", "/metrics", None),
            ("GET", "/metrics?format=prometheus", None),
            ("GET", "/healthz", None),
        ):
            conn.request(method, route, body=json.dumps(body) if body else None,
                         headers={"Content-Type": "application/json",
                                  "Authorization": "Bearer census"})
            conn.getresponse().read()
        conn.close()
        proc.send_signal(signal.SIGTERM)
        proc.stdout.read()
        return proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def entry_points() -> List[Tuple[str, Command]]:
    py = sys.executable
    pytest = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    points: List[Tuple[str, Command]] = [
        (f"examples/{p.name}", [py, str(p)])
        for p in sorted((ROOT / "examples").glob("*.py"))
    ]
    points.append(("ledger smoke",
                   pytest + ["benchmarks/ledger/test_ledger_smoke.py"]))
    points.extend(
        (f"benchmarks/{p.name}",
         pytest + ["--benchmark-disable", f"benchmarks/{p.name}"])
        for p in sorted((ROOT / "benchmarks").glob("bench_*.py"))
    )
    points.append(("hgs subcommands", _hgs_pass))
    return points


TIER1: List[Tuple[str, Command]] = [
    ("tier-1 tests", [sys.executable, "-m", "pytest", "-q", "-p",
                      "no:cacheprovider", "tests"]),
]


# -- why what only tests reach stays ----------------------------------------------

#: ``(fnmatch pattern over "path::qualname", reason)``; first match wins.
#: Dunders, abstract stubs and the ledger's traced names are recognised
#: without an entry here.
KEEP: List[Tuple[str, str]] = [
    ("repro/index/tgi/index.py::TGI.retrieve_khop_snapshot_first",
     "ledger TARGETS: TGI.get_khop_snapshot_first runs it"),
    # test seams: what tests build histories, reference graphs and
    # failures with, or read counters off
    ("repro/kvstore/cluster.py::Cluster.fail_machine",
     "test seam: machine failure injection"),
    ("repro/kvstore/cluster.py::Cluster.recover_machine",
     "test seam: machine failure injection"),
    ("repro/kvstore/*.py::*.delete",
     "test seam: row delete (stale-replica tests)"),
    ("repro/kvstore/node.py::StorageNode.rank",
     "test seam: bench_plan_overhead counts its calls"),
    ("repro/graph/static.py::Graph.*",
     "test seam: builds reference graphs; to_networkx feeds the "
     "networkx cross-checks"),
    ("repro/graph/events.py::Event*",
     "test seam: builds and reads test event histories"),
    ("repro/deltas/columnar.py::ColumnarEventList.filter_by_id",
     "test seam: per-node row read checked against group_by_id"),
    ("repro/deltas/columnar.py::decoded_events_total",
     "test seam: counts lazy event decodes"),
    ("repro/api/wire.py::spec_from_request",
     "test seam: wire round trip of request_from_spec"),
    ("repro/exec/cache.py::*",
     "test seam: cache introspection and reset"),
    # inputs no entry point sends
    ("repro/deltas/columnar.py::_IdTable.*",
     "input no entry point sends: an index over non-int node ids"),
    ("repro/index/tgi/planner.py::TGIPlanner.union_khops",
     "input no entry point sends: a multi-center k-hop"),
    ("repro/obs/trace.py::SamplingPolicy.slow_only",
     "input no entry point sends: hgs serve --trace slow"),
    # error paths
    ("*::*_dead_center", "error path: k-hop center not alive"),
    ("*::*_missing_chain", "error path: node without a version chain"),
    ("repro/storage.py::_unsupported", "error path: unknown index class"),
    ("repro/api/result.py::QueryResult.raise_for_error",
     "error path: re-raises a captured batch error"),
    ("repro/kvstore/degrade.py::PartialCollector.*",
     "error path: degraded (allow_partial) reads under faults"),
    ("repro/obs/trace.py::Span.add_event",
     "error path: retry / hedge / breaker events under faults"),
    # served routes
    ("repro/kvstore/cluster.py::Cluster.breaker_snapshot",
     "served route: GET /healthz under --resilient"),
    ("repro/service/http.py::QueryService._render_slow",
     "served route: GET /debug/slow"),
    ("repro/obs/slowlog.py::SlowQueryLog.as_dict",
     "served route: GET /debug/slow"),
    # the paper's operators and model
    ("repro/taf/son.py::*", "paper operator: SoN / SoTS / TGraph (TAF)"),
    ("repro/taf/node_t.py::*", "paper operator: NodeT / SubgraphT (TAF)"),
    ("repro/taf/aggregation.py::*", "paper operator: TAF aggregation"),
    ("repro/taf/expressions.py::*", "paper operator: TAF expressions"),
    ("repro/taf/patterns.py::*", "paper operator: TAF patterns"),
    ("repro/taf/timepoints.py::*", "paper operator: TAF timepoints"),
    ("repro/taf/handler.py::TGIHandler.fetch_subgraph",
     "paper operator: one SubgraphT fetch (README: fetch_subgraphs([c]))"),
    ("repro/session/__init__.py::RangeView.*",
     "paper operator: SoN / SoTS over an interval view"),
    ("repro/graph/metrics.py::GraphMetrics.*",
     "paper operator: GraphMetrics namespace (Fig. 7)"),
    ("repro/graph/metrics.py::NodeMetrics.*",
     "paper operator: NodeMetrics namespace (Fig. 7)"),
    ("repro/graph/metrics.py::*",
     "paper operator: a GraphMetrics / NodeMetrics alias or its helper"),
    ("repro/index/tgi/costs.py::table1", "paper table: Table 1 cost model"),
    ("repro/index/*::*retrieve_khop_history",
     "paper query: Algorithm 5 on the index interface (the session "
     "compiles its own plan)"),
    ("repro/index/interface.py::NeighborhoodHistory.all_histories",
     "paper query: Algorithm 5's result"),
    ("repro/index/delta_tree.py::*",
     "paper model: delta-tree height and leaf reconstruction"),
    ("repro/index/deltagraph.py::DeltaGraphIndex.tree_height",
     "paper model: delta-tree height"),
    ("repro/deltas/base.py::*",
     "paper model: component and delta accessors (Sec. 4)"),
    ("repro/graph/events.py::events_in_range",
     "paper model: the (ts, te] scope of an eventlist (Sec. 4)"),
]


def ledger_targets(src: Path, functions: Sequence[Function]) -> Set[str]:
    """Names the ledger's traced pass rebinds
    (``benchmarks/ledger/tracing.py`` ``TARGETS``): each must keep
    resolving, whoever else calls it."""
    import inspect

    sys.path[:0] = [str(src), str(ROOT)]
    from benchmarks.ledger.tracing import TARGETS

    by_line = {
        (str(src.resolve() / f.path), line): f.name
        for f in functions for line in f.lines
    }
    names = set()
    for _, owner, attribute, _ in TARGETS:
        raw = inspect.getattr_static(owner, attribute)
        raw = getattr(raw, "__func__", raw)
        code = getattr(inspect.unwrap(raw), "__code__", None)
        if code is not None:
            key = (os.path.realpath(code.co_filename), code.co_firstlineno)
            if key in by_line:
                names.add(by_line[key])
    return names


def keep_reason(function: Function, targets: Set[str]) -> str:
    if function.name in targets:
        return "ledger TARGETS name (getattr_static must resolve)"
    short = function.qualname.rsplit(".", 1)[-1]
    if short.startswith("__") and short.endswith("__"):
        return "dunder"
    if function.stub:
        return "abstract stub"
    for pattern, reason in KEEP:
        if fnmatch.fnmatchcase(function.name, pattern):
            return reason
    return ""


def render(
    functions: Sequence[Function],
    kinds: Dict[str, str],
    targets: Set[str],
    statuses: Sequence[Tuple[str, int, float]],
) -> str:
    lines = [
        "# Call census",
        "",
        "Generated by `PYTHONPATH=src python benchmarks/census.py`; do not "
        "edit by hand.  A function is *entry* when an entry point below "
        "calls it, *test-only* when only the tier-1 tests (`tests/`) do, "
        "and *unreached* when nothing does.  Lines run from `def` to the "
        "end of the body.  *Kept because* says why a function no entry "
        "point reaches is still here (`KEEP` in the script); `—` marks "
        "one with no recorded reason.  An entry point that exits non-zero "
        "still counts what it called: the hook slows Python down a few "
        "times, so a wall-clock bar (`bench_service.py`'s latency "
        "containment) can fail under it.",
        "",
        counts_table(functions, kinds),
        "",
        "## Entry points",
        "",
        "| entry point | exit | seconds |",
        "|---|---:|---:|",
    ]
    lines.extend(
        f"| {label} | {code} | {seconds:.0f} |"
        for label, code, seconds in statuses
    )
    for kind in ("test-only", "unreached"):
        rows = [f for f in functions if kinds[f.name] == kind]
        lines += [
            "", f"## {kind.capitalize()} functions", "",
            "| function | lines | kept because |", "|---|---:|---|",
        ]
        lines.extend(
            f"| `{f.name}` | {f.size} | {keep_reason(f, targets) or '—'} |"
            for f in rows
        )
    return "\n".join(lines) + "\n"


def counts_table(functions: Sequence[Function], kinds: Dict[str, str]) -> str:
    rows = ["| functions | count | lines |", "|---|---:|---:|"]
    for kind in ("entry", "test-only", "unreached"):
        picked = [f for f in functions if kinds[f.name] == kind]
        rows.append(
            f"| {kind} | {len(picked)} | {sum(f.size for f in picked)} |"
        )
    rows.append(
        f"| all | {len(functions)} | {sum(f.size for f in functions)} |"
    )
    return "\n".join(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "benchmarks" / "CENSUS.md"))
    parser.add_argument("--summary", default=None, metavar="FILE",
                        help="append the counts table to FILE")
    args = parser.parse_args(argv)
    functions = list_functions(SRC)
    entry_hits, statuses = run_hooked(entry_points(), SRC)
    test_hits, test_statuses = run_hooked(TIER1, SRC)
    kinds = classify(
        functions, called(functions, entry_hits, SRC),
        called(functions, test_hits, SRC),
    )
    targets = ledger_targets(SRC, functions)
    Path(args.out).write_text(
        render(functions, kinds, targets, statuses + test_statuses),
        encoding="utf-8",
    )
    table = counts_table(functions, kinds)
    print(table)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write("### Call census\n\n" + table + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
