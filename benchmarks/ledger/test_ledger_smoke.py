"""Tier-1 smoke test of the perf ledger: a 300-node scale of ``D1``, one
pass per workload, a few seconds in all.

It checks the harness, not the numbers: every metric of every workload
is present and well named, results validate against the schema, counts
repeat between two runs of one seed, the traced pass reaches every
layer it says it measures, and a wrong result is caught.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:  # ``benchmarks`` is a namespace package
    sys.path.insert(0, str(ROOT))

from benchmarks.ledger import SCHEMA_VERSION, compare, runner, spec, tracerun  # noqa: E402
from benchmarks.ledger.passes import run_pass  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402

SEED = 3
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
COUNTS = ("sim_ms_per_op", "store_requests_per_op", "store_kib_per_op")


@pytest.fixture(scope="module")
def untraced():
    return {
        name: runner.measure(
            name, SEED, seconds=0, scale_name="smoke", min_passes=1,
            setup_repeats=1,
        )
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def traced():
    return {name: tracerun.trace_run(name, SEED, "smoke") for name in WORKLOADS}


def test_every_end_to_end_metric_on_every_workload(untraced):
    expected = [metric.name for metric in spec.END_TO_END]
    for name, result in untraced.items():
        assert list(result["metrics"]) == expected, name
        assert result["failed"] == 0, result["problems"]
        assert result["attempted"] >= 1
        for metric, value in result["metrics"].items():
            assert value > 0, (name, metric)  # a bound is a share of it


def test_every_per_layer_metric_on_every_workload(traced):
    expected = sorted(metric.name for metric in spec.PER_LAYER)
    for name, result in traced.items():
        assert sorted(result["metrics"]) == expected, name
        assert result["failed"] == 0, result["problems"]


def test_counts_repeat_between_two_runs(untraced, traced):
    """The traced run replays the seed in another process layout; its
    untraced pass must count exactly what the measured run counted."""
    for name in WORKLOADS:
        if name == "service_closed":
            continue  # counts there depend on batching-window timing
        for metric in COUNTS:
            assert (
                traced[name]["counts"][metric]
                == untraced[name]["metrics"][metric]
            ), (name, metric)


def test_traced_pass_reaches_every_expected_layer(traced):
    for name, result in traced.items():
        assert result["metrics"]["trace.zero_call_layers"] == 0, name
    for name in ("snapshot_cold", "khop_cold"):
        assert traced[name]["metrics"]["trace.unattributed_frac"] <= 0.15
    trace_file = Path(traced["khop_cold"]["trace_file"])
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert events and {"name", "ph", "ts", "dur"} <= set(events[0])


def test_names_units_and_benchmark_json_agree():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(manifest) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER
    ]
    for name in list(WORKLOADS) + list(spec.BY_NAME):
        assert NAME.match(name), name
    assert any(m.name == "setup_s" and m.unit == "s" for m in spec.END_TO_END)


def test_result_set_validates_and_compares(untraced):
    result_set = {
        "kind": "hgs-perf-ledger", "schema": SCHEMA_VERSION,
        "host": {"nproc": 2, "python": "3", "platform": "test"},
        "scale": "smoke", "traced": False,
        "workloads": {
            name: [{**result, "metrics": spec.metric_block(result["metrics"])}]
            for name, result in untraced.items()
        },
    }
    assert compare.validate(result_set) == []
    lines, regressions = compare.compare(result_set, result_set)
    assert regressions == 0
    assert any("ok (identical)" in line for line in lines)
    broken = json.loads(json.dumps(result_set))
    del broken["host"]["nproc"]
    assert compare.validate(broken)


def test_a_wrong_result_is_caught():
    """Corrupt one expected digest: the op must count as failed, which
    is what makes ``run`` exit non-zero."""
    prepared = runner.prepare("snapshot_cold", SEED, "smoke", setup_repeats=1)
    try:
        passes = [run_pass(prepared.job())]
        assert runner.verify(prepared, passes)["failed"] == 0
        first = next(i for i, e in enumerate(prepared.expected) if e is not None)
        prepared.expected[first] = "corrupted"
        check = runner.verify(prepared, passes)
    finally:
        prepared.cleanup()
    assert check["failed"] == 1
    assert "oracle" in check["problems"][0]
