"""Tests for event file I/O and the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.errors import EventError
from repro.graph.events import EventBuilder
from repro.io import event_to_record, read_events, record_to_event, write_events
from tests.helpers import random_history


# -- io ----------------------------------------------------------------------

def test_event_record_roundtrip_all_kinds():
    events = random_history(steps=120, seed=3)
    for ev in events:
        assert record_to_event(event_to_record(ev)) == ev


def test_write_read_roundtrip(tmp_path):
    events = random_history(steps=80, seed=5)
    path = tmp_path / "h.jsonl"
    count = write_events(events, path)
    assert count == len(events)
    assert read_events(path) == events


def test_read_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1, "seq": 0, "kind": "NODE_ADD", "node": 1}\nnot json\n')
    with pytest.raises(EventError):
        read_events(path)


def test_read_rejects_malformed_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1}\n')
    with pytest.raises(EventError):
        read_events(path)


def test_read_validates_order(tmp_path):
    eb = EventBuilder()
    events = [eb.node_add(5, 0), eb.node_add(1, 1)]
    path = tmp_path / "unsorted.jsonl"
    with path.open("w") as f:
        for ev in events:
            f.write(json.dumps(event_to_record(ev)) + "\n")
    with pytest.raises(EventError):
        read_events(path)
    assert len(read_events(path, validate=False)) == 2


# -- cli ----------------------------------------------------------------------

def test_cli_generate_build_query(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    index = tmp_path / "index.hgs"
    assert main(["generate", "citation", str(trace), "--nodes", "120"]) == 0
    assert main([
        "build", str(trace), str(index),
        "--span", "300", "--eventlist", "60", "--partition-size", "24",
    ]) == 0
    capsys.readouterr()

    assert main(["query", str(index), "snapshot", "200"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["snapshot"]["nodes"] > 0
    assert out["deltas_fetched"] > 0

    assert main(["query", str(index), "node", "5", "50", "400"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["node"] == 5 and len(out["versions"]) >= 1

    assert main(["query", str(index), "khop", "5", "400", "-k", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 5 in out["members"]


def test_cli_inspect_events(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    main(["generate", "social", str(trace), "--nodes", "30", "--steps", "200"])
    capsys.readouterr()
    assert main(["inspect", str(trace), "--kind", "events"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["events"] > 0
    assert "NODE_ADD" in out["event_kinds"]


def test_cli_inspect_index(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    index = tmp_path / "i.hgs"
    main(["generate", "citation", str(trace), "--nodes", "80"])
    main(["build", str(trace), str(index), "--span", "200",
          "--eventlist", "50", "--partition-size", "20"])
    capsys.readouterr()
    assert main(["inspect", str(index), "--kind", "index"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "TGI" and out["timespans"] >= 1
    # stored rows and KiB per row kind add up to the index's totals
    storage = out["storage"]
    assert set(storage) == {"micro_delta", "eventlist", "version_chain"}
    assert all(kind["rows"] > 0 for kind in storage.values())
    assert sum(kind["rows"] for kind in storage.values()) == out["rows"]
    assert abs(
        sum(kind["stored_kib"] for kind in storage.values())
        - out["stored_kib"]
    ) <= 2
    # a chain row is six ints per pointer, well under an eventlist row
    chains, lists = storage["version_chain"], storage["eventlist"]
    assert (chains["stored_kib"] / chains["rows"]
            < lists["stored_kib"] / lists["rows"])


def test_cli_build_mincut_options(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    index = tmp_path / "i.hgs"
    main(["generate", "friendster", str(trace), "--nodes", "100"])
    assert main([
        "build", str(trace), str(index), "--span", "300",
        "--eventlist", "60", "--partition-size", "25",
        "--mincut", "--replicate-boundary", "--machines", "3",
        "--replication", "2", "--compress",
    ]) == 0


def test_cli_explain_prints_plan_without_fetching(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    index = tmp_path / "i.hgs"
    main(["generate", "citation", str(trace), "--nodes", "80"])
    main(["build", str(trace), str(index), "--span", "200",
          "--eventlist", "50", "--partition-size", "20"])
    capsys.readouterr()

    assert main(["query", str(index), "--explain", "snapshot", "200"]) == 0
    out = capsys.readouterr().out
    assert "FetchPlan[snapshot(t=200)]" in out
    assert "estimate:" in out
    assert "snapshot" in out and "{" not in out  # no executed-query JSON

    assert main(["query", str(index), "--explain", "node", "5", "50",
                 "300"]) == 0
    out = capsys.readouterr().out
    assert "FetchPlan[node_history" in out

    assert main(["query", str(index), "--explain", "khop", "5", "300",
                 "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "FetchPlan[khop" in out


def test_cli_explain_pipelined_shows_timeline(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    index = tmp_path / "i.hgs"
    main(["generate", "citation", str(trace), "--nodes", "80"])
    main(["build", str(trace), str(index), "--span", "200",
          "--eventlist", "50", "--partition-size", "20"])
    capsys.readouterr()
    assert main(["query", str(index), "--explain", "snapshot", "200"]) == 0
    out = capsys.readouterr().out
    assert "ExecutionTimeline[" in out
    assert "overlap saved" in out


def test_cli_query_refuses_a_baseline_index(tmp_path, capsys):
    from repro.index.copylog import CopyLogIndex
    from repro.storage import save_index

    baseline = CopyLogIndex()
    baseline.build(random_history(steps=60, seed=4))
    path = tmp_path / "copylog.hgs"
    save_index(baseline, path)
    capsys.readouterr()
    assert main(["query", str(path), "snapshot", "30"]) == 1
    captured = capsys.readouterr()
    assert "CopyLogIndex" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("flag", [
    ["--no-pipeline"], ["--apply-workers", "4"], ["--no-coalesce"],
])
def test_cli_build_rejects_the_removed_schedule_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(["build", str(tmp_path / "t.jsonl"), str(tmp_path / "i.hgs")]
             + flag)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_tgi_config_has_no_schedule_knobs():
    from repro.index.tgi import TGIConfig

    for knob in ("pipeline", "coalesce", "apply_workers"):
        with pytest.raises(TypeError):
            TGIConfig(**{knob: False})
