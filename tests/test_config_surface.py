"""The option surface, spelled out.

Every independently settable value doubles what tests and benchmarks
must cover, so the names are pinned here as literal lists: a knob added
(or removed) later has to edit this file, in a diff a reviewer sees.
"""

import argparse
import dataclasses
import inspect

import pytest

from repro import GraphSession, TGIConfig, open_graph
from repro.cli import _build_parser, main
from repro.kvstore.cluster import ClusterConfig
from repro.kvstore.resilience import ResiliencePolicy


def _fields(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_tgi_config_fields():
    assert _fields(TGIConfig) == [
        "events_per_timespan",
        "eventlist_size",
        "micro_partition_size",
        "arity",
        "placement_groups",
        "partitioning",
        "replicate_boundary",
        "collapse",
        "node_weighting",
        "delta_cache_entries",
        "checkpoint_entries",
        "cluster",
    ]


def test_cluster_config_fields():
    assert _fields(ClusterConfig) == [
        "num_machines",
        "replication",
        "compress",
        "cost_model",
        "checksums",
    ]


def test_resilience_policy_fields():
    assert _fields(ResiliencePolicy) == [
        "max_attempts",
        "hedge",
        "hedge_min_ms",
        "breaker_threshold",
        "breaker_cooldown_ms",
        "seed",
    ]


def test_session_keywords():
    assert list(inspect.signature(open_graph).parameters) == [
        "path",
        "workers",
        "clients",
        "cache_entries",
        "checkpoint_entries",
    ]
    assert list(inspect.signature(GraphSession.__init__).parameters) == [
        "self",
        "tgi",
        "index_id",
        "spark_context",
        "workers",
        "clients",
        "cache_entries",
        "checkpoint_entries",
    ]


def _build_flags():
    subparsers = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    build = subparsers.choices["build"]
    return sorted(
        flag for action in build._actions for flag in action.option_strings
    )


def test_hgs_build_flags():
    assert _build_flags() == [
        "--apply-cost",
        "--cache-entries",
        "--checkpoints",
        "--checksums",
        "--compress",
        "--eventlist",
        "--help",
        "--machines",
        "--mincut",
        "--partition-size",
        "--replicate-boundary",
        "--replication",
        "--span",
        "-h",
    ]


@pytest.mark.parametrize("flag", [
    ["--cache-bytes", "1024"],
    ["--checkpoint-admission", "always"],
    ["--codec", "columnar"],
])
def test_removed_build_flags_exit_2(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["build", "in.jsonl", "out.hgs", *flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
