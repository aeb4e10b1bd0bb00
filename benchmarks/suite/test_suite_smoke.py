"""Smoke test of the benchmark suite (collected by the tier-1 run, < 5 s).

Runs all five workloads at toy size through the same code path the real
benchmark uses — plain and traced — and checks that ``BENCHMARK.json`` is
exactly what ``metrics.manifest()`` describes and stays inside the driver's
limits.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from .measure import measure
from .reference import Reference
from .metrics import END_TO_END, PER_LAYER, manifest
from .compare import verdict
from .workloads import WORKLOADS, generate

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_plain_and_traced_at_toy_size(name, tmp_path):
    workload = WORKLOADS[name].toy()
    reference = Reference(records=512, picks=64)
    plain = measure(
        workload, 7, 0.2, False, min_reps=1, reference=reference, log=lambda line: None
    )
    assert plain.correct, plain.violations
    assert set(plain.metrics) == {metric.name for metric in END_TO_END}
    assert all(value > 0 for value in plain.metrics.values())
    assert plain.attempted >= 1 and plain.failed == 0

    traced = measure(
        workload, 7, 0.2, True, reference=reference, trace_dir=tmp_path, log=lambda line: None
    )
    assert traced.correct, traced.violations
    assert set(traced.metrics) == {metric.name for metric in PER_LAYER}
    spans = json.loads((tmp_path / f"trace-{name}.json").read_text())
    assert spans["span_fields"] == ["name", "start", "end", "parent"]
    assert spans["spans"], "a traced run records spans"


def test_inputs_depend_only_on_the_seed():
    read, lanes = WORKLOADS["fleet_read"].toy(), WORKLOADS["lanes_read"].toy()
    assert generate(read, 3) == generate(read, 3)
    assert generate(read, 3) != generate(read, 4)
    assert generate(read, 3).operations == generate(lanes, 3).operations


def test_manifest_matches_the_metric_definitions_and_the_limits():
    document = json.loads(MANIFEST.read_text())
    assert document == manifest()
    assert document["paths"] == ["benchmarks/suite"]
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in document[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(entry["why"]) <= 200 for entry in document["workloads"])
    assert all(0 <= metric.bound <= 0.25 for metric in END_TO_END)
    assert any(
        metric.name == "setup_s" and metric.unit == "s" and metric.better == "lower"
        for metric in END_TO_END
    )
    assert all(metric.moves for metric in PER_LAYER)


def test_verdict_reads_the_bound_and_the_spread():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, [v * 1.02 for v in steady], "lower", 0.10) == "agree"
    assert verdict(steady, [v * 1.30 for v in steady], "lower", 0.10) == "worse"
    assert verdict(steady, [v * 0.70 for v in steady], "higher", 0.10) == "worse"
    noisy = [60.0, 100.0, 140.0, 180.0]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10) == "unresolved"
    assert verdict(noisy, [v * 0.2 for v in noisy], "lower", 0.10) == "agree"
