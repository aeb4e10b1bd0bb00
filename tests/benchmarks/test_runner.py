"""Tests for the declarative experiment runner (`benchmarks/runner.py`).

Grid expansion/canonicalization and run-order randomization are pure and
tested directly.  The end-to-end test drives a deliberately tiny live grid
through the real engine and checks the acceptance contract: every sample
retained with per-sample host affinity and phase percentiles, >= 3
repetitions per cell, a gate that passes against itself and correctly fails
on a synthetic 30%-slower injected sample set.
"""

from __future__ import annotations

import copy
import json

import pytest

import runner


TINY_SPEC = {
    "name": "tiny",
    "repetitions": 3,
    "order_seed": 7,
    "ops_per_feed": 16,
    "factors": {
        "execution_mode": ["serial", "process"],
        "workers": [2],
        "fleet_size": [4],
        "workload": ["mixed"],
    },
}


# ---------------------------------------------------------------------------
# Grid expansion and canonicalization
# ---------------------------------------------------------------------------


def test_expand_cells_canonicalizes_the_grid():
    spec = {
        "ops_per_feed": 32,
        "factors": {
            "execution_mode": ["serial", "process"],
            "workers": [1, 2],
            "fleet_size": [8],
            "workload": ["mixed", "churn"],
        },
    }
    cells = runner.expand_cells(spec)
    labels = {(c.workload, c.execution_mode, c.workers) for c in cells}
    # Serial collapses to one worker; process × churn runs on the elastic
    # engine and stays in the grid.
    assert labels == {
        (workload, mode, workers)
        for workload in ("mixed", "churn")
        for mode, workers in (("serial", 1), ("process", 1), ("process", 2))
    }
    assert len(cells) == len(set(cells)), "cells must be deduplicated"
    assert cells == sorted(cells), "expansion must be deterministic"


def test_expand_cells_rejects_unknown_factors():
    with pytest.raises(ValueError):
        runner.expand_cells({"factors": {"execution_mode": ["quantum"]}})
    with pytest.raises(ValueError):
        runner.expand_cells({"factors": {"workload": ["mystery"]}})


def test_expand_cells_rejects_empty_grid():
    with pytest.raises(ValueError):
        runner.expand_cells(
            {"factors": {"execution_mode": ["process"], "workers": [0]}}
        )


def test_auto_workers_tracks_affinity():
    assert runner.auto_workers(1) == [1, 2]
    assert runner.auto_workers(2) == [1, 2]
    assert runner.auto_workers(8) == [1, 2, 4, 8]
    assert runner.auto_workers(6) == [1, 2, 4]


def test_run_order_is_a_seeded_permutation():
    cells = runner.expand_cells(TINY_SPEC)
    first = runner.run_order(cells, 3, order_seed=11)
    again = runner.run_order(cells, 3, order_seed=11)
    other = runner.run_order(cells, 3, order_seed=12)
    assert first == again, "same seed must reproduce the same order"
    assert sorted(first) == sorted(other), "every (cell, rep) runs exactly once"
    assert len(first) == len(cells) * 3


def test_load_spec_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TINY_SPEC))
    assert runner.load_spec(path) == TINY_SPEC


def test_load_spec_yaml(tmp_path):
    yaml = pytest.importorskip("yaml")
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(TINY_SPEC))
    assert runner.load_spec(path) == TINY_SPEC


def test_repetitions_floor_is_enforced():
    spec = dict(TINY_SPEC, repetitions=2)
    with pytest.raises(ValueError, match="repetitions"):
        runner.run_experiments(spec)


# ---------------------------------------------------------------------------
# End-to-end: a tiny live grid through the real engine
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_payload():
    return runner.run_experiments(TINY_SPEC)


def test_every_sample_is_retained_with_affinity_and_phases(tiny_payload):
    cells = runner.expand_cells(TINY_SPEC)
    samples = tiny_payload["samples"]
    assert len(samples) == len(cells) * TINY_SPEC["repetitions"]
    for sample in samples:
        affinity = sample["host_affinity"]
        assert affinity["effective_cpus"] >= 1
        assert affinity["cpu_set"], "per-sample CPU set must be captured"
        assert sample["phases"], "per-run phase percentiles must be folded in"
        for row in sample["phases"].values():
            assert row["count"] > 0 and row["p50"] <= row["p95"] <= row["p99"]
        assert sample["fingerprint"]
        assert sample["ops_per_sec"] > 0
    # Randomized order: order_index is a permutation of 0..N-1.
    assert sorted(s["order_index"] for s in samples) == list(range(len(samples)))


def test_cells_get_at_least_three_repetitions(tiny_payload):
    counts = {}
    for sample in tiny_payload["samples"]:
        counts[runner._sample_key(sample)] = counts.get(runner._sample_key(sample), 0) + 1
    assert counts and all(count >= 3 for count in counts.values())


def test_analysis_summarizes_every_cell(tiny_payload):
    analysis = tiny_payload["analysis"]
    assert analysis["confidence"] == 0.95
    for key, metrics in analysis["cells"].items():
        summary = metrics["ops_per_sec"]
        assert summary["n"] >= 3
        assert summary["ci_low"] <= summary["mean"] <= summary["ci_high"]
        assert len(summary["samples"]) == summary["n"], "samples retained"
    # Effect sizes: the process cell is compared against its serial reference.
    assert any(
        comparison["metric"] == "ops_per_sec"
        and "mode=serial" in comparison["reference"]
        for comparison in analysis["comparisons"]
    )


def test_equivalence_holds_across_backends(tiny_payload):
    fingerprints = {s["fingerprint"] for s in tiny_payload["samples"]}
    assert len(fingerprints) == 1, "serial and process runs must be bit-identical"


def test_gate_passes_against_itself(tiny_payload):
    failures = runner.check_regression(tiny_payload, tiny_payload)
    assert failures == []


# ---------------------------------------------------------------------------
# The gate on crafted payloads (deterministic — no live timing involved)
# ---------------------------------------------------------------------------


def _synthetic_payload(per_cell_values):
    """Payload with crafted ops_per_sec samples for two cells (serial, process)."""
    samples = []
    for (mode, workers), values in per_cell_values.items():
        for rep, value in enumerate(values):
            samples.append(
                {
                    "workload": "mixed",
                    "fleet_size": 8,
                    "execution_mode": mode,
                    "workers": workers,
                    "ops_per_feed": 32,
                    "repetition": rep,
                    "ops_per_sec": value,
                }
            )
    return {"samples": samples}


BASELINE_VALUES = {
    ("serial", 1): [1000.0, 1020.0, 980.0, 1010.0, 990.0],
    ("process", 2): [1500.0, 1530.0, 1470.0, 1515.0, 1485.0],
}


def test_gate_fails_on_synthetic_30pct_slower_samples():
    baseline = _synthetic_payload(BASELINE_VALUES)
    degraded = _synthetic_payload(
        {
            cell: [value * 0.7 for value in values]
            for cell, values in BASELINE_VALUES.items()
        }
    )
    failures = runner.check_regression(baseline, degraded)
    assert len(failures) == len(BASELINE_VALUES), (
        "every cell's 30%-slower distribution must be flagged"
    )
    assert all("REGRESSION" in failure for failure in failures)


def test_gate_tolerates_small_jitter():
    baseline = _synthetic_payload(BASELINE_VALUES)
    jittered = _synthetic_payload(
        {
            cell: [
                value * (1.01 if index % 2 == 0 else 0.99)
                for index, value in enumerate(values)
            ]
            for cell, values in BASELINE_VALUES.items()
        }
    )
    assert runner.check_regression(baseline, jittered) == []


def test_gate_ignores_improvements():
    baseline = _synthetic_payload(BASELINE_VALUES)
    improved = _synthetic_payload(
        {
            cell: [value * 1.5 for value in values]
            for cell, values in BASELINE_VALUES.items()
        }
    )
    assert runner.check_regression(baseline, improved) == []


def test_gate_refuses_to_compare_nothing():
    baseline = _synthetic_payload(BASELINE_VALUES)
    other = copy.deepcopy(baseline)
    for sample in other["samples"]:
        sample["fleet_size"] = 999  # no key overlap with the baseline
    with pytest.raises(AssertionError, match="no comparable cells"):
        runner.check_regression(baseline, other)


@pytest.mark.parametrize("missing_from", ["baseline", "current"])
def test_gate_judges_only_the_cells_both_sides_hold(missing_from):
    """A cell one side lacks (rows trimmed from the committed baseline, or a
    grid that grew or shrank) neither fails the gate nor hides a regression
    in a cell both sides do hold."""
    serial_only = {("serial", 1): BASELINE_VALUES[("serial", 1)]}
    slower = {cell: [v * 0.7 for v in values] for cell, values in BASELINE_VALUES.items()}
    if missing_from == "baseline":
        baseline, same, degraded = serial_only, BASELINE_VALUES, slower
    else:
        baseline, same = BASELINE_VALUES, serial_only
        degraded = {("serial", 1): slower[("serial", 1)]}
    baseline = _synthetic_payload(baseline)
    assert runner.check_regression(baseline, _synthetic_payload(same)) == []
    failures = runner.check_regression(baseline, _synthetic_payload(degraded))
    assert len(failures) == 1 and "mode=serial" in failures[0]


def test_committed_baseline_matches_smoke_grid():
    """The committed BENCH_experiments.json must stay comparable to the CI
    smoke grid, or the bench-stats gate would refuse to run."""
    committed_path = runner.BENCH_DIR.parent / "BENCH_experiments.json"
    committed = json.loads(committed_path.read_text())
    committed_keys = {runner._sample_key(s) for s in committed["samples"]}
    smoke_keys = {cell.key for cell in runner.expand_cells(runner.SMOKE_SPEC)}
    assert smoke_keys <= committed_keys
    reps = committed["spec"]["repetitions"]
    assert reps >= 3
    for sample in committed["samples"]:
        assert sample["host_affinity"]["effective_cpus"] >= 1
