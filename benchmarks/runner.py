"""Declarative experiment runner with a statistical regression gate.

The muBench-style harness the ROADMAP called for: instead of each benchmark
script reporting a best-of-N point estimate, an *experiment spec* declares
factors × repetitions, the runner expands the factor grid into cells,
randomizes the run order (so drift on the host decorrelates from any one
cell), drives the existing ``bench_hotpath`` / ``bench_churn`` machinery as
importable functions, and retains **every sample** in one tidy
``BENCH_experiments.json``.  A statistics stage (:mod:`repro.analysis.stats`)
then reports mean ± 95% CI per cell and effect sizes between cells, and
``--check-regression`` flags a regression only when the baseline and current
sample distributions statistically separate (Welch's t or non-overlapping
bootstrap CIs) *and* the shift clears an explicit actionability floor —
replacing the old single-sample 20% threshold gates that used to live in
``bench_hotpath.py``.

Spec format (``--spec FILE`` accepts JSON always, YAML when PyYAML is
importable)::

    {
      "name": "nightly",
      "repetitions": 5,
      "order_seed": 20260808,
      "ops_per_feed": 96,
      "factors": {
        "execution_mode": ["serial", "process"],
        "workers": [2, 4],            # process lanes; "auto" expands from
                                      # the host's effective CPUs
        "fleet_size": [16, 32],       # feeds (churn: resident base feeds)
        "workload": ["mixed", "read_heavy", "write_heavy", "churn"]
      }
    }

Grid canonicalization: ``serial`` always runs one worker.
``process × churn`` cells run like any others — the lane engine migrates
feeds between lanes at churn and re-shard boundaries — and their
fingerprints join the cross-backend equivalence check, so the migration path
is equivalence-gated on every CI run.  Every sample records per-run host
affinity (``effective_cpus`` and
the actual CPU set — CI containers routinely advertise many CPUs while
granting one) plus the run's per-phase latency percentiles from an attached
observability plane.  When the host grants more than one effective CPU the
default grids extend the process-lane axis to the affinity (``"auto"``) and
the payload records ``"multicore_sweep": "recorded"`` — otherwise it stays
``"pending"``, closing the known BENCH_hotpath gap only on capable hosts
instead of pretending a 1-CPU container measured scaling.

Usage::

    PYTHONPATH=src python benchmarks/runner.py --smoke     # <60s CI grid
    PYTHONPATH=src python benchmarks/runner.py             # full grid
    PYTHONPATH=src python benchmarks/runner.py --spec my_experiment.yaml
    PYTHONPATH=src python benchmarks/runner.py --smoke \
        --check-regression BENCH_experiments.json          # the CI gate
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import bench_churn
import bench_hotpath

from repro.analysis import stats
from repro.analysis.reporting import format_rate, format_table
from repro.gateway import EXECUTION_MODES
from repro.obs import Observability

HOTPATH_PROFILES = tuple(sorted(bench_hotpath.PROFILE_RATIOS))
WORKLOADS = HOTPATH_PROFILES + ("churn",)

#: Gated metrics: direction plus the per-metric actionability floor.
#: Throughput gets a generous floor because baseline and current routinely
#: come from different host classes; wire bytes/epoch are deterministic for a
#: fixed workload, so their floor only absorbs deliberate format evolution.
GATED_METRICS = {
    "ops_per_sec": {"higher_is_better": True, "min_relative_change": 0.15},
    "ipc_bytes_per_epoch": {"higher_is_better": False, "min_relative_change": 0.05},
}

#: Metrics summarized per cell in the analysis stage (gated or not).
SUMMARY_METRICS = ("ops_per_sec", "wall_seconds", "gas_per_op", "ipc_bytes_per_epoch")

SMOKE_SPEC = {
    "name": "smoke",
    "repetitions": 5,
    "order_seed": 20260808,
    "ops_per_feed": 48,
    "factors": {
        "execution_mode": list(EXECUTION_MODES),
        "workers": [1, 2],
        "fleet_size": [12],
        "workload": ["mixed", "churn"],
    },
}

FULL_SPEC = {
    "name": "full",
    "repetitions": 5,
    "order_seed": 20260808,
    "ops_per_feed": 96,
    "factors": {
        "execution_mode": list(EXECUTION_MODES),
        "workers": ["auto"],
        "fleet_size": [16, 32],
        "workload": ["mixed", "read_heavy", "write_heavy", "churn"],
    },
}

CHURN_SEED = bench_churn.DEFAULT_SEED


# ---------------------------------------------------------------------------
# Spec → cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Cell:
    """One factor combination; ``repetitions`` samples are taken per cell."""

    workload: str
    fleet_size: int
    execution_mode: str
    workers: int
    ops_per_feed: int

    @property
    def key(self) -> str:
        return (
            f"workload={self.workload}|fleet={self.fleet_size}"
            f"|mode={self.execution_mode}|workers={self.workers}"
            f"|ops={self.ops_per_feed}"
        )

    @property
    def group(self) -> Tuple[str, int, int]:
        """Cells sharing a group run identical inputs → identical fingerprints."""
        return (self.workload, self.fleet_size, self.ops_per_feed)

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "fleet_size": self.fleet_size,
            "execution_mode": self.execution_mode,
            "workers": self.workers,
            "ops_per_feed": self.ops_per_feed,
        }


def auto_workers(cpus: Optional[int] = None) -> List[int]:
    """``"auto"`` worker axis: 1, 2 and powers of two up to the affinity."""
    cpus = cpus or bench_hotpath.effective_cpus()
    counts = {1, 2}
    lane = 4
    while lane <= cpus:
        counts.add(lane)
        lane *= 2
    return sorted(counts)


def load_spec(path: Path) -> dict:
    """Load a spec file: JSON always, YAML when PyYAML is available."""
    text = path.read_text()
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - depends on host env
            raise RuntimeError(
                f"{path} is YAML but PyYAML is not installed; "
                "re-export the spec as JSON (the runner always accepts JSON)"
            ) from exc
        return yaml.safe_load(text)
    return json.loads(text)


def expand_cells(spec: dict) -> List[Cell]:
    """Expand a spec's factor grid into canonical, deduplicated cells.

    Canonicalization: serial forces one worker.  The returned list is
    deterministically sorted — randomization happens at the *run order*
    level, not here.
    """
    factors = spec.get("factors", {})
    modes = list(factors.get("execution_mode", ["serial"]))
    workers_axis: List[int] = []
    for value in factors.get("workers", [1]):
        if value == "auto":
            workers_axis.extend(auto_workers())
        else:
            workers_axis.append(int(value))
    fleet_sizes = [int(v) for v in factors.get("fleet_size", [16])]
    workloads = list(factors.get("workload", ["mixed"]))
    ops_per_feed = int(spec.get("ops_per_feed", 96))

    for mode in modes:
        if mode not in EXECUTION_MODES:
            raise ValueError(f"unknown execution_mode {mode!r} in spec")
    for workload in workloads:
        if workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {workload!r} in spec; expected one of {WORKLOADS}"
            )

    cells = set()
    for mode, workers, fleet, workload in itertools.product(
        modes, workers_axis, fleet_sizes, workloads
    ):
        if mode == "serial":
            workers = 1
        elif mode == "process" and workers < 1:
            continue
        cells.add(
            Cell(
                workload=workload,
                fleet_size=fleet,
                execution_mode=mode,
                workers=workers,
                ops_per_feed=ops_per_feed,
            )
        )
    if not cells:
        raise ValueError("spec expanded to an empty factor grid")
    return sorted(cells)


def run_order(cells: Sequence[Cell], repetitions: int, order_seed: int) -> List[Tuple[Cell, int]]:
    """All (cell, repetition) runs in a seed-randomized order.

    Randomizing the order decorrelates slow host drift (thermal throttling,
    noisy neighbours on shared runners) from any one cell — the reason the
    runner does not simply loop cells in sequence.
    """
    runs = [(cell, rep) for cell in cells for rep in range(repetitions)]
    random.Random(order_seed).shuffle(runs)
    return runs


# ---------------------------------------------------------------------------
# Driving one run
# ---------------------------------------------------------------------------


def _fingerprint_digest(fingerprint: dict) -> str:
    """Short stable digest of a fleet fingerprint (a nested plain-data dict).

    The full dict is the bit-identical equivalence object; samples carry a
    sha256 prefix of its canonical JSON so the experiments file stays tidy
    while cross-backend equality remains checkable.
    """
    canonical = json.dumps(fingerprint, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _host_affinity() -> dict:
    """Per-run affinity capture: what the scheduler actually granted."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        cpus = list(range(os.cpu_count() or 1))
    return {"effective_cpus": len(cpus), "cpu_set": cpus}


def _phase_record(obs: Observability) -> dict:
    return {
        phase: {
            "count": row["count"],
            "p50": round(row["p50"], 6),
            "p95": round(row["p95"], 6),
            "p99": round(row["p99"], 6),
        }
        for phase, row in obs.phase_percentiles().items()
    }


def run_once(cell: Cell, workloads_cache: Dict[Tuple[str, int, int], dict]) -> dict:
    """Execute one sample of ``cell``; every run is traced (obs attached).

    All samples carry the same ~constant tracing overhead, so within-file
    comparisons stay like-for-like; the per-phase percentiles are folded into
    the sample rather than recorded from a separate annotation run.
    """
    obs = Observability()
    if cell.workload == "churn":
        _, registry, fleet = bench_churn.run_fleet(
            CHURN_SEED,
            cell.ops_per_feed,
            cell.workers,
            base_feeds=cell.fleet_size,
            obs=obs,
            execution_mode=cell.execution_mode,
        )
    else:
        if cell.group not in workloads_cache:
            workloads_cache[cell.group] = bench_hotpath.build_workloads(
                cell.ops_per_feed,
                num_feeds=cell.fleet_size,
                profile=cell.workload,
            )
        registry, fleet = bench_hotpath.run_fleet_once(
            cell.execution_mode,
            cell.workers,
            workloads_cache[cell.group],
            obs=obs,
        )
    sample = {
        **cell.as_dict(),
        "wall_seconds": round(fleet.wall_seconds, 4),
        "ops_per_sec": round(fleet.ops_per_second, 1),
        "gas_per_op": round(fleet.gas_per_operation, 2),
        "operations": fleet.operations,
        "cache_hit_rate": round(fleet.cache_hit_rate, 4),
        "fingerprint": _fingerprint_digest(fleet.fingerprint()),
        "host_affinity": _host_affinity(),
        "phases": _phase_record(obs),
    }
    if getattr(fleet, "ipc", None) is not None:
        sample["ipc_bytes_per_epoch"] = round(fleet.ipc["bytes_per_epoch"], 2)
    return sample


def check_equivalence(samples: Sequence[dict]) -> None:
    """Same inputs ⇒ same fingerprint, across every backend and repetition.

    The engine's bit-identical guarantee, enforced on the whole experiment:
    all samples of one (workload, fleet, ops) group must agree.
    """
    by_group: Dict[tuple, Dict[str, str]] = {}
    for sample in samples:
        group = (sample["workload"], sample["fleet_size"], sample["ops_per_feed"])
        label = f"{sample['execution_mode']}/{sample['workers']}"
        by_group.setdefault(group, {})[label] = sample["fingerprint"]
    violations = []
    for group, fingerprints in by_group.items():
        if len(set(fingerprints.values())) > 1:
            violations.append(f"{group}: {sorted(fingerprints)}")
    if violations:
        raise AssertionError(
            "cross-backend equivalence violated: " + "; ".join(violations)
        )


# ---------------------------------------------------------------------------
# Statistics stage
# ---------------------------------------------------------------------------


def _cell_samples(samples: Sequence[dict], key: str, metric: str) -> List[float]:
    return [
        sample[metric]
        for sample in samples
        if _sample_key(sample) == key and metric in sample
    ]


def _sample_key(sample: dict) -> str:
    return (
        f"workload={sample['workload']}|fleet={sample['fleet_size']}"
        f"|mode={sample['execution_mode']}|workers={sample['workers']}"
        f"|ops={sample['ops_per_feed']}"
    )


def analyze(samples: Sequence[dict], confidence: float = 0.95) -> dict:
    """Per-cell summaries (mean ± CI) and effect sizes versus the serial cell."""
    keys: List[str] = []
    for sample in samples:
        key = _sample_key(sample)
        if key not in keys:
            keys.append(key)

    cells: Dict[str, dict] = {}
    for key in keys:
        cells[key] = {}
        for metric in SUMMARY_METRICS:
            values = _cell_samples(samples, key, metric)
            if values:
                summary = stats.summarize(values, confidence)
                record = summary.as_dict()
                record["samples"] = values
                cells[key][metric] = record

    # Effect sizes: every non-serial cell versus the serial cell of its group.
    serial_by_group: Dict[tuple, str] = {}
    group_by_key: Dict[str, tuple] = {}
    for sample in samples:
        key = _sample_key(sample)
        group = (sample["workload"], sample["fleet_size"], sample["ops_per_feed"])
        group_by_key[key] = group
        if sample["execution_mode"] == "serial":
            serial_by_group[group] = key
    comparisons = []
    for key in keys:
        reference = serial_by_group.get(group_by_key[key])
        if reference is None or reference == key:
            continue
        base = _cell_samples(samples, reference, "ops_per_sec")
        curr = _cell_samples(samples, key, "ops_per_sec")
        if not base or not curr:
            continue
        comparison = stats.compare_cells(base, curr, confidence)
        speedup = (
            round(comparison.current.mean / comparison.baseline.mean, 3)
            if comparison.baseline.mean
            else None
        )
        comparisons.append(
            {
                "cell": key,
                "reference": reference,
                "metric": "ops_per_sec",
                "speedup_vs_serial": speedup,
                "cohen_d": _json_number(comparison.cohen_d, 3),
                "t_statistic": _json_number(comparison.t_statistic, 3),
                "welch_df": round(comparison.welch_df, 2),
                "welch_significant": comparison.welch_significant,
                "relative_change": round(comparison.relative_change, 4),
            }
        )
    return {"confidence": confidence, "cells": cells, "comparisons": comparisons}


def _json_number(value: float, digits: int):
    """Round for JSON, mapping ±inf (zero-variance separations) to strings."""
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    return round(value, digits)


# ---------------------------------------------------------------------------
# The statistical regression gate
# ---------------------------------------------------------------------------


def check_regression(
    committed_payload: dict,
    current_payload: dict,
    *,
    confidence: float = 0.95,
    metrics: Optional[dict] = None,
) -> List[str]:
    """Gate ``current_payload`` against a committed baseline, cell by cell.

    Cells are matched by their full factor key; for each gated metric present
    on both sides, :func:`repro.analysis.stats.check_regression` decides — a
    regression needs the sample distributions to separate (Welch's t or
    non-overlapping bootstrap CIs) *and* the mean shift to clear the metric's
    actionability floor.  Returns the failure messages (empty = gate passed);
    raises if nothing was comparable, because a silently skipped gate is
    worse than a loud one.
    """
    metrics = metrics or GATED_METRICS
    committed_samples = committed_payload["samples"]
    current_samples = current_payload["samples"]
    committed_keys = {_sample_key(s) for s in committed_samples}
    current_keys = {_sample_key(s) for s in current_samples}
    failures: List[str] = []
    compared = 0
    for key in sorted(committed_keys & current_keys):
        for metric, config in metrics.items():
            baseline = _cell_samples(committed_samples, key, metric)
            current = _cell_samples(current_samples, key, metric)
            if len(baseline) < 2 or len(current) < 2:
                continue
            verdict = stats.check_regression(
                baseline,
                current,
                higher_is_better=config["higher_is_better"],
                confidence=confidence,
                min_relative_change=config["min_relative_change"],
            )
            compared += 1
            print(f"gate [{key}] {metric}: {verdict.reason}")
            if verdict.regressed:
                failures.append(f"[{key}] {metric}: {verdict.reason}")
    if compared == 0:
        raise AssertionError(
            "regression gate found no comparable cells (>= 2 samples per side) "
            "between the current run and the committed baseline — "
            "did the factor grid change without refreshing BENCH_experiments.json?"
        )
    skipped = sorted(committed_keys - current_keys)
    if skipped:
        print(f"gate: {len(skipped)} committed cell(s) not in this run: {skipped}")
    return failures


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


def run_experiments(spec: dict) -> dict:
    """Expand, randomize, run and analyze one experiment spec."""
    repetitions = int(spec.get("repetitions", 3))
    if repetitions < 3:
        raise ValueError(
            "repetitions must be >= 3 — the statistics stage needs a spread, "
            "not another point estimate"
        )
    order_seed = int(spec.get("order_seed", 0))
    cells = expand_cells(spec)
    runs = run_order(cells, repetitions, order_seed)
    host = bench_hotpath.host_facts()
    print(
        f"experiment '{spec.get('name', 'unnamed')}': {len(cells)} cells × "
        f"{repetitions} repetitions = {len(runs)} runs "
        f"(randomized order, seed {order_seed}; "
        f"{host['effective_cpus']} effective CPU(s))"
    )

    workloads_cache: Dict[Tuple[str, int, int], dict] = {}
    samples: List[dict] = []
    for order_index, (cell, rep) in enumerate(runs):
        sample = run_once(cell, workloads_cache)
        sample["repetition"] = rep
        sample["order_index"] = order_index
        sample["recorded_at_unix"] = round(time.time(), 3)
        samples.append(sample)
        print(
            f"  [{order_index + 1:>3}/{len(runs)}] {cell.key} rep={rep} "
            f"{sample['wall_seconds']:.3f}s "
            f"{format_rate(sample['ops_per_sec'], 'ops/s')}"
        )
    check_equivalence(samples)

    analysis = analyze(samples)
    rows = []
    for key, metrics_record in analysis["cells"].items():
        if "ops_per_sec" not in metrics_record:
            continue
        summary = metrics_record["ops_per_sec"]
        rows.append(
            (
                key,
                summary["n"],
                f"{summary['mean']:,.0f}",
                f"±{(summary['ci_high'] - summary['ci_low']) / 2:,.0f}",
                f"[{summary['ci_low']:,.0f}, {summary['ci_high']:,.0f}]",
                f"{summary['stddev']:,.0f}",
            )
        )
    print()
    print(
        format_table(
            ["cell", "n", "mean ops/s", "half-width", "95% CI", "stddev"],
            rows,
            title="Per-cell throughput, mean ± 95% CI (every sample retained)",
        )
    )
    print(
        "equivalence: fingerprints bit-identical across all backends within "
        "every (workload, fleet, ops) group"
    )

    multicore = (
        "recorded"
        if host["effective_cpus"] > 1
        and any(
            s["execution_mode"] == "process" and s["workers"] > 1 for s in samples
        )
        else "pending"
    )
    if multicore == "pending":
        print(
            "note: multicore_sweep = pending — this host granted one effective "
            "CPU, so process-mode samples measure boundary overhead, not scaling"
        )
    return {
        "benchmark": "experiments",
        "source": "benchmarks/runner.py",
        "spec": {
            "name": spec.get("name", "unnamed"),
            "repetitions": repetitions,
            "order_seed": order_seed,
            "ops_per_feed": int(spec.get("ops_per_feed", 96)),
            "factors": spec.get("factors", {}),
            "cells": [cell.key for cell in cells],
        },
        "host": host,
        "multicore_sweep": multicore,
        "methodology": (
            "factors × repetitions in randomized run order; every sample "
            "retained; all runs traced (constant overhead); regressions "
            "gated on CI separation, not single-sample thresholds"
        ),
        "samples": samples,
        "analysis": analysis,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small factor grid for CI (<60s): 1 fleet size, 1 workload, "
        "3 repetitions per cell",
    )
    parser.add_argument(
        "--spec",
        type=Path,
        default=None,
        metavar="FILE",
        help="experiment spec file (JSON always; YAML when PyYAML is installed); "
        "overrides --smoke/--full grids",
    )
    parser.add_argument(
        "--repetitions", type=int, default=None, help="override the spec's repetitions"
    )
    parser.add_argument(
        "--order-seed", type=int, default=None, help="override the run-order seed"
    )
    parser.add_argument(
        "--check-regression",
        type=Path,
        default=None,
        metavar="COMMITTED_JSON",
        help="gate this run's cells against a committed BENCH_experiments.json "
        "(statistical CI separation, per-metric actionability floors) and "
        "exit non-zero on any regression",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        choices=(0.90, 0.95, 0.99),
        help="confidence level for intervals and the gate (default 0.95)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_experiments.json",
        help="where to write the results (default: repo-root BENCH_experiments.json)",
    )
    args = parser.parse_args(argv)

    if args.spec is not None:
        spec = load_spec(args.spec)
    else:
        spec = dict(SMOKE_SPEC if args.smoke else FULL_SPEC)
    if args.repetitions is not None:
        spec["repetitions"] = args.repetitions
    if args.order_seed is not None:
        spec["order_seed"] = args.order_seed

    started = time.perf_counter()
    payload = run_experiments(spec)
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"results written to {args.output}")
    print(f"experiment completed in {time.perf_counter() - started:.1f}s")

    if args.check_regression is not None:
        committed = json.loads(args.check_regression.read_text())
        failures = check_regression(
            committed, payload, confidence=args.confidence
        )
        if failures:
            raise AssertionError(
                "statistical regression gate failed:\n" + "\n".join(failures)
            )
        print("regression gate: PASS (no cell's distribution separated downward)")
    return 0


def host_facts() -> dict:
    """Re-exported for callers that only import the runner."""
    return bench_hotpath.host_facts()


if __name__ == "__main__":
    sys.exit(main())
