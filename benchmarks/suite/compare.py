"""Compare two result files of the suite, row by row, against the bounds.

This is the tool behind the two-set acceptance check of the benchmark itself
and behind later parent-versus-change reviews: one row per (end-to-end
metric, workload) with both medians, quartiles, the relative difference and
a verdict.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List

from .metrics import END_TO_END
from .workloads import WORKLOADS


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, sample count and quartile spread (as a share of the median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / abs(median) if median else 0.0,
    }


def _values(results: dict, workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in results["runs"]
        if run["workload"] == workload and metric in run["metrics"]
    ]


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """``agree`` / ``worse`` / ``unresolved`` for B against A.

    Where either side's quartile spread is wider than the bound the medians
    cannot settle it: the row is unresolved unless every B run reads on one
    side of every A run.
    """
    if better == "higher":  # negate, so that lower is better from here on
        a, b = [-value for value in a], [-value for value in b]
    qa, qb = quartiles(a), quartiles(b)
    worse_by = (qb["median"] - qa["median"]) / (abs(qa["median"]) or 1.0)
    if max(qa["spread"], qb["spread"]) > bound:
        if max(b) < min(a):
            return "agree"
        return "worse" if min(b) > max(a) and worse_by > bound else "unresolved"
    return "worse" if worse_by > bound else "agree"


def compare(path_a: Path, path_b: Path) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    print(f"A = {path_a}\nB = {path_b}")
    bad = 0
    for metric in END_TO_END:
        for workload in WORKLOADS:
            va, vb = _values(a, workload, metric.name), _values(b, workload, metric.name)
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            outcome = verdict(va, vb, metric.better, metric.bound)
            bad += outcome != "agree"
            relative = (qb["median"] - qa["median"]) / (abs(qa["median"]) or 1.0)
            print(
                f"{metric.name:<12} {workload:<12} "
                f"A {qa['median']:>12.4f} [{qa['q1']:.4f}, {qa['q3']:.4f}] n={qa['n']}  "
                f"B {qb['median']:>12.4f} [{qb['q1']:.4f}, {qb['q3']:.4f}] n={qb['n']}  "
                f"{relative:+7.2%} (bound {metric.bound:.0%}, {metric.better} is better)  "
                f"{outcome}"
            )
    print(f"{bad} row(s) do not agree" if bad else "every row agrees")
    return 1 if bad else 0
