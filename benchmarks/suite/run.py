#!/usr/bin/env python3
"""The repo benchmark's one command.

One run of one workload (what the benchmark driver invokes; the last line of
standard output is the result object)::

    python3 benchmarks/suite/run.py --workload fleet_read --seed 1 --seconds 12 --trace 0

The whole suite: every workload, ``--rounds`` runs each with seeds ``seed``,
``seed + 1``, ... interleaved round-robin so host drift decorrelates, every
metric printed by name with unit, median, quartiles and sample count::

    python3 benchmarks/suite/run.py [--seed N] [--rounds R] [--traced] [--out results.json]

Two result files compared row by row against each metric's bound::

    python3 benchmarks/suite/run.py --compare A.json B.json

Every mode exits non-zero when an output check, a run or a comparison fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"
if not (SOURCE / "repro").is_dir():
    sys.exit(f"{SOURCE / 'repro'} not found: run from a checkout of the repository")
# The program under test, then this directory's package (``suite``).
sys.path[:0] = [str(SOURCE), str(HERE.parent)]

from suite.compare import compare, quartiles  # noqa: E402
from suite.harness import CheckFailed, host_facts  # noqa: E402
from suite.measure import measure  # noqa: E402
from suite.metrics import END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402
from suite.workloads import WORKLOADS  # noqa: E402

DEFAULT_OUT = HERE / "out" / "results.json"
HOST_PREFIX = "#host "
SAMPLES_PREFIX = "#samples "


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    facts = dict(host_facts(), workload=name, seed=seed, seconds=seconds, traced=traced)
    print(HOST_PREFIX + json.dumps(facts))
    try:
        outcome = measure(WORKLOADS[name], seed, seconds, traced)
    except CheckFailed as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    result = outcome.result_line()
    print(SAMPLES_PREFIX + json.dumps(outcome.samples))
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<40} {entry['value']:>18.6f} {entry['unit']}")
    for violation in outcome.violations:
        print(f"VIOLATION {name}: {violation}", file=sys.stderr)
    if outcome.failed:
        print(
            f"VIOLATION {name}: {outcome.failed} of {outcome.attempted} operations failed",
            file=sys.stderr,
        )
    print(json.dumps(result))
    return 0 if outcome.correct else 1


# ---------------------------------------------------------------------------
# The whole suite
# ---------------------------------------------------------------------------


def summarize(runs: List[dict]) -> Dict[str, Dict[str, dict]]:
    """workload → metric → median, quartiles, sample count, unit."""
    samples: Dict[str, Dict[str, List[float]]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        for metric, entry in run["metrics"].items():
            samples.setdefault(run["workload"], {}).setdefault(metric, []).append(
                entry["value"]
            )
            units[metric] = entry["unit"]
    return {
        workload: {
            metric: dict(quartiles(values), unit=units[metric])
            for metric, values in by_metric.items()
        }
        for workload, by_metric in samples.items()
    }


def _invoke(name: str, seed: int, seconds: int, traced: bool) -> dict:
    """One run in its own process, so peak RSS and GC state are its own."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1" if traced else "0",
        ],
        capture_output=True,
        text=True,
    )
    lines = completed.stdout.strip().splitlines()
    run = {"workload": name, "seed": seed, "traced": traced, "exit": completed.returncode}
    sys.stderr.write(completed.stderr)
    if completed.returncode not in (0, 1) or not lines:
        run.update(correct=False, attempted=0, failed=0, metrics={})
        return run
    run.update(json.loads(lines[-1]))
    for key, prefix in (("host", HOST_PREFIX), ("samples", SAMPLES_PREFIX)):
        run[key] = next(
            json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix)
        )
    return run


def run_suite(seed: int, rounds: int, seconds: int, traced: bool, out: Path) -> int:
    runs: List[dict] = []
    for round_index in range(rounds):
        for name in WORKLOADS:
            for trace_flag in (False, True) if traced else (False,):
                run = _invoke(name, seed + round_index, seconds, trace_flag)
                runs.append(run)
                print(
                    f"round {round_index + 1}/{rounds} {name:<12} seed {run['seed']} "
                    f"{'traced' if trace_flag else 'plain '} "
                    f"{'ok' if run['correct'] else 'FAILED'} "
                    f"({run['failed']}/{run['attempted']} failed)",
                    flush=True,
                )
    summary = summarize(runs)
    bounds = {m.name: m.bound for m in END_TO_END}
    for workload, by_metric in summary.items():
        print(f"\n{workload}")
        for metric in (*END_TO_END, *PER_LAYER):
            row = by_metric.get(metric.name)
            if row is None:
                continue
            bound = f" bound {bounds[metric.name]:.2f}" if metric.name in bounds else ""
            print(
                f"  {metric.name:<40} {row['median']:>16.4f} {row['unit']:<6} "
                f"q1 {row['q1']:.4f} q3 {row['q3']:.4f} n {row['n']} "
                f"spread {row['spread']:.3f}{bound}"
            )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "seed": seed,
                "rounds": rounds,
                "run_seconds": seconds,
                "host": host_facts(),
                "summary": summary,
                "runs": runs,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"\nresults written to {out}")
    failed = [run for run in runs if not run["correct"]]
    for run in failed:
        print(
            f"FAILED {run['workload']} seed {run['seed']} (exit {run['exit']})",
            file=sys.stderr,
        )
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run this workload once")
    parser.add_argument("--seed", type=int, default=1, help="input seed (first round's, for the suite)")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--rounds", type=int, default=3, help="suite: runs per workload")
    parser.add_argument("--traced", action="store_true", help="suite: add a traced run per round")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="suite: results file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_suite(args.seed, args.rounds, args.seconds, args.traced, args.out)


if __name__ == "__main__":
    sys.exit(main())
