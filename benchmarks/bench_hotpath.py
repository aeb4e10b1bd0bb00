"""Hot-path benchmark: serial throughput and process-lane scaling.

Drives one 32-feed fleet (preloaded stores, mixed read/write synthetic
workloads) through the epoch engine: once on the serial backend, then
sweeping lane counts over the *process* backend at a fixed shard plan.
Reported per configuration: wall time, ops/sec, feed-layer gas/op and speedup
versus the serial run.  Two hard checks:

* **equivalence** — every process run's telemetry fingerprint and per-feed
  gas bills must be bit-identical to the serial run's (the engine's core
  guarantee); a violation exits non-zero, which is what the CI
  hotpath-equivalence job gates on;
* **trajectory** — results are written to ``BENCH_hotpath.json`` so future
  PRs have a recorded perf trajectory to beat.

Regression gating no longer lives here: the old single-sample
``--check-regression`` / ``--check-ipc-regression`` floors were replaced by
the statistical gate in ``benchmarks/runner.py`` (mean ± CI per cell,
Welch's t / bootstrap-CI separation; see ``repro.analysis.stats``).  The
runner drives this module's machinery through the importable entry points
(:func:`build_workloads`, :func:`build_registry`, :func:`run_fleet_once`)
rather than shelling out to the script.

Process-mode sweep records always carry the run's IPC meter summary (wire
bytes per epoch, encode/decode seconds, per-lane rows).  On hosts granted a
single effective CPU the results carry ``"multicore_sweep": "pending"`` so a reader knows the
recorded process numbers measure boundary overhead, not scaling.

A note on scaling regimes: the *process* backend runs each shard's feeds in a
separate worker process and is bounded by the host's CPUs.  Results therefore
record both ``host.cpus`` and ``host.effective_cpus`` (the scheduling affinity
actually granted to this process — CI containers routinely advertise many
CPUs while pinning the job to one), and every sweep record carries its
``execution_mode``, so a flat speedup curve on a single-CPU host is read as
"host had one CPU", not "parallelism doesn't help".

Runs under pytest (the repo's benchmark harness) or standalone::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick    # <60s CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.types import KVRecord, Operation
from repro.core.config import GrubConfig
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec
from repro.analysis.reporting import format_rate, format_table
from repro.obs import Observability
from repro.obs.export import format_duration
from repro.workloads.synthetic import SyntheticWorkload

NUM_FEEDS = 32
NUM_SHARDS = 8
EPOCH_SIZE = 16
FULL_PROCESS_LANES = (2, 4, 8)
QUICK_PROCESS_LANES = (2,)
FULL_OPS_PER_FEED = 256
QUICK_OPS_PER_FEED = 96
FULL_REPEATS = 3
QUICK_REPEATS = 1
PRELOAD_KEYS = 128

#: Read/write mixes selectable by the experiment runner's ``workload`` factor.
PROFILE_RATIOS = {
    "mixed": 4.0,
    "read_heavy": 8.0,
    "write_heavy": 1.0,
}


def effective_cpus() -> int:
    """CPUs this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
        "effective_cpus": effective_cpus(),
        "platform": platform.platform(),
    }


def build_workloads(
    ops_per_feed: int,
    *,
    num_feeds: int = NUM_FEEDS,
    profile: str = "mixed",
) -> Dict[str, List[Operation]]:
    """Per-feed synthetic workloads at one of the named read/write profiles."""
    if profile not in PROFILE_RATIOS:
        raise ValueError(
            f"unknown workload profile {profile!r}; "
            f"expected one of {sorted(PROFILE_RATIOS)}"
        )
    return {
        f"feed-{index:02d}": SyntheticWorkload(
            read_write_ratio=PROFILE_RATIOS[profile],
            num_operations=ops_per_feed,
            num_keys=32,
            key_prefix=f"asset{index:02d}-",
            seed=index + 1,
        ).operations()
        for index in range(num_feeds)
    }


def build_registry(
    *,
    num_feeds: int = NUM_FEEDS,
    preload_keys: int = PRELOAD_KEYS,
    epoch_size: int = EPOCH_SIZE,
) -> FeedRegistry:
    registry = FeedRegistry()
    config = GrubConfig(epoch_size=epoch_size, algorithm="memoryless", k=2)
    for index in range(num_feeds):
        preload = [
            KVRecord.make(f"asset{index:02d}-{j:04d}", bytes(32))
            for j in range(preload_keys)
        ]
        registry.create_feed(
            FeedSpec(feed_id=f"feed-{index:02d}", config=config, preload=preload)
        )
    return registry


def run_fleet_once(
    execution_mode: str,
    num_workers: int,
    workloads: Dict[str, List[Operation]],
    *,
    num_shards: int = NUM_SHARDS,
    epoch_size: int = EPOCH_SIZE,
    preload_keys: int = PRELOAD_KEYS,
    obs=None,
):
    """One measured fleet run; the importable unit the experiment runner drives.

    Returns ``(registry, fleet)`` so callers can read telemetry, gas bills and
    chain state.  The registry is built fresh per call (feed ids follow the
    ``feed-NN`` convention of :func:`build_workloads`).
    """
    registry = build_registry(
        num_feeds=len(workloads), preload_keys=preload_keys, epoch_size=epoch_size
    )
    scheduler = EpochScheduler(
        registry,
        num_shards=num_shards,
        num_workers=num_workers,
        execution_mode=execution_mode,
        obs=obs,
    )
    fleet = scheduler.run(workloads)
    return registry, fleet


def _ipc_record(summary: dict) -> dict:
    """The IPC meter summary rounded for the benchmark JSON."""
    record = {
        "epochs": summary["epochs"],
        "wire_bytes_total": summary["wire_bytes_total"],
        "bytes_per_epoch": round(summary["bytes_per_epoch"], 2),
        "encode_seconds": round(summary["encode_seconds"], 6),
        "decode_seconds": round(summary["decode_seconds"], 6),
        "lanes": {
            lane: {
                "epochs": row["epochs"],
                "wire_bytes": row["wire_bytes"],
                "encode_seconds": round(row["encode_seconds"], 6),
                "decode_seconds": round(row["decode_seconds"], 6),
            }
            for lane, row in summary["lanes"].items()
        },
    }
    for key in (
        "migrations_total",
        "migration_bytes_total",
        "installs_total",
        "install_bytes_total",
        "lane_spawns_total",
        "lane_retirements_total",
    ):
        if key in summary:
            record[key] = summary[key]
    if "migration_bytes_per_epoch" in summary:
        record["migration_bytes_per_epoch"] = round(
            summary["migration_bytes_per_epoch"], 2
        )
    return record


def run_configuration(
    execution_mode: str,
    num_workers: int,
    workloads: Dict[str, List[Operation]],
    repeats: int,
) -> dict:
    """Run the fleet at one configuration; keep the best wall time of ``repeats``."""
    best: Optional[dict] = None
    fingerprint = None
    gas_bills = None
    for _ in range(repeats):
        registry, fleet = run_fleet_once(execution_mode, num_workers, workloads)
        fingerprint = fleet.fingerprint()
        gas_bills = {
            feed_id: registry.chain.ledger.scope_total(feed_id)
            for feed_id in fleet.feeds
        }
        sample = {
            "execution_mode": execution_mode,
            "num_workers": num_workers,
            "wall_seconds": round(fleet.wall_seconds, 4),
            "ops_per_sec": round(fleet.ops_per_second, 1),
            "gas_per_op": round(fleet.gas_per_operation, 2),
            "operations": fleet.operations,
            "cache_hit_rate": round(fleet.cache_hit_rate, 4),
        }
        if fleet.ipc is not None:
            sample["ipc"] = _ipc_record(fleet.ipc)
        if best is None or sample["wall_seconds"] < best["wall_seconds"]:
            best = sample
    best["fingerprint"] = fingerprint
    best["gas_bills"] = gas_bills
    return best


def phase_latency_record(
    workloads: Dict[str, List[Operation]], serial: dict
) -> dict:
    """One extra *traced* serial run for the per-phase latency record.

    The measured sweep stays observability-off; this run exists only to put
    per-phase p50/p95/p99 into the benchmark JSON.  It must still land on the
    exact serial fingerprint — tracing that changed the run would make the
    latency record a lie about the sweep it annotates.
    """
    obs = Observability()
    registry = build_registry()
    scheduler = EpochScheduler(
        registry,
        num_shards=NUM_SHARDS,
        num_workers=1,
        execution_mode="serial",
        obs=obs,
    )
    fleet = scheduler.run(workloads)
    if fleet.fingerprint() != serial["fingerprint"]:
        raise AssertionError("traced serial run diverged from the untraced one")
    percentiles = obs.phase_percentiles()
    rows = [
        (
            phase,
            row["count"],
            format_duration(row["p50"]),
            format_duration(row["p95"]),
            format_duration(row["p99"]),
        )
        for phase, row in percentiles.items()
    ]
    print()
    print(
        format_table(
            ["phase", "n", "p50", "p95", "p99"],
            rows,
            title="Per-phase latency (traced serial run, excluded from the sweep)",
        )
    )
    span_count = sum(1 for root in obs.tracer.roots for _ in root.walk())
    return {
        "note": (
            "separate traced serial run; sweep timings above were taken with "
            "observability disabled"
        ),
        "traced_wall_seconds": round(fleet.wall_seconds, 4),
        "tracing_overhead_vs_serial": round(
            fleet.wall_seconds / serial["wall_seconds"], 3
        ),
        "span_count": span_count,
        "phase_percentiles": {
            phase: {
                "count": row["count"],
                "p50": round(row["p50"], 6),
                "p95": round(row["p95"], 6),
                "p99": round(row["p99"], 6),
            }
            for phase, row in percentiles.items()
        },
    }


def run_sweep(
    process_lanes: Sequence[int],
    ops_per_feed: int,
    repeats: int,
) -> dict:
    workloads = build_workloads(ops_per_feed)
    configurations: List[Tuple[str, int]] = [("serial", 1)]
    configurations.extend(("process", lanes) for lanes in process_lanes)
    results = [
        run_configuration(mode, workers, workloads, repeats)
        for mode, workers in configurations
    ]

    serial = results[0]
    assert serial["execution_mode"] == "serial", "sweep must start with the serial run"
    violations = []
    for result in results[1:]:
        label = f"{result['execution_mode']}/{result['num_workers']}"
        if result["fingerprint"] != serial["fingerprint"]:
            violations.append(f"{label}: telemetry differs")
        if result["gas_bills"] != serial["gas_bills"]:
            violations.append(f"{label}: gas bills differ")
    if violations:
        raise AssertionError(
            "parallel-vs-serial equivalence violated: " + "; ".join(violations)
        )

    rows = []
    sweep_records = []
    for result in results:
        speedup = serial["wall_seconds"] / result["wall_seconds"]
        rows.append(
            (
                result["execution_mode"],
                result["num_workers"],
                f"{result['wall_seconds']:.3f}s",
                format_rate(result["ops_per_sec"], "ops/s"),
                f"{speedup:.2f}x",
                result["gas_per_op"],
                f"{result['cache_hit_rate'] * 100:.1f}%",
            )
        )
        record = {
            "execution_mode": result["execution_mode"],
            "num_workers": result["num_workers"],
            "wall_seconds": result["wall_seconds"],
            "ops_per_sec": result["ops_per_sec"],
            "speedup_vs_serial": round(speedup, 3),
            "gas_per_op": result["gas_per_op"],
            "cache_hit_rate": result["cache_hit_rate"],
        }
        if "ipc" in result:
            record["ipc"] = result["ipc"]
        sweep_records.append(record)
    host = host_facts()
    print()
    print(
        format_table(
            ["mode", "workers", "wall", "throughput", "speedup", "gas/op", "cache hit"],
            rows,
            title=(
                f"Epoch engine backends — {NUM_FEEDS} feeds, "
                f"{ops_per_feed} ops/feed, {NUM_SHARDS} shards, "
                f"{host['effective_cpus']} effective CPU(s)"
            ),
        )
    )
    print(
        "equivalence: telemetry fingerprints and per-feed gas bills identical "
        "across all execution modes and worker counts"
    )
    if host["effective_cpus"] == 1:
        print(
            "note: this host granted ONE effective CPU — no backend can show "
            "speedup > 1 here; do not read the flat curve as 'parallelism "
            "does not help'"
        )
    ipc_rows = [
        (
            f"process/{record['num_workers']}",
            record["ipc"]["epochs"],
            f"{record['ipc']['bytes_per_epoch']:,.0f} B",
            format_duration(record["ipc"]["encode_seconds"]),
            format_duration(record["ipc"]["decode_seconds"]),
        )
        for record in sweep_records
        if "ipc" in record
    ]
    if ipc_rows:
        print()
        print(
            format_table(
                ["lanes", "epochs", "wire B/epoch", "encode", "decode"],
                ipc_rows,
                title="Process-boundary IPC (per configuration, best repeat)",
            )
        )
    payload = {
        "benchmark": "hotpath",
        "source": "benchmarks/bench_hotpath.py",
        "config": {
            "num_feeds": NUM_FEEDS,
            "num_shards": NUM_SHARDS,
            "epoch_size": EPOCH_SIZE,
            "ops_per_feed": ops_per_feed,
            "preload_keys_per_feed": PRELOAD_KEYS,
            "repeats": repeats,
            "process_lanes": list(process_lanes),
        },
        "host": host,
        "equivalence": "bit-identical across execution modes and worker counts",
        "sweep": sweep_records,
        "serial": {
            "ops_per_sec": serial["ops_per_sec"],
            "gas_per_op": serial["gas_per_op"],
        },
        "observability": phase_latency_record(workloads, serial),
    }
    if host["effective_cpus"] <= 1:
        # Honest label for the committed JSON: every multi-lane number in this
        # file was taken on a one-CPU host and measures boundary overhead, not
        # scaling.  Re-running the sweep on a real multicore host clears it.
        payload["multicore_sweep"] = "pending"
    return payload


def write_results(payload: dict, output: Path) -> None:
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"results written to {output}")


def test_hotpath(benchmark):
    """Pytest entry: quick sweep under the benchmark harness."""
    quick = os.environ.get("GRUB_BENCH_SCALE") == "quick"
    lanes = QUICK_PROCESS_LANES if quick else FULL_PROCESS_LANES
    ops = QUICK_OPS_PER_FEED if quick else FULL_OPS_PER_FEED
    repeats = QUICK_REPEATS if quick else FULL_REPEATS
    payload = benchmark.pedantic(
        run_sweep, args=(lanes, ops, repeats), rounds=1, iterations=1
    )
    assert payload["sweep"], "sweep produced no records"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep for CI (<60s): one lane count, 96 ops/feed, 1 repeat",
    )
    parser.add_argument(
        "--process-lanes",
        type=int,
        nargs="*",
        default=None,
        help="process-backend lane counts to sweep (default: 2 4 8; pass "
        "nothing after the flag to skip the process sweep)",
    )
    parser.add_argument(
        "--ops", type=int, default=None, help="operations per feed"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="repeats per configuration (best kept)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_hotpath.json",
        help="where to write the JSON results (default: repo-root BENCH_hotpath.json)",
    )
    args = parser.parse_args()
    if args.quick:
        lanes = tuple(args.process_lanes) if args.process_lanes is not None else QUICK_PROCESS_LANES
        ops = args.ops or QUICK_OPS_PER_FEED
        repeats = args.repeats or QUICK_REPEATS
    else:
        lanes = tuple(args.process_lanes) if args.process_lanes is not None else FULL_PROCESS_LANES
        ops = args.ops or FULL_OPS_PER_FEED
        repeats = args.repeats or FULL_REPEATS
    started = time.perf_counter()
    payload = run_sweep(lanes, ops, repeats)
    payload["config"]["quick"] = bool(args.quick)
    write_results(payload, args.output)
    print(f"sweep completed in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
