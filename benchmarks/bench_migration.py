"""Feed-migration benchmark: churn + gas-aware re-sharding on the elastic
process backend.

Drives one seeded churn schedule (joins, leaves, burst tenants, quota caps)
through the :class:`~repro.gateway.planner.GasAwareShardPlanner` twice — once
inline serial, once on the elastic process backend — so feeds genuinely
migrate between worker lanes as snapshot frames while lanes spawn and retire
with the shard plan.  Reported: migration/install counts and wire bytes per
epoch, lane spawn/retire counts, and the wall-clock cost of the moving
boundary versus the serial reference.

Hard checks (exit non-zero on violation, which is what the CI
``migration-smoke`` job gates on):

* **equivalence** — the process run's telemetry fingerprint is bit-identical
  to the serial run's, migrations and lane churn notwithstanding;
* **mobility actually happened** — at least one snapshot-frame migration,
  one elastic lane spawn beyond the first lane, and one lane retirement were
  metered (a run that never moves a feed measures nothing);
* **block feasibility** — ``block_gas_limit_overflow`` is zero and no mined
  block exceeds the chain's gas limit;
* **no thrash** — the run makes no more lane-to-lane moves than the committed
  ``BENCH_migration.json`` records for the same configuration (the move count
  is a pure function of the seed, so any excess is a placement regression —
  e.g. a return to ``shard_index % lanes``).

Results land in ``BENCH_migration.json``; the schedule seed is recorded
there and in ``BENCH_migration_seed.txt`` (written *before* the run, so a
failing CI job can still upload it for reproduction).

Runs standalone::

    PYTHONPATH=src python benchmarks/bench_migration.py           # <60s
    PYTHONPATH=src python benchmarks/bench_migration.py --seed 7  # new schedule
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import bench_churn

from repro.analysis.reporting import format_rate

#: Smaller resident fleet than ``bench_churn``'s 32: with ``joins``/``leaves``
#: held at the churn benchmark's 10/10, a 12-feed base makes the fleet's
#: *relative* size swing hard enough that the elastic lane pool provably
#: spawns and retires within the horizon, while keeping both runs well under
#: the 60-second CI budget.  Six workers (not four) leaves the lane ceiling
#: above the shard-plan width at the fleet's churned-down tail, so the pool
#: genuinely shrinks instead of saturating at its cap.
BASE_FEEDS = 12
OPS_PER_FEED = 48
NUM_WORKERS = 6
DEFAULT_SEED = bench_churn.DEFAULT_SEED
#: The committed record the no-thrash check compares against.
COMMITTED = BENCH_DIR.parent / "BENCH_migration.json"


def run_config(seed: int, ops_per_feed: int) -> dict:
    return {
        "seed": seed,
        "base_feeds": BASE_FEEDS,
        "joins": bench_churn.JOINS,
        "leaves": bench_churn.LEAVES,
        "epoch_size": bench_churn.EPOCH_SIZE,
        "ops_per_feed": ops_per_feed,
        "num_workers": NUM_WORKERS,
        "block_gas_fraction": bench_churn.BLOCK_GAS_FRACTION,
    }


def committed_migrations(config: dict) -> int | None:
    """The committed record's move count, if it was taken with exactly this
    configuration (another seed or size has nothing to be compared with)."""
    if not COMMITTED.exists():
        return None
    payload = json.loads(COMMITTED.read_text())
    if payload.get("config") != config:
        return None
    return payload["results"]["ipc"]["migrations_total"]


def _timed_run(seed: int, ops_per_feed: int, num_workers: int, execution_mode: str):
    started = time.perf_counter()
    schedule, registry, fleet = bench_churn.run_fleet(
        seed,
        ops_per_feed,
        num_workers=num_workers,
        base_feeds=BASE_FEEDS,
        execution_mode=execution_mode,
    )
    return schedule, registry, fleet, time.perf_counter() - started


def check_invariants(registry, serial_fleet, process_fleet, committed_moves=None) -> list:
    violations = []
    if process_fleet.fingerprint() != serial_fleet.fingerprint():
        violations.append("process run's telemetry differs from serial")
    ipc = process_fleet.ipc or {}
    if ipc.get("migrations_total", 0) < 1:
        violations.append("no feed ever migrated between lanes")
    if committed_moves is not None and ipc.get("migrations_total", 0) > committed_moves:
        violations.append(
            f"{ipc['migrations_total']} lane-to-lane moves, above the committed "
            f"{committed_moves} ({COMMITTED.name}) — lane assignment is thrashing"
        )
    if not ipc.get("migration_bytes_per_epoch", 0) > 0:
        violations.append("migration traffic was not metered")
    if ipc.get("installs_total", 0) < 1:
        violations.append("no feed was ever installed into a lane")
    if ipc.get("lane_spawns_total", 0) < 2:
        violations.append("the lane pool never grew past one lane")
    if ipc.get("lane_retirements_total", 0) < 1:
        violations.append("no lane was ever retired")
    overflow = registry.chain.ledger.by_category.get("block_gas_limit_overflow", 0)
    if overflow:
        violations.append(f"block_gas_limit_overflow = {overflow}")
    limit = registry.chain.parameters.block_gas_limit
    oversized = [b.number for b in registry.chain.blocks if b.gas_used > limit]
    if oversized:
        violations.append(f"blocks over the gas limit: {oversized}")
    return violations


def run_benchmark(seed: int, ops_per_feed: int) -> dict:
    config = run_config(seed, ops_per_feed)
    # Read before the run: ``--output`` defaults to this very file.
    committed_moves = committed_migrations(config)
    _, serial_registry, serial_fleet, serial_wall = _timed_run(
        seed, ops_per_feed, num_workers=1, execution_mode="serial"
    )
    _, _, process_fleet, process_wall = _timed_run(
        seed, ops_per_feed, num_workers=NUM_WORKERS, execution_mode="process"
    )

    violations = check_invariants(
        serial_registry, serial_fleet, process_fleet, committed_moves
    )
    if violations:
        raise AssertionError("migration invariants violated: " + "; ".join(violations))

    ipc = process_fleet.ipc
    epochs = serial_fleet.epochs_run
    print(
        f"fleet: {BASE_FEEDS} residents + {serial_fleet.admissions} joins / "
        f"{serial_fleet.departures} leaves over {epochs} epochs, "
        f"{serial_fleet.operations:,} ops, "
        f"{format_rate(serial_fleet.ops_per_second, 'ops/s')} serial"
    )
    print(
        f"migration: {ipc['migrations_total']} lane-to-lane moves "
        f"({ipc['migration_bytes_total']:,} B total, "
        f"{ipc['migration_bytes_per_epoch']:.0f} B/epoch; "
        f"by reason {ipc['migrations_by_reason']}), "
        f"{ipc['installs_total']} installs "
        f"({ipc['install_bytes_total']:,} B)"
    )
    print(
        f"lane pool: {ipc['lane_spawns_total']} spawns, "
        f"{ipc['lane_retirements_total']} retirements "
        f"({NUM_WORKERS} workers ceiling); per-epoch deltas "
        f"{ipc['bytes_per_epoch']:.0f} B/epoch across lanes"
    )
    print(
        f"wall: serial {serial_wall:.2f}s vs elastic process {process_wall:.2f}s "
        f"({process_wall / serial_wall:.2f}x; read multicore speedup only on "
        f"hosts with >1 effective CPU)"
    )
    print("equivalence: process fingerprint bit-identical to serial, churn and all")

    record = {
        "migrations_total": ipc["migrations_total"],
        "migrations_by_reason": ipc["migrations_by_reason"],
        "migration_bytes_total": ipc["migration_bytes_total"],
        "migration_bytes_per_epoch": round(ipc["migration_bytes_per_epoch"], 2),
        "installs_total": ipc["installs_total"],
        "install_bytes_total": ipc["install_bytes_total"],
        "lane_spawns_total": ipc["lane_spawns_total"],
        "lane_retirements_total": ipc["lane_retirements_total"],
        "wire_bytes_per_epoch": round(ipc["bytes_per_epoch"], 2),
    }
    return {
        "benchmark": "migration",
        "source": "benchmarks/bench_migration.py",
        "config": config,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "equivalence": (
            "process fingerprint bit-identical to serial with churn, gas-aware "
            "re-sharding, and elastic lanes"
        ),
        "results": {
            "operations": serial_fleet.operations,
            "epochs_run": epochs,
            "admissions": serial_fleet.admissions,
            "departures": serial_fleet.departures,
            "ops_per_sec_serial": round(serial_fleet.ops_per_second, 1),
            "wall_seconds_serial": round(serial_wall, 3),
            "wall_seconds_process": round(process_wall, 3),
            "ipc": record,
        },
    }


def write_seed_file(output: Path, seed: int, ops: int) -> Path:
    """Record the schedule seed before anything fallible runs (CI uploads it
    on failure for reproduction)."""
    seed_file = output.parent / "BENCH_migration_seed.txt"
    seed_file.write_text(
        f"seed={seed} ops_per_feed={ops} "
        f"repro: PYTHONPATH=src python benchmarks/bench_migration.py "
        f"--seed {seed} --ops {ops}\n"
    )
    return seed_file


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="churn schedule seed"
    )
    parser.add_argument(
        "--ops", type=int, default=OPS_PER_FEED, help="operations per resident feed"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_migration.json",
        help="where to write the JSON results (default: repo-root BENCH_migration.json)",
    )
    args = parser.parse_args(argv)
    write_seed_file(args.output, args.seed, args.ops)
    started = time.perf_counter()
    payload = run_benchmark(args.seed, args.ops)
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"results written to {args.output}")
    print(f"run completed in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
