"""Elastic-fleet churn benchmark: mid-run tenant arrivals/departures under
gas-limit-aware admission control.

Drives a 32-feed resident fleet through the elastic epoch engine while ≥8
tenants join mid-run (several of them NFT-mint-style burst tenants) and ≥8
leave, under the :class:`~repro.gateway.planner.GasAwareShardPlanner` with a
deliberately tight per-shard gas budget, so the plan genuinely bin-packs and
re-packs as the fleet churns.  Reported: serial throughput, churn counts,
quota deferrals, cancelled work, shard-plan width, and the largest settlement
block versus the chain's gas limit.

Hard checks (exit non-zero on violation, which is what the CI ``churn-smoke``
job gates on):

* **equivalence** — the parallel run's telemetry fingerprint is bit-identical
  to the serial run's, mid-run churn notwithstanding;
* **block feasibility** — ``block_gas_limit_overflow`` is zero and no mined
  block exceeds the limit;
* **churn actually happened** — at least 8 admissions and 8 departures were
  applied;
* **quota enforcement** — quota-capped tenants deferred work and still
  executed every admitted operation (none lost).

Results land in ``BENCH_churn.json``; the schedule seed is recorded there
and in ``BENCH_churn_seed.txt`` (written *before* the run, so a failing CI
job can still upload it for reproduction).

Runs under pytest (the repo's benchmark harness) or standalone::

    PYTHONPATH=src python benchmarks/bench_churn.py            # full run
    PYTHONPATH=src python benchmarks/bench_churn.py --smoke    # <60s CI smoke
    PYTHONPATH=src python benchmarks/bench_churn.py --seed 42  # new schedule
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.analysis.reporting import format_gas, format_rate, format_table
from repro.gateway import EpochScheduler, FeedRegistry, GasAwareShardPlanner
from repro.obs import Observability
from repro.obs.export import format_duration
from repro.workloads.fleet_churn import FleetChurnWorkload

#: Synchronized-burst scenario (the cross-feed correlation stub from the
#: roadmap): every resident shares a hot keyset and bursts in the same epochs.
HOT_KEYS = 4
HOT_BURST_EPOCHS = 3

NUM_BASE_FEEDS = 32
JOINS = 10
LEAVES = 10
BURST_TENANTS = 4
EPOCH_SIZE = 8
HORIZON_EPOCHS = 12
QUOTA_FEEDS = 2
FULL_OPS_PER_FEED = 128
SMOKE_OPS_PER_FEED = 48
#: Per-shard budget as a fraction of the 10M block gas limit.  Resident feeds
#: settle ~30–60k gas per epoch, so a 200k budget forces multi-feed packing
#: decisions every epoch instead of one degenerate mega-shard.
BLOCK_GAS_FRACTION = 0.02
DEFAULT_SEED = 20260730


def build_schedule(
    seed: int,
    ops_per_feed: int,
    *,
    base_feeds: int = NUM_BASE_FEEDS,
    correlated: bool = False,
) -> FleetChurnWorkload:
    return FleetChurnWorkload(
        seed=seed,
        base_feeds=base_feeds,
        joins=JOINS,
        leaves=LEAVES,
        burst_tenants=BURST_TENANTS,
        horizon_epochs=HORIZON_EPOCHS,
        epoch_size=EPOCH_SIZE,
        ops_per_feed=ops_per_feed,
        quota_feeds=QUOTA_FEEDS,
        correlated_hot_keys=correlated,
        hot_keys=HOT_KEYS,
        hot_burst_epochs=HOT_BURST_EPOCHS,
    )


def run_fleet(
    seed: int,
    ops_per_feed: int,
    num_workers: int,
    *,
    base_feeds: int = NUM_BASE_FEEDS,
    correlated: bool = False,
    obs: Observability | None = None,
    execution_mode: str | None = None,
):
    """One churn run; the importable unit the experiment runner drives.

    ``execution_mode`` defaults to what ``num_workers`` implies: one worker
    is an inline ``"serial"`` run, more are ``"process"`` lanes, where churn
    and the gas-aware re-shard migrate feeds between worker lanes as snapshot
    frames.
    """
    if execution_mode is None:
        execution_mode = "serial" if num_workers == 1 else "process"
    schedule = build_schedule(
        seed, ops_per_feed, base_feeds=base_feeds, correlated=correlated
    ).generate()
    registry = FeedRegistry()
    scheduler = EpochScheduler(
        registry,
        num_workers=num_workers,
        epoch_size=EPOCH_SIZE,
        planner=GasAwareShardPlanner(block_gas_fraction=BLOCK_GAS_FRACTION),
        obs=obs,
        execution_mode=execution_mode,
    )
    workloads = schedule.install(registry, scheduler)
    fleet = scheduler.run(workloads)
    return schedule, registry, fleet


def check_invariants(schedule, registry, serial_fleet, parallel_fleet) -> list:
    violations = []
    if parallel_fleet.fingerprint() != serial_fleet.fingerprint():
        violations.append("parallel run's telemetry differs from serial")
    overflow = registry.chain.ledger.by_category.get("block_gas_limit_overflow", 0)
    if overflow:
        violations.append(f"block_gas_limit_overflow = {overflow}")
    limit = registry.chain.parameters.block_gas_limit
    oversized = [b.number for b in registry.chain.blocks if b.gas_used > limit]
    if oversized:
        violations.append(f"blocks over the gas limit: {oversized}")
    if serial_fleet.admissions < 8:
        violations.append(f"only {serial_fleet.admissions} admissions (need >= 8)")
    if serial_fleet.departures < 8:
        violations.append(f"only {serial_fleet.departures} departures (need >= 8)")
    quota_ids = schedule.quota_feed_ids()
    admitted = schedule.admitted_op_counts()
    for feed_id in quota_ids:
        telemetry = serial_fleet.feeds[feed_id]
        if telemetry.deferred_ops == 0:
            violations.append(f"quota feed {feed_id} never deferred")
        if telemetry.operations + telemetry.cancelled_ops != admitted[feed_id]:
            violations.append(f"quota feed {feed_id} lost operations")
    for feed_id, count in admitted.items():
        telemetry = serial_fleet.feeds[feed_id]
        if telemetry.operations + telemetry.cancelled_ops != count:
            violations.append(f"op conservation violated for {feed_id}")
            break
    return violations


def observability_record(seed: int, ops_per_feed: int, serial_fleet) -> dict:
    """One extra *traced* serial run: per-phase latency + planner bin metrics.

    The measured runs above stay observability-off; the traced run must land
    on the same fingerprint or its numbers describe some other benchmark.
    """
    obs = Observability()
    _, _, fleet = run_fleet(seed, ops_per_feed, num_workers=1, obs=obs)
    if fleet.fingerprint() != serial_fleet.fingerprint():
        raise AssertionError("traced serial run diverged from the untraced one")
    percentiles = obs.phase_percentiles()
    snapshot = obs.snapshot()
    utilization = snapshot["histograms"]["planner_bin_utilization"]
    print()
    print(
        format_table(
            ["phase", "n", "p50", "p95", "p99"],
            [
                (
                    phase,
                    row["count"],
                    format_duration(row["p50"]),
                    format_duration(row["p95"]),
                    format_duration(row["p99"]),
                )
                for phase, row in percentiles.items()
            ],
            title="Per-phase latency (traced serial run, excluded from timings)",
        )
    )
    print(
        f"planner bins: {utilization['count']} packed under the gas budget, "
        f"utilization p50 {utilization['p50']:.2f} / p95 {utilization['p95']:.2f}, "
        f"peak {obs.histogram('planner_bin_utilization').percentile(100.0):.2f}"
    )
    return {
        "note": (
            "separate traced serial run; timings elsewhere in this file were "
            "taken with observability disabled"
        ),
        "phase_percentiles": {
            phase: {
                "count": row["count"],
                "p50": round(row["p50"], 6),
                "p95": round(row["p95"], 6),
                "p99": round(row["p99"], 6),
            }
            for phase, row in percentiles.items()
        },
        "planner": {
            "plans_total": snapshot["counters"]["planner_plans_total"],
            "overflow_bins_total": snapshot["counters"].get(
                "planner_overflow_bins_total", 0
            ),
            "bin_utilization": {
                "count": utilization["count"],
                "p50": round(utilization["p50"], 4),
                "p95": round(utilization["p95"], 4),
                "p99": round(utilization["p99"], 4),
                "max": round(
                    obs.histogram("planner_bin_utilization").percentile(100.0), 4
                ),
            },
        },
    }


def run_correlated_hot_keys(seed: int, ops_per_feed: int) -> dict:
    """Drive the ``correlated_hot_keys`` scenario through the churn engine.

    Every resident bursts over the same hot keyset in the same epochs, so the
    gas-aware planner sees every bin fill at once instead of independent noise
    averaging out.  Recorded: the burst epochs, the shard-plan width series,
    and how hot the bins ran.  Hard checks: parallel equivalence holds under
    the synchronized bursts, and no settlement block breaches the gas limit.
    """
    obs = Observability()
    schedule, registry, fleet = run_fleet(
        seed, ops_per_feed, num_workers=1, correlated=True, obs=obs
    )
    _, _, parallel_fleet = run_fleet(
        seed, ops_per_feed, num_workers=4, correlated=True
    )
    violations = []
    if parallel_fleet.fingerprint() != fleet.fingerprint():
        violations.append("correlated: parallel telemetry differs from serial")
    limit = registry.chain.parameters.block_gas_limit
    oversized = [b.number for b in registry.chain.blocks if b.gas_used > limit]
    if oversized:
        violations.append(f"correlated: blocks over the gas limit: {oversized}")
    if violations:
        raise AssertionError("; ".join(violations))

    snapshot = obs.snapshot()
    utilization = snapshot["histograms"]["planner_bin_utilization"]
    shards = list(fleet.shards_per_epoch)
    burst_epochs = [e for e in schedule.hot_burst_epochs if e < len(shards)]
    calm_epochs = [e for e in range(len(shards)) if e not in burst_epochs]

    def mean_width(epochs):
        return round(sum(shards[e] for e in epochs) / len(epochs), 2) if epochs else None

    max_block_gas = max(block.gas_used for block in registry.chain.blocks)
    print(
        f"correlated hot keys: {len(schedule.hot_suffixes)} shared keys, "
        f"bursts at epochs {burst_epochs}; shard plan width "
        f"{mean_width(burst_epochs)} (burst) vs {mean_width(calm_epochs)} (calm), "
        f"bin utilization p95 {utilization['p95']:.2f}; "
        f"largest block {format_gas(max_block_gas)} of {format_gas(limit)} "
        f"(overflow: 0); parallel fingerprint identical"
    )
    return {
        "hot_keys": len(schedule.hot_suffixes),
        "hot_burst_epochs": burst_epochs,
        "shards_per_epoch": shards,
        "mean_shards_burst_epochs": mean_width(burst_epochs),
        "mean_shards_calm_epochs": mean_width(calm_epochs),
        "bin_utilization": {
            "count": utilization["count"],
            "p50": round(utilization["p50"], 4),
            "p95": round(utilization["p95"], 4),
            "max": round(
                obs.histogram("planner_bin_utilization").percentile(100.0), 4
            ),
        },
        "overflow_bins_total": snapshot["counters"].get(
            "planner_overflow_bins_total", 0
        ),
        "cache_hit_rate": round(fleet.cache_hit_rate, 4),
        "max_block_gas": max_block_gas,
        "block_gas_limit": limit,
        "equivalence": "parallel fingerprint bit-identical under synchronized bursts",
    }


def run_benchmark(seed: int, ops_per_feed: int) -> dict:
    schedule, serial_registry, serial_fleet = run_fleet(seed, ops_per_feed, num_workers=1)
    _, _, parallel_fleet = run_fleet(seed, ops_per_feed, num_workers=4)

    violations = check_invariants(
        schedule, serial_registry, serial_fleet, parallel_fleet
    )
    if violations:
        raise AssertionError("churn invariants violated: " + "; ".join(violations))

    limit = serial_registry.chain.parameters.block_gas_limit
    max_block_gas = max(block.gas_used for block in serial_registry.chain.blocks)
    quota_ids = set(schedule.quota_feed_ids())
    rows = []
    for label, feed_ids in (
        ("residents", [j.feed_id for j in schedule.initial]),
        ("joiners", [j.feed_id for j in schedule.joins if not j.feed_id.startswith("mint")]),
        ("mint bursts", [j.feed_id for j in schedule.joins if j.feed_id.startswith("mint")]),
    ):
        feeds = [serial_fleet.feeds[f] for f in feed_ids]
        rows.append(
            (
                label,
                len(feeds),
                sum(f.operations for f in feeds),
                format_gas(sum(f.gas_feed for f in feeds)),
                sum(f.deferred_ops for f in feeds),
                sum(f.cancelled_ops for f in feeds),
                sum(1 for f in feeds if f.departed),
            )
        )
    print()
    print(
        format_table(
            ["tenant class", "feeds", "ops", "feed gas", "deferred", "cancelled", "left"],
            rows,
            title=(
                f"Elastic fleet — {NUM_BASE_FEEDS} residents, "
                f"{serial_fleet.admissions} joins, {serial_fleet.departures} leaves "
                f"(seed {seed})"
            ),
        )
    )
    print(
        f"fleet: {serial_fleet.operations:,} ops in {serial_fleet.epochs_run} epochs, "
        f"{format_rate(serial_fleet.ops_per_second, 'ops/s')} serial, "
        f"{format_gas(serial_fleet.gas_feed)} feed gas "
        f"({serial_fleet.gas_per_operation:,.1f} gas/op)"
    )
    print(
        f"planner: {min(serial_fleet.shards_per_epoch)}–{max(serial_fleet.shards_per_epoch)} "
        f"shards/epoch under a {format_gas(int(BLOCK_GAS_FRACTION * limit))} budget; "
        f"largest settlement block {format_gas(max_block_gas)} "
        f"of the {format_gas(limit)} limit (overflow: 0)"
    )
    print(
        f"quotas: {serial_fleet.deferred_ops} ops deferred "
        f"({len(quota_ids)} capped tenants), all eventually executed; "
        f"departures cancelled {serial_fleet.cancelled_ops} queued ops and "
        f"{serial_fleet.cancelled_requests} pending requests"
    )
    print("equivalence: parallel fingerprint bit-identical to serial")

    return {
        "benchmark": "churn",
        "source": "benchmarks/bench_churn.py",
        "config": {
            "seed": seed,
            "base_feeds": NUM_BASE_FEEDS,
            "joins": JOINS,
            "leaves": LEAVES,
            "burst_tenants": BURST_TENANTS,
            "epoch_size": EPOCH_SIZE,
            "ops_per_feed": ops_per_feed,
            "quota_feeds": QUOTA_FEEDS,
            "block_gas_fraction": BLOCK_GAS_FRACTION,
        },
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "equivalence": "bit-identical across worker counts (with churn)",
        "results": {
            "operations": serial_fleet.operations,
            "epochs_run": serial_fleet.epochs_run,
            "ops_per_sec_serial": round(serial_fleet.ops_per_second, 1),
            "gas_per_op": round(serial_fleet.gas_per_operation, 2),
            "admissions": serial_fleet.admissions,
            "departures": serial_fleet.departures,
            "deferred_ops": serial_fleet.deferred_ops,
            "cancelled_ops": serial_fleet.cancelled_ops,
            "cancelled_requests": serial_fleet.cancelled_requests,
            "shards_per_epoch_min": min(serial_fleet.shards_per_epoch),
            "shards_per_epoch_max": max(serial_fleet.shards_per_epoch),
            "max_block_gas": max_block_gas,
            "block_gas_limit": limit,
            "block_gas_limit_overflow": 0,
            "cache_hit_rate": round(serial_fleet.cache_hit_rate, 4),
        },
        "observability": observability_record(seed, ops_per_feed, serial_fleet),
        "correlated_hot_keys": run_correlated_hot_keys(seed, ops_per_feed),
    }


def test_churn(benchmark):
    """Pytest entry: smoke-scale churn run under the benchmark harness."""
    payload = benchmark.pedantic(
        run_benchmark, args=(DEFAULT_SEED, SMOKE_OPS_PER_FEED), rounds=1, iterations=1
    )
    assert payload["results"]["admissions"] >= 8


def write_seed_file(output: Path, seed: int, ops: int) -> Path:
    """Record the schedule seed and repro command next to the results file.

    Called *before* anything fallible runs, so a failing CI job always has a
    seed file to upload (the workflow's failure-artifact step depends on it).
    """
    seed_file = output.parent / "BENCH_churn_seed.txt"
    seed_file.write_text(
        f"seed={seed} ops_per_feed={ops} "
        f"repro: PYTHONPATH=src python benchmarks/bench_churn.py "
        f"--seed {seed} --ops {ops}\n"
    )
    return seed_file


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized run (<60s): {SMOKE_OPS_PER_FEED} ops/feed",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="churn schedule seed"
    )
    parser.add_argument("--ops", type=int, default=None, help="operations per resident feed")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_churn.json",
        help="where to write the JSON results (default: repo-root BENCH_churn.json)",
    )
    args = parser.parse_args(argv)
    ops = args.ops or (SMOKE_OPS_PER_FEED if args.smoke else FULL_OPS_PER_FEED)
    # Guarantee the seed file exists before the run starts (and therefore
    # whenever the run fails), so a failed CI job can still upload it.
    write_seed_file(args.output, args.seed, ops)
    started = time.perf_counter()
    payload = run_benchmark(args.seed, ops)
    payload["config"]["smoke"] = bool(args.smoke)
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"results written to {args.output}")
    print(f"run completed in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
