"""Live front-door benchmark: concurrent asyncio clients against the fleet.

Seeded clients drive the same request sequence through
:class:`~repro.frontdoor.door.FrontDoor` — one asyncio task per request,
admitted through the full middleware stack (security headers, per-tenant
rate limiting, request metrics) — while the epoch scheduler drains the door
from its own thread.  Reported: end-to-end request latency p50/p95/p99 and
throughput per execution mode, plus a rate-limited scenario showing the
token bucket turning away an over-quota burst at the door.

Hard checks (exit non-zero on violation, which is what the CI
``frontdoor-smoke`` job gates on):

* **live ≡ batch** — the live run's fleet fingerprint is bit-identical to
  the equivalent batch run's, in serial AND process modes;
* **gas conservation** — per-request gas attributions sum exactly to the
  fleet's feed+application gas (every unit billed to exactly one request);
* **non-empty percentiles** — every mode reports real p50/p95/p99 numbers;
* **rate limiting** — the metered scenario rejects the over-quota tail at
  the door and the accepted head still settles.

Results land in ``BENCH_frontdoor.json``.  Runs under pytest (the repo's
benchmark harness) or standalone::

    PYTHONPATH=src python benchmarks/bench_frontdoor.py            # full run
    PYTHONPATH=src python benchmarks/bench_frontdoor.py --smoke    # <60s CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.analysis.reporting import format_rate, format_table
from repro.core.config import GrubConfig
from repro.frontdoor import FrontDoor, Request, STATUS_REJECTED
from repro.gateway import EXECUTION_MODES, EpochScheduler, FeedRegistry, FeedSpec
from repro.obs.export import format_duration
from repro.workloads.synthetic import SyntheticWorkload

EPOCH_SIZE = 8
NUM_WORKERS = 2
DEFAULT_SEED = 20260808
FULL_TENANTS, FULL_OPS = 8, 160
SMOKE_TENANTS, SMOKE_OPS = 4, 48
#: Metered scenario: ops/epoch quota and the door's burst allowance.
METERED_QUOTA = 4
METERED_BURST_EPOCHS = 2
METERED_REQUESTS = 24


def build_fleet(seed: int, tenants: int, ops: int):
    registry = FeedRegistry()
    workloads = {}
    for index in range(tenants):
        feed_id = f"tenant-{index:02d}"
        registry.create_feed(
            FeedSpec(
                feed_id=feed_id,
                config=GrubConfig(
                    epoch_size=EPOCH_SIZE, algorithm="memoryless", k=1
                ),
            )
        )
        workloads[feed_id] = list(
            SyntheticWorkload(
                read_write_ratio=2.0,
                num_operations=ops,
                num_keys=8,
                key_prefix=f"{feed_id}-k",
                seed=seed + index,
            ).operations()
        )
    return registry, workloads


def interleave(workloads):
    """Round-robin the tenants' request sequences — the admission order a
    pack of concurrent per-tenant clients produces, pinned so every mode
    (and every rerun) sees the identical sequence."""
    columns = [(feed_id, list(ops)) for feed_id, ops in workloads.items()]
    depth = max((len(ops) for _, ops in columns), default=0)
    for index in range(depth):
        for feed_id, ops in columns:
            if index < len(ops):
                yield Request(tenant=feed_id, operation=ops[index])


def drive_clients(door: FrontDoor, workloads) -> list:
    """One concurrent asyncio task per request, all racing one event loop.

    The deterministic recipe: every task runs straight to admission on the
    first ``sleep(0)`` (there is no suspension point before the settlement
    future), then the held door releases — so epoch membership depends only
    on the interleaved admission order, never on how the loop raced the
    epoch clock.
    """

    async def main():
        async with door.serving() as d:
            tasks = [
                asyncio.create_task(d.submit(request))
                for request in interleave(workloads)
            ]
            await asyncio.sleep(0)
            d.release()
            responses = await asyncio.gather(*tasks)
            d.close()
        return responses

    return asyncio.run(main())


def run_mode(mode: str, seed: int, tenants: int, ops: int):
    registry, workloads = build_fleet(seed, tenants, ops)
    kwargs = {} if mode == "serial" else {"num_workers": NUM_WORKERS}
    scheduler = EpochScheduler(
        registry, epoch_size=EPOCH_SIZE, execution_mode=mode, **kwargs
    )
    door = FrontDoor(scheduler, held=True)
    started = time.perf_counter()
    responses = drive_clients(door, workloads)
    elapsed = time.perf_counter() - started
    return door, responses, elapsed


def check_mode(mode: str, door: FrontDoor, responses, batch_fingerprint) -> list:
    violations = []
    if door.fleet.fingerprint() != batch_fingerprint:
        violations.append(f"{mode}: live fingerprint differs from batch")
    rejected = [r for r in responses if not r.ok]
    if rejected:
        violations.append(f"{mode}: {len(rejected)} unexpected rejections")
    attributed = sum(r.gas for r in responses)
    billed = sum(
        feed.gas_feed + feed.gas_application
        for feed in door.fleet.feeds.values()
    )
    if attributed != billed:
        violations.append(
            f"{mode}: request gas attributions sum to {attributed}, "
            f"fleet billed {billed}"
        )
    report = door.percentiles()
    if any(value is None for value in report.values()):
        violations.append(f"{mode}: empty latency percentiles")
    return violations


def run_metered_scenario(seed: int) -> dict:
    """An over-quota burst against one metered tenant: the token bucket must
    turn away the tail at the door and defer nothing it cannot afford."""
    registry = FeedRegistry()
    registry.create_feed(
        FeedSpec(
            feed_id="metered",
            config=GrubConfig(epoch_size=EPOCH_SIZE, algorithm="memoryless", k=1),
            max_ops_per_epoch=METERED_QUOTA,
        )
    )
    scheduler = EpochScheduler(registry, epoch_size=EPOCH_SIZE)
    door = FrontDoor(
        scheduler, burst_epochs=METERED_BURST_EPOCHS, held=True
    )
    operations = list(
        SyntheticWorkload(
            read_write_ratio=2.0,
            num_operations=METERED_REQUESTS,
            num_keys=8,
            key_prefix="metered-k",
            seed=seed,
        ).operations()
    )
    responses = drive_clients(door, {"metered": operations})
    capacity = METERED_QUOTA * METERED_BURST_EPOCHS
    accepted = [r for r in responses if r.ok]
    rejected = [r for r in responses if r.status == STATUS_REJECTED]
    stats = door.telemetry.tenant("metered")
    if len(accepted) != capacity or len(rejected) != METERED_REQUESTS - capacity:
        raise AssertionError(
            f"metered: bucket of {capacity} admitted {len(accepted)} and "
            f"rejected {len(rejected)} of {METERED_REQUESTS}"
        )
    if door.fleet.feed("metered").operations != capacity:
        raise AssertionError("metered: engine executed ops the door rejected")
    return {
        "requests": METERED_REQUESTS,
        "quota_ops_per_epoch": METERED_QUOTA,
        "burst_epochs": METERED_BURST_EPOCHS,
        "accepted": len(accepted),
        "rejected_at_door": len(rejected),
        "deferred_epochs_max": max(r.deferred_epochs for r in accepted),
        "settled_epochs": sorted({r.epoch for r in accepted}),
        "telemetry": stats.fingerprint(),
    }


def run_benchmark(seed: int, tenants: int, ops: int) -> dict:
    registry, workloads = build_fleet(seed, tenants, ops)
    batch = EpochScheduler(registry, epoch_size=EPOCH_SIZE).run(workloads)
    batch_fingerprint = batch.fingerprint()

    modes = {}
    violations = []
    telemetry_fingerprints = set()
    for mode in EXECUTION_MODES:
        door, responses, elapsed = run_mode(mode, seed, tenants, ops)
        violations.extend(check_mode(mode, door, responses, batch_fingerprint))
        report = door.percentiles()
        telemetry_fingerprints.add(json.dumps(door.telemetry.fingerprint(), sort_keys=True))
        modes[mode] = {
            "requests": len(responses),
            "epochs_run": door.fleet.epochs_run,
            "wall_seconds": round(elapsed, 4),
            "requests_per_sec": round(len(responses) / elapsed, 1),
            "latency_seconds": {
                key: round(value, 6) if value is not None else None
                for key, value in report.items()
            },
        }
    if len(telemetry_fingerprints) != 1:
        violations.append("door telemetry fingerprints differ across modes")
    if violations:
        raise AssertionError("front-door invariants violated: " + "; ".join(violations))

    print()
    print(
        format_table(
            ["mode", "requests", "req/s", "p50", "p95", "p99"],
            [
                (
                    mode,
                    row["requests"],
                    format_rate(row["requests_per_sec"], "req/s"),
                    format_duration(row["latency_seconds"]["p50"]),
                    format_duration(row["latency_seconds"]["p95"]),
                    format_duration(row["latency_seconds"]["p99"]),
                )
                for mode, row in modes.items()
            ],
            title=(
                f"Live front door — {tenants} tenants x {ops} requests "
                f"(seed {seed}, epoch size {EPOCH_SIZE})"
            ),
        )
    )
    print(
        "equivalence: live fingerprints bit-identical to the batch run in "
        "serial and process modes; per-request gas attributions sum "
        "to the fleet's bill in every mode"
    )
    metered = run_metered_scenario(seed)
    print(
        f"rate limiting: bucket of {metered['accepted']} admitted the head of "
        f"a {metered['requests']}-request burst, rejected "
        f"{metered['rejected_at_door']} at the door "
        f"(quota {METERED_QUOTA} ops/epoch x {METERED_BURST_EPOCHS} burst epochs)"
    )

    return {
        "benchmark": "frontdoor",
        "source": "benchmarks/bench_frontdoor.py",
        "config": {
            "seed": seed,
            "tenants": tenants,
            "requests_per_tenant": ops,
            "epoch_size": EPOCH_SIZE,
            "num_workers": NUM_WORKERS,
        },
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "equivalence": (
            "live fingerprints bit-identical to batch across "
            "serial/process; gas attribution conserved"
        ),
        "modes": modes,
        "metered": metered,
    }


def test_frontdoor(benchmark):
    """Pytest entry: smoke-scale live run under the benchmark harness."""
    payload = benchmark.pedantic(
        run_benchmark,
        args=(DEFAULT_SEED, SMOKE_TENANTS, SMOKE_OPS),
        rounds=1,
        iterations=1,
    )
    assert payload["modes"]["serial"]["latency_seconds"]["p50"] is not None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            f"CI-sized run (<60s): {SMOKE_TENANTS} tenants x {SMOKE_OPS} requests"
        ),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_frontdoor.json",
        help="where to write the JSON results (default: repo-root BENCH_frontdoor.json)",
    )
    args = parser.parse_args(argv)
    tenants, ops = (
        (SMOKE_TENANTS, SMOKE_OPS) if args.smoke else (FULL_TENANTS, FULL_OPS)
    )
    started = time.perf_counter()
    payload = run_benchmark(args.seed, tenants, ops)
    payload["config"]["smoke"] = bool(args.smoke)
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"results written to {args.output}")
    print(f"run completed in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
