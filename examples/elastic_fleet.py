"""An elastic fleet: tenants that join, leave, and get throttled mid-run.

A walkthrough of the gateway's fleet controller: a small resident fleet runs
under the gas-aware shard planner while an NFT-mint burst tenant arrives at
epoch 2 and leaves at epoch 6, a resident departs mid-run (its queued work is
cancelled, its bill frozen), and a quota-capped tenant has its over-quota
operations deferred to later epochs — all without ever producing a settlement
block over the chain's gas limit.

The whole walkthrough runs on any execution backend — churn, the gas-aware
planner, and quota deferral included.  ``--execution-mode process`` runs it
on the elastic process backend, where the same feeds migrate between worker
lanes as packed feed states (the report is bit-identical either way).

Run with::

    PYTHONPATH=src python examples/elastic_fleet.py
    PYTHONPATH=src python examples/elastic_fleet.py --execution-mode process
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import format_gas
from repro.common.types import Operation
from repro.core.config import GrubConfig
from repro.gateway import (
    EXECUTION_MODES,
    EpochScheduler,
    FeedRegistry,
    FeedSpec,
    GasAwareShardPlanner,
)
from repro.workloads.synthetic import SyntheticWorkload

EPOCH_SIZE = 8


def synthetic(feed_id: str, ratio: float, count: int, seed: int):
    return SyntheticWorkload(
        read_write_ratio=ratio,
        num_operations=count,
        num_keys=4,
        key_prefix=feed_id,
        seed=seed,
    ).operations()


def mint_burst(feed_id: str):
    """An NFT mint: a burst of writes, then hot reads of the early tokens."""
    ops = [
        Operation.write(f"{feed_id}-{index:04d}", index.to_bytes(32, "big"))
        for index in range(12)
    ]
    ops += [Operation.read(f"{feed_id}-{index % 3:04d}") for index in range(24)]
    return ops


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--execution-mode",
        choices=EXECUTION_MODES,
        default="serial",
        help="execution backend (process = elastic lanes with feed migration)",
    )
    args = parser.parse_args(argv)

    registry = FeedRegistry()
    config = GrubConfig(epoch_size=EPOCH_SIZE, algorithm="memoryless", k=1)

    # Resident tenants.  "throttled" carries a per-epoch ops quota: the
    # gateway defers its over-quota operations instead of letting it crowd
    # out the other tenants' epochs.
    registry.create_feed(FeedSpec(feed_id="prices", config=config))
    registry.create_feed(FeedSpec(feed_id="assets", config=config))
    registry.create_feed(
        FeedSpec(feed_id="throttled", config=config, max_ops_per_epoch=3)
    )

    scheduler = EpochScheduler(
        registry,
        num_workers=1 if args.execution_mode == "serial" else 2,
        execution_mode=args.execution_mode,
        epoch_size=EPOCH_SIZE,
        # A tight per-shard budget so the planner visibly bin-packs: 100k of
        # the 10M block gas limit.
        planner=GasAwareShardPlanner(block_gas_fraction=0.01),
    )

    # Mid-run churn, queued before the run: an NFT mint arrives at epoch 2
    # and departs at epoch 6; the assets tenant leaves at epoch 4 with work
    # still queued (it is cancelled and counted, its bill frozen).
    scheduler.admit(
        FeedSpec(feed_id="mint", config=config), mint_burst("mint"), at_epoch=2
    )
    scheduler.evict("mint", at_epoch=6)
    scheduler.evict("assets", at_epoch=4)

    fleet = scheduler.run(
        {
            "prices": synthetic("prices", ratio=8.0, count=64, seed=1),
            "assets": synthetic("assets", ratio=2.0, count=64, seed=2),
            "throttled": synthetic("throttled", ratio=4.0, count=40, seed=3),
        }
    )

    print(fleet.format_report(title="Elastic fleet"))
    print()
    assets = fleet.feed("assets")
    throttled = fleet.feed("throttled")
    print(
        f"assets left at epoch {assets.departed_epoch}: "
        f"{assets.operations} ops executed, {assets.cancelled_ops} cancelled, "
        f"final bill {format_gas(assets.gas_feed)} (frozen)"
    )
    print(
        f"throttled ran {throttled.operations} ops at <=3/epoch "
        f"({throttled.deferred_ops} deferrals), finishing in "
        f"{len(throttled.epochs)} epochs instead of "
        f"{(40 + EPOCH_SIZE - 1) // EPOCH_SIZE}"
    )
    print(
        f"shard plans: {fleet.shards_per_epoch} "
        f"(overflow gas: "
        f"{registry.chain.ledger.by_category.get('block_gas_limit_overflow', 0)})"
    )


if __name__ == "__main__":
    main()
