"""The gateway is GRuB, N times: a hosted feed decides as standalone GRuB does.

For every feed of a gateway run, a standalone :class:`GrubSystem` with the
same config and preload replays the operations the gateway executed for
that feed, epoch by epoch, in the slices the feed's bill recorded (so quotas
and deferrals would give the same slices).  Per epoch the two must count the
same replications, evictions, reads and writes; at run end they must hold
the same SP-store root, the same digest on chain and the same replica slots.

Gas is not compared: hosting changes it by design (the router's call and
calldata, each feed's share of a batched transaction base, reads served from
the gateway's memo).  Pinning the difference as an exact formula is later
work (ROADMAP item 22).

The benchmark's batch shapes run serially at toy size (``churn_lanes`` with
its joins, leaves and quotas) over ``GRUB_PROPERTY_SEEDS`` seeds: 20 by
default, 100 in the CI ``property-sweep`` job.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.core.config import GrubConfig
from repro.core.grub import GrubSystem, RunReport
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec, GasAwareShardPlanner
from repro.workloads.synthetic import SyntheticWorkload

from suite.workloads import WORKLOADS, generate

NUM_SEEDS = int(os.environ.get("GRUB_PROPERTY_SEEDS", "20"))
SEEDS = list(range(1, 1 + NUM_SEEDS))


def standalone_replay(
    spec: FeedSpec, slices: Sequence[int], operations: Sequence
) -> Tuple[GrubSystem, RunReport]:
    """``operations`` through a standalone GRuB feed, ``slices[i]`` of them
    in its epoch ``i`` (an epoch of none still settles, as a hosted feed's
    idle epoch does)."""
    system = GrubSystem(spec.config, preload=spec.preload)
    report = RunReport()
    start = 0
    for size in slices:
        system._run_epoch(list(operations[start : start + size]), report, None)
        start += size
    assert start == len(operations)
    return system, report


def decisions(report: RunReport) -> List[tuple]:
    return [
        (epoch.replications, epoch.evictions, epoch.reads, epoch.writes)
        for epoch in report.epochs
    ]


def replica_slots(system: GrubSystem) -> Dict[str, bytes]:
    return {
        slot: value
        for slot, value in system.storage_manager.storage.slots.items()
        if slot.startswith("replica:")
    }


def assert_hosted_feeds_are_grub(registry: FeedRegistry, fleet, workloads) -> None:
    """Every feed ``workloads`` names that is still hosted decides as GRuB (a
    departed feed's handle has left the registry, state and all)."""
    for feed_id, operations in workloads.items():
        bill = fleet.feeds[feed_id]
        if bill.departed:
            continue
        hosted = registry.get(feed_id)
        slices = [epoch.operations for epoch in bill.epochs]
        standalone, report = standalone_replay(hosted.spec, slices, operations)
        assert decisions(bill) == decisions(report), feed_id
        assert hosted.system.sp_store.root == standalone.sp_store.root, feed_id
        assert (
            hosted.storage_manager.root_hash() == standalone.storage_manager.root_hash()
        ), feed_id
        assert replica_slots(hosted.system) == replica_slots(standalone), feed_id


# -- the benchmark's batch shapes, serial, at toy size ----------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", ["fleet_read", "fleet_write", "churn_lanes"])
def test_every_feed_of_a_toy_fleet_decides_as_standalone_grub(shape, seed):
    # Memory stores: the backend holds the SP's records, never a decision.
    workload = replace(WORKLOADS[shape].toy(), store_backend="memory")
    inputs = generate(workload, seed)
    registry = FeedRegistry()
    for spec in inputs.specs:
        registry.create_feed(spec)
    planner = None
    if workload.block_gas_fraction is not None:
        planner = GasAwareShardPlanner(block_gas_fraction=workload.block_gas_fraction)
    scheduler = EpochScheduler(
        registry,
        num_shards=workload.num_shards,
        epoch_size=workload.epoch_size,
        planner=planner,
    )
    # Churn: tenants join, leave and run under quotas, so slices differ.
    for at_epoch, spec, operations in inputs.joins:
        scheduler.admit(spec, operations, at_epoch=at_epoch)
    for at_epoch, feed_id in inputs.leaves:
        scheduler.evict(feed_id, at_epoch=at_epoch)
    fleet = scheduler.run(inputs.operations)
    assert fleet.cache_hits > 0 or shape == "fleet_write"
    workloads = {feed_id: ops for feed_id, (_, ops) in inputs.streams().items()}
    assert_hosted_feeds_are_grub(registry, fleet, workloads)


# -- single feeds whose decisions a memo hit left out of the trace moved ----

SINGLE_FEEDS = {
    # The adaptive threshold counts a key's consecutive reads; memo hits
    # left out of the trace undercounted them.
    "adaptive-k1": GrubConfig(epoch_size=4, algorithm="adaptive-k1", k=1),
    # Idle replicas are evicted: a replica read only through the memo looked
    # idle, and was evicted although it was read every epoch (at 8 reads a
    # write).
    "evict-unused": GrubConfig(
        epoch_size=4, algorithm="memoryless", k=1, evict_unused_after_epochs=2
    ),
    # The DO takes each read as it happens: a memo hit must reach it then.
    "continuous": GrubConfig(
        epoch_size=4, algorithm="memorizing", k_prime=3, continuous_decisions=True
    ),
}


@pytest.mark.parametrize("execution_mode", ["serial", "process"])
@pytest.mark.parametrize("ratio", [4, 8])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(SINGLE_FEEDS))
def test_a_single_feed_decides_as_standalone_grub(case, seed, ratio, execution_mode):
    registry = FeedRegistry()
    registry.create_feed(FeedSpec(feed_id="feed", config=SINGLE_FEEDS[case]))
    operations = SyntheticWorkload(
        read_write_ratio=ratio, num_operations=160, num_keys=3, seed=seed
    ).operations()
    scheduler = EpochScheduler(
        registry,
        execution_mode=execution_mode,
        num_workers=2 if execution_mode == "process" else 1,
    )
    fleet = scheduler.run({"feed": operations})
    assert fleet.cache_hits > 0
    assert_hosted_feeds_are_grub(registry, fleet, {"feed": operations})
