"""Epoch scheduler: lockstep driving, cross-feed batching, exact billing."""

from __future__ import annotations

import pytest

from repro.chain.gas import LAYER_FEED
from repro.common.errors import ConfigurationError
from repro.common.types import Operation
from repro.core.config import GrubConfig
from repro.core.grub import GrubSystem
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec
from repro.workloads.synthetic import SyntheticWorkload


def make_fleet(num_feeds: int, *, epoch_size: int = 8, algorithm: str = "memoryless"):
    registry = FeedRegistry()
    config = GrubConfig(epoch_size=epoch_size, algorithm=algorithm)
    for index in range(num_feeds):
        registry.create_feed(FeedSpec(feed_id=f"feed-{index:02d}", config=config))
    return registry, config


def make_workloads(num_feeds: int, *, ratio: float = 4.0, operations: int = 64):
    return {
        f"feed-{index:02d}": SyntheticWorkload(
            read_write_ratio=ratio,
            num_operations=operations,
            num_keys=2,
            key_prefix=f"asset{index:02d}",
            seed=index + 1,
        ).operations()
        for index in range(num_feeds)
    }


class TestCorrectness:
    def test_consumers_receive_the_owners_values(self):
        registry, _ = make_fleet(2, epoch_size=2)
        # Epoch 0 buffers the write (the SP store only learns it at the epoch
        # update, as in standalone GRuB); the epoch-1 reads are answered by a
        # batched deliver carrying each feed's own record.
        workloads = {
            "feed-00": [
                Operation.write("k", b"value-zero-1"),
                Operation.write("pad", b"pad"),
                Operation.read("k"),
                Operation.read("k"),
            ],
            "feed-01": [
                Operation.write("k", b"value-one-1"),
                Operation.write("pad", b"pad"),
                Operation.read("k"),
                Operation.read("k"),
            ],
        }
        scheduler = EpochScheduler(registry)
        fleet = scheduler.run(workloads)
        # Each feed's consumer saw its own feed's value, never the other's.
        assert registry.get("feed-00").consumer.last_value("k") == b"value-zero-1"
        assert registry.get("feed-01").consumer.last_value("k") == b"value-one-1"
        assert fleet.deliver_batches >= 1

    def test_fleet_report_counts_every_operation(self):
        registry, _ = make_fleet(3)
        workloads = make_workloads(3, operations=40)
        fleet = EpochScheduler(registry).run(workloads)
        assert fleet.operations == 120
        for feed_id, ops in workloads.items():
            assert fleet.feed(feed_id).operations == len(ops)
            assert fleet.feed(feed_id).reads + fleet.feed(feed_id).writes == len(ops)

    def test_uneven_workload_lengths_are_tolerated(self):
        registry, _ = make_fleet(2, epoch_size=8)
        workloads = make_workloads(2, operations=8)
        workloads["feed-01"] = workloads["feed-01"] + make_workloads(2, operations=16)["feed-01"]
        fleet = EpochScheduler(registry).run(workloads)
        assert fleet.feed("feed-00").operations == 8
        assert fleet.feed("feed-01").operations == 24


class TestBatching:
    def test_one_deliver_and_update_batch_per_shard_per_epoch(self):
        registry, _ = make_fleet(4, epoch_size=8)
        workloads = make_workloads(4, operations=16)  # 2 epochs
        fleet = EpochScheduler(registry, num_shards=2).run(workloads)
        assert fleet.epochs_run == 2
        # Every feed is active in every epoch, so each of the 2 shards sends
        # at most one deliver and one update batch per epoch.
        assert fleet.deliver_batches <= 2 * 2
        assert fleet.update_batches == 2 * 2
        # Each batch landed in a block of its own, and nothing else did.
        assert fleet.deliver_batches + fleet.update_batches == fleet.blocks_mined

    def test_cross_feed_batching_beats_isolated_deployments(self):
        num_feeds = 8
        # The feeds never replicate, so the read memo stays empty and every
        # read pays for its gGet on both sides.
        registry, config = make_fleet(num_feeds, epoch_size=8, algorithm="never")
        workloads = make_workloads(num_feeds, ratio=4.0, operations=64)
        fleet = EpochScheduler(registry, num_shards=1).run(workloads)

        isolated_gas = 0
        for feed_id, operations in workloads.items():
            isolated_gas += GrubSystem(config).run(operations).gas_feed
        # Even without the read memo, amortising the transaction base across
        # the fleet makes hosting strictly cheaper than isolation.
        assert fleet.gas_feed < isolated_gas

    def test_single_feed_gateway_overhead_is_bounded(self):
        # With one feed there is nothing to amortise across tenants, so the
        # router's overhead (one calldata word and one CALL per routed group)
        # is visible — it must stay a small constant factor, not a blow-up.
        # The feed never replicates, so no read is served from the memo.
        registry, config = make_fleet(1, epoch_size=8, algorithm="never")
        workloads = make_workloads(1, operations=64)
        fleet = EpochScheduler(registry).run(workloads)
        isolated = GrubSystem(config).run(workloads["feed-00"])
        assert fleet.gas_feed <= isolated.gas_feed * 1.10


class TestBilling:
    def test_per_feed_gas_sums_to_fleet_total_with_no_double_counting(self):
        registry, _ = make_fleet(5, epoch_size=8)
        workloads = make_workloads(5, operations=48)
        fleet = EpochScheduler(registry, num_shards=2).run(workloads)
        ledger = registry.chain.ledger
        # The fleet total is the sum of the per-feed bills…
        assert fleet.gas_feed == sum(f.gas_feed for f in fleet.feeds.values())
        # …and each bill matches the ledger's scoped feed-layer gas exactly.
        for feed_id, telemetry in fleet.feeds.items():
            assert telemetry.gas_feed == ledger.scope_total(feed_id, LAYER_FEED)
        # Nothing the run charged to the feed layer escaped scoping.
        scoped = sum(ledger.scope_total(f, LAYER_FEED) for f in fleet.feeds)
        assert scoped == ledger.feed_total

    def test_epoch_summaries_match_feed_totals(self):
        registry, _ = make_fleet(2, epoch_size=8)
        workloads = make_workloads(2, operations=32)
        fleet = EpochScheduler(registry).run(workloads)
        for telemetry in fleet.feeds.values():
            assert sum(e.gas_feed for e in telemetry.epochs) == telemetry.gas_feed
            assert sum(e.operations for e in telemetry.epochs) == telemetry.operations


class TestSharding:
    def test_round_robin_shard_plan(self):
        registry, _ = make_fleet(5)
        scheduler = EpochScheduler(registry, num_shards=2)
        assert scheduler.shards(registry.feed_ids) == [
            ["feed-00", "feed-02", "feed-04"],
            ["feed-01", "feed-03"],
        ]

    def test_more_shards_than_feeds(self):
        registry, _ = make_fleet(2)
        scheduler = EpochScheduler(registry, num_shards=8)
        assert scheduler.shards(registry.feed_ids) == [["feed-00"], ["feed-01"]]

    def test_invalid_shard_count_rejected(self):
        registry, _ = make_fleet(1)
        with pytest.raises(ConfigurationError):
            EpochScheduler(registry, num_shards=0)


class TestValidation:
    def test_workload_for_unknown_feed_rejected(self):
        registry, _ = make_fleet(1)
        scheduler = EpochScheduler(registry)
        with pytest.raises(ConfigurationError):
            scheduler.run({"ghost": []})

    def test_per_request_delivery_feeds_rejected(self):
        registry = FeedRegistry()
        registry.create_feed(
            FeedSpec(feed_id="alpha", config=GrubConfig(batch_deliver=False))
        )
        scheduler = EpochScheduler(registry)
        with pytest.raises(ConfigurationError):
            scheduler.run({"alpha": [Operation.read("k")]})
