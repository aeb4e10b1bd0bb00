"""The read memo on the feed's handle: hits, what drops an entry, gas effect,
and that it belongs to the feed — not to whichever scheduler warmed it."""

from __future__ import annotations

import pytest

from repro.common.types import Operation
from repro.core.config import GrubConfig
from repro.core.grub import GrubSystem
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec


CONFIG = GrubConfig(epoch_size=4, algorithm="memoryless", k=1)
# One write then a long run of reads of the same key: the key replicates,
# after which every further read can be served from the memo.
OPERATIONS = [Operation.write("hot", b"hot-value")] + [Operation.read("hot")] * 23


def _single_feed_fixture():
    registry = FeedRegistry()
    registry.create_feed(FeedSpec(feed_id="alpha", config=CONFIG))
    fleet = EpochScheduler(registry).run({"alpha": OPERATIONS})
    return registry, fleet


class TestReadCacheInScheduler:
    def test_repeated_replicated_reads_hit_the_cache(self):
        _, fleet = _single_feed_fixture()
        telemetry = fleet.feed("alpha")
        assert telemetry.cache_hits > 0
        assert fleet.cache_hit_rate > 0.5
        # Cached reads still count as operations for the tenant.
        assert telemetry.operations == 24

    def test_cache_lowers_feed_gas(self):
        _, fleet = _single_feed_fixture()
        hosted = fleet.feed("alpha")
        standalone = GrubSystem(CONFIG).run(OPERATIONS)
        # Both replicate "hot" alike; once it is memoised, an epoch of its
        # reads costs the gateway nothing, while standalone GRuB pays every
        # gGet.
        assert [e.replications for e in hosted.epochs] == [
            e.replications for e in standalone.epochs
        ]
        assert hosted.epochs[-1].gas_feed == 0 < standalone.epochs[-1].gas_feed
        assert hosted.gas_feed < standalone.gas_feed

    def test_write_invalidates_and_next_read_sees_new_value(self):
        registry = FeedRegistry()
        registry.create_feed(
            FeedSpec(feed_id="alpha", config=GrubConfig(epoch_size=2, algorithm="always"))
        )
        scheduler = EpochScheduler(registry)
        operations = [
            Operation.write("k", b"v1"),
            Operation.write("pad", b"p"),
            # Epoch 1: the replica now exists; the read populates the memo.
            Operation.read("k"),
            Operation.read("k"),
            # Epoch 2: a write drops the entry; the trailing read must go back
            # to the chain and observe v2, not the stale memo.
            Operation.write("k", b"v2"),
            Operation.read("k"),
            Operation.read("k"),
            Operation.read("k"),
        ]
        scheduler.run({"alpha": operations})
        alpha = registry.get("alpha")
        assert alpha.consumer.last_value("k") == b"v2"
        assert alpha.memo.get("k") != b"v1"

    def test_feed_removal_drops_the_feeds_entries(self):
        registry = FeedRegistry()
        registry.create_feed(
            FeedSpec(feed_id="alpha", config=GrubConfig(epoch_size=2, algorithm="always"))
        )
        scheduler = EpochScheduler(registry)
        scheduler.run(
            {
                "alpha": [
                    Operation.write("k", b"v1"),
                    Operation.write("pad", b"p"),
                    Operation.read("k"),
                    Operation.read("k"),
                ]
            }
        )
        assert registry.get("alpha").memo
        removed = registry.remove_feed("alpha")
        # The entries live on the handle, and left the registry with it.
        assert removed.memo and not registry.handles

    def test_eviction_invalidates_cache_entry(self):
        registry = FeedRegistry()
        registry.create_feed(
            FeedSpec(
                feed_id="alpha",
                config=GrubConfig(epoch_size=2, algorithm="memoryless", k=1,
                                  evict_unused_after_epochs=1),
            )
        )
        scheduler = EpochScheduler(registry)
        operations = [
            Operation.write("k", b"v1"),
            Operation.read("k"),
            Operation.read("k"),
            Operation.read("k"),
            # Epochs with no reads of "k": the idle-eviction policy demotes it
            # R→NR, which must also drop the gateway's memoised copy.
            Operation.write("other", b"o1"),
            Operation.write("other", b"o2"),
            Operation.write("other", b"o3"),
            Operation.write("other", b"o4"),
        ]
        scheduler.run({"alpha": operations})
        alpha = registry.get("alpha")
        assert alpha.storage_manager.replica_of("k") is None
        assert "k" not in alpha.memo


class TestSchedulerEvictionTeardown:
    """Memo teardown through the fleet controller's eviction path."""

    def _spec(self) -> FeedSpec:
        return FeedSpec(
            feed_id="alpha", config=GrubConfig(epoch_size=2, algorithm="always")
        )

    def _warming_ops(self, value: bytes):
        return [
            Operation.write("k", value),
            Operation.write("pad", b"p"),
            Operation.read("k"),
            Operation.read("k"),
        ]

    def test_evicted_feeds_shard_is_dropped_and_stats_frozen(self):
        registry = FeedRegistry()
        alpha = registry.create_feed(self._spec())
        scheduler = EpochScheduler(registry)
        warm = scheduler.run({"alpha": self._warming_ops(b"v1")})
        assert alpha.memo
        hits_before = warm.feed("alpha").cache_hits
        assert hits_before > 0

        scheduler.evict("alpha", at_epoch=0)
        fleet = scheduler.run({})

        # The handle — memo and all — is in no registry any more; the run
        # that evicted the feed bills it an empty final row, and the earlier
        # run's bill is still what it was.
        assert "alpha" not in registry and not registry.handles
        assert fleet.feed("alpha").departed and fleet.feed("alpha").cache_hits == 0
        assert warm.feed("alpha").cache_hits == hits_before

    def test_no_stale_reads_survive_readmission_of_same_feed_id(self):
        registry = FeedRegistry()
        departed = registry.create_feed(self._spec())
        scheduler = EpochScheduler(registry)
        scheduler.run({"alpha": self._warming_ops(b"old-value")})
        assert departed.memo["k"] == b"old-value"

        # Tenant leaves; a NEW tenant reuses the feed id in the next run with
        # a different value under the same key — on the same gateway.
        scheduler.evict("alpha", at_epoch=0)
        scheduler.run({})
        readmitted = registry.create_feed(self._spec())
        # A new handle, so an empty memo: there is nothing to tear down.
        assert readmitted is not departed and readmitted.memo == {}
        fleet = scheduler.run({"alpha": self._warming_ops(b"new-value")})

        # The re-admitted tenant's consumer observed its own value, never the
        # predecessor's memo, and its memo now holds only the new value.
        assert readmitted.consumer.last_value("k") == b"new-value"
        assert readmitted.memo["k"] == b"new-value"
        assert fleet.feed("alpha").operations == 4


class TestTheMemoIsTheFeeds:
    """The memo sits on the handle, so every scheduler over a registry reads
    and maintains the same one — none can be left holding a stale copy."""

    SPEC = FeedSpec(
        feed_id="alpha",
        config=GrubConfig(
            epoch_size=2, algorithm="memoryless", k=1, evict_unused_after_epochs=1
        ),
    )
    WARM = [Operation.write("k", b"v1")] + [Operation.read("k")] * 3
    #: Epochs with no reads of "k": the idle-eviction policy demotes it R→NR.
    IDLE = [Operation.write("other", bytes([i])) for i in range(8)]
    REREAD = [Operation.read("k")] * 2

    def reread_bill(self, second_scheduler):
        """Warm "k" under one scheduler, let it go R→NR under a second one
        (``None``: under the same), then read it again under the first."""
        registry = FeedRegistry()
        alpha = registry.create_feed(self.SPEC)
        first = EpochScheduler(registry)
        first.run({"alpha": self.WARM})
        assert alpha.memo == {"k": b"v1"}
        second = first
        if second_scheduler is not None:
            second = EpochScheduler(registry, **second_scheduler)
        second.run({"alpha": self.IDLE})
        assert alpha.storage_manager.replica_of("k") is None
        return first.run({"alpha": self.REREAD}).feed("alpha")

    @pytest.mark.parametrize(
        "second_scheduler",
        [
            {},
            {"execution_mode": "process", "num_workers": 1},
        ],
        ids=["cached", "process"],
    )
    def test_a_second_scheduler_cannot_leave_the_first_a_stale_entry(
        self, second_scheduler
    ):
        # "k" is no longer replicated: the read must go request → deliver
        # with a proof, and be paid for, whoever warmed the memo before.
        bill = self.reread_bill(second_scheduler)
        assert (bill.cache_hits, bill.deliveries) == (0, 1)
        assert bill.gas_feed == self.reread_bill(None).gas_feed > 0

    def test_constructing_a_scheduler_does_not_touch_the_registry(self):
        registry = FeedRegistry()
        registry.create_feed(self.SPEC)

        def sizes():
            return {
                name: len(value)
                for name, value in vars(registry).items()
                if isinstance(value, (list, dict))
            }

        before = sizes()
        assert before
        for _ in range(100):
            EpochScheduler(registry)
        assert sizes() == before
