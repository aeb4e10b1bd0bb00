"""The consumer-side read cache: hits, invalidation, LRU bounds, gas effect."""

from __future__ import annotations

import pytest

from repro.common.types import Operation
from repro.core.config import GrubConfig
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec, ReadCache
from repro.gateway.cache import CacheStats


class TestReadCacheUnit:
    def test_hit_after_put(self):
        cache = ReadCache()
        cache.put("feed", "k", b"v")
        assert cache.get("feed", "k") == b"v"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_miss_is_counted(self):
        cache = ReadCache()
        assert cache.get("feed", "k") is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0

    def test_entries_are_per_feed(self):
        cache = ReadCache()
        cache.put("alpha", "k", b"alpha-value")
        assert cache.get("bravo", "k") is None
        assert cache.get("alpha", "k") == b"alpha-value"

    def test_invalidate_drops_one_entry(self):
        cache = ReadCache()
        cache.put("feed", "k", b"v")
        assert cache.invalidate("feed", "k") is True
        assert cache.invalidate("feed", "k") is False
        assert cache.get("feed", "k") is None
        assert cache.stats.invalidations == 1

    def test_invalidate_feed_drops_only_that_feed(self):
        cache = ReadCache()
        cache.put("alpha", "k1", b"1")
        cache.put("alpha", "k2", b"2")
        cache.put("bravo", "k1", b"3")
        assert cache.invalidate_feed("alpha") == 2
        assert len(cache) == 1
        assert cache.get("bravo", "k1") == b"3"

    def test_lru_capacity_evicts_oldest(self):
        cache = ReadCache(capacity=2)
        cache.put("feed", "a", b"1")
        cache.put("feed", "b", b"2")
        cache.get("feed", "a")  # refresh a; b is now the LRU entry
        cache.put("feed", "c", b"3")
        assert cache.get("feed", "b") is None
        assert cache.get("feed", "a") == b"1"
        assert cache.stats.evictions == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReadCache(capacity=0)


def _single_feed_fixture(enable_cache: bool):
    registry = FeedRegistry()
    registry.create_feed(
        FeedSpec(feed_id="alpha", config=GrubConfig(epoch_size=4, algorithm="memoryless", k=1))
    )
    # One write then a long run of reads of the same key: the key replicates,
    # after which every further read can be served from the cache.
    operations = [Operation.write("hot", b"hot-value")]
    operations += [Operation.read("hot") for _ in range(23)]
    scheduler = EpochScheduler(registry, enable_cache=enable_cache)
    fleet = scheduler.run({"alpha": operations})
    return registry, fleet


class TestReadCacheInScheduler:
    def test_repeated_replicated_reads_hit_the_cache(self):
        _, fleet = _single_feed_fixture(enable_cache=True)
        telemetry = fleet.feed("alpha")
        assert telemetry.cache_hits > 0
        assert fleet.cache_hit_rate > 0.5
        # Cached reads still count as operations for the tenant.
        assert telemetry.operations == 24

    def test_cache_lowers_feed_gas(self):
        _, with_cache = _single_feed_fixture(enable_cache=True)
        _, without_cache = _single_feed_fixture(enable_cache=False)
        assert with_cache.gas_feed < without_cache.gas_feed

    def test_write_invalidates_and_next_read_sees_new_value(self):
        registry = FeedRegistry()
        registry.create_feed(
            FeedSpec(feed_id="alpha", config=GrubConfig(epoch_size=2, algorithm="always"))
        )
        cache = ReadCache()
        scheduler = EpochScheduler(registry, read_cache=cache)
        operations = [
            Operation.write("k", b"v1"),
            Operation.write("pad", b"p"),
            # Epoch 1: the replica now exists; the read populates the cache.
            Operation.read("k"),
            Operation.read("k"),
            # Epoch 2: a write invalidates; the trailing read must go back to
            # the chain and observe v2, not the stale memo.
            Operation.write("k", b"v2"),
            Operation.read("k"),
            Operation.read("k"),
            Operation.read("k"),
        ]
        scheduler.run({"alpha": operations})
        assert registry.get("alpha").consumer.last_value("k") == b"v2"
        assert cache.stats.invalidations >= 1

    def test_feed_removal_drops_the_feeds_entries(self):
        registry = FeedRegistry()
        registry.create_feed(
            FeedSpec(feed_id="alpha", config=GrubConfig(epoch_size=2, algorithm="always"))
        )
        cache = ReadCache()
        scheduler = EpochScheduler(registry, read_cache=cache)
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
        assert len(cache) > 0
        registry.remove_feed("alpha")
        assert len(cache) == 0

    def test_eviction_invalidates_cache_entry(self):
        registry = FeedRegistry()
        registry.create_feed(
            FeedSpec(
                feed_id="alpha",
                config=GrubConfig(epoch_size=2, algorithm="memoryless", k=1,
                                  evict_unused_after_epochs=1),
            )
        )
        cache = ReadCache()
        scheduler = EpochScheduler(registry, read_cache=cache)
        operations = [
            Operation.write("k", b"v1"),
            Operation.read("k"),
            Operation.read("k"),
            Operation.read("k"),
            # Epochs with no reads of "k": the idle-eviction policy demotes it
            # R→NR, which must also drop the gateway's cached copy.
            Operation.write("other", b"o1"),
            Operation.write("other", b"o2"),
            Operation.write("other", b"o3"),
            Operation.write("other", b"o4"),
        ]
        scheduler.run({"alpha": operations})
        assert cache.get("alpha", "k") is None


class TestTenantChurn:
    """Shard lifecycle under feed removal (PR 2: per-feed-sharded cache)."""

    def test_removed_feed_shard_is_deregistered_but_stats_survive(self):
        cache = ReadCache()
        cache.put("alpha", "k", b"1")
        assert cache.get("alpha", "k") == b"1"
        hits_before = cache.stats.hits
        dropped = cache.invalidate_feed("alpha")
        assert dropped == 1
        # The aggregate keeps the removed tenant's counters...
        assert cache.stats.hits == hits_before
        assert cache.stats.invalidations >= 1
        # ...but a tenant reusing the feed id starts from zero.
        assert cache.shard_stats("alpha").hits == 0
        assert len(cache) == 0

    def test_clear_preserves_aggregate_statistics(self):
        cache = ReadCache()
        cache.put("alpha", "k", b"1")
        cache.get("alpha", "k")
        cache.get("alpha", "other")
        before = (cache.stats.hits, cache.stats.misses)
        cache.clear()
        assert len(cache) == 0
        assert (cache.stats.hits, cache.stats.misses) == before

    def test_probe_of_unknown_feed_counts_miss_without_allocating(self):
        cache = ReadCache()
        assert cache.get("ghost", "k") is None
        assert cache.stats.misses == 1
        assert len(cache) == 0


class TestSchedulerEvictionTeardown:
    """Cache teardown through the fleet controller's eviction path."""

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
        registry.create_feed(self._spec())
        cache = ReadCache()
        scheduler = EpochScheduler(registry, read_cache=cache)
        scheduler.run({"alpha": self._warming_ops(b"v1")})
        assert len(cache) > 0
        hits_before = cache.stats.hits
        assert hits_before > 0

        scheduler.evict("alpha", at_epoch=0)
        scheduler.run({})

        # Shard gone, per-feed counters reset, aggregate counters survive.
        assert len(cache) == 0
        assert cache.shard_stats("alpha").hits == 0
        assert cache.stats.hits == hits_before
        assert cache.stats.invalidations >= 1  # the dropped entries

    def test_no_stale_reads_survive_readmission_of_same_feed_id(self):
        registry = FeedRegistry()
        registry.create_feed(self._spec())
        cache = ReadCache()
        scheduler = EpochScheduler(registry, read_cache=cache)
        scheduler.run({"alpha": self._warming_ops(b"old-value")})
        assert cache.get("alpha", "k") == b"old-value"

        # Tenant leaves; a NEW tenant reuses the feed id in the next run with
        # a different value under the same key — on the same gateway and cache.
        scheduler.evict("alpha", at_epoch=0)
        scheduler.run({})
        registry.create_feed(self._spec())
        fleet = scheduler.run({"alpha": self._warming_ops(b"new-value")})

        # The re-admitted tenant's consumer observed its own value, never the
        # predecessor's memo, and the cache now holds only the new value.
        assert registry.get("alpha").consumer.last_value("k") == b"new-value"
        assert cache.get("alpha", "k") == b"new-value"
        assert fleet.feed("alpha").operations == 4


class TestStatsHygiene:
    """CacheStats arithmetic: the regression pair for the zero-lookup
    hit_rate and the install-time retirement of replaced shard counters."""

    def test_zero_lookup_hit_rate_is_zero_not_nan(self):
        stats = CacheStats()
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0
        # A fresh cache (pre-created shards, no traffic) quotes the same.
        cache = ReadCache()
        cache.ensure_shard("alpha")
        assert cache.stats.hit_rate == 0.0

    def test_merge_folds_every_counter(self):
        into = CacheStats(hits=1, misses=2, invalidations=3, evictions=4)
        into.merge(CacheStats(hits=10, misses=20, invalidations=30, evictions=40))
        assert (into.hits, into.misses, into.invalidations, into.evictions) == (
            11,
            22,
            33,
            44,
        )

    def test_install_shard_retires_replaced_counters_exactly_once(self):
        cache = ReadCache()
        # Main-side shard observes some traffic before the worker's shard
        # ships back (a reused cache; a fresh run's shard counts nothing).
        cache.put("alpha", "k", b"main")
        cache.get("alpha", "k")  # hit
        cache.get("alpha", "ghost")  # miss
        worker_stats = CacheStats(hits=5, misses=3)
        cache.install_shard("alpha", [("k", b"worker")], worker_stats)
        # Aggregate = retired main-side counters + installed worker counters,
        # each exactly once.
        assert cache.stats.hits == 1 + 5
        assert cache.stats.misses == 1 + 3
        # The live shard carries only what the worker observed.
        assert cache.shard_stats("alpha").hits == 5
        assert cache.get("alpha", "k") == b"worker"

    def test_install_over_missing_shard_retires_nothing(self):
        cache = ReadCache()
        cache.install_shard("alpha", [("k", b"v")], CacheStats(hits=2, misses=1))
        assert cache.stats.hits == 2 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_export_shard_is_the_inverse_of_install_shard(self):
        cache = ReadCache()
        cache.put("alpha", "old", b"1")
        cache.put("alpha", "new", b"2")
        cache.get("alpha", "old")  # hit; "old" becomes most recent
        cache.get("alpha", "ghost")  # miss
        entries, stats = cache.export_shard("alpha")
        assert entries == (("new", b"2"), ("old", b"1"))  # LRU order
        assert (stats.hits, stats.misses) == (1, 1)
        other = ReadCache()
        other.install_shard("alpha", entries, stats)
        assert other.export_shard("alpha") == (entries, stats)
        # A feed that never touched the cache exports empty, without
        # allocating a shard.
        assert cache.export_shard("ghost") == ((), CacheStats())
        assert cache.shard_stats("ghost").lookups == 0 and len(cache) == 2
