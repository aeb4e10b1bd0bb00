"""FeedSpec-selected SP-store backends.

``FeedSpec(store_backend="lsm", store_directory=...)`` must wire an
:class:`~repro.storage.lsm.LSMStore` under the feed's authenticated SP store.
The shared KV conformance suite (``tests/storage/kv_suite.py``) runs against
the exact store instance a spec builds, so the gateway-wired backend honours
the same behavioural contract as every stand-alone backend, and an end-to-end
run shows the feed's records actually landing in (and surviving under) the
persistent store.
"""

from __future__ import annotations

import pytest
from kv_suite import KVStoreContract

from repro.common.errors import ConfigurationError
from repro.common.types import KVRecord
from repro.core.config import GrubConfig
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec
from repro.storage.lsm import LSMStore
from repro.workloads.synthetic import SyntheticWorkload


def _lsm_feed_store(**spec_overrides):
    """The backing store a fresh lsm-backed feed spec actually wires."""
    registry = FeedRegistry()
    handle = registry.create_feed(
        FeedSpec(
            feed_id="lsm-feed",
            config=GrubConfig(epoch_size=8),
            store_backend="lsm",
            **spec_overrides,
        )
    )
    return handle.system.sp_store.backing


class TestLSMFeedStoreConformance(KVStoreContract):
    """The shared KV contract, run against a FeedSpec-built LSM store."""

    @staticmethod
    def make():
        store = _lsm_feed_store()
        assert isinstance(store, LSMStore)
        return store


class TestFeedSpecStoreBackend:
    def test_memory_is_the_default(self):
        registry = FeedRegistry()
        handle = registry.create_feed(
            FeedSpec(feed_id="mem", config=GrubConfig(epoch_size=8))
        )
        assert handle.system.sp_store.backing is None

    def test_lsm_backend_with_directory_is_persistent(self, tmp_path):
        directory = tmp_path / "feed-store"
        store = _lsm_feed_store(store_directory=directory)
        assert isinstance(store, LSMStore)
        assert store.directory == directory
        assert directory.exists()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="store_backend"):
            FeedSpec(feed_id="x", store_backend="redis")

    def test_directory_without_lsm_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="store_directory"):
            FeedSpec(feed_id="x", store_directory=tmp_path)

    def test_run_lands_records_in_persistent_store_and_survives_reopen(self, tmp_path):
        directory = tmp_path / "lsm-feed"
        registry = FeedRegistry()
        preload = [KVRecord.make(f"key-{i:02d}", bytes(32)) for i in range(8)]
        registry.create_feed(
            FeedSpec(
                feed_id="lsm-feed",
                config=GrubConfig(epoch_size=8, algorithm="memoryless", k=1),
                preload=preload,
                store_backend="lsm",
                store_directory=directory,
            )
        )
        workload = SyntheticWorkload(
            read_write_ratio=2.0,
            num_operations=32,
            num_keys=8,
            key_prefix="key-",
            seed=3,
        ).operations()
        scheduler = EpochScheduler(registry)
        fleet = scheduler.run({"lsm-feed": workload})
        assert fleet.feed("lsm-feed").operations == 32

        live = registry.get("lsm-feed").system.sp_store
        # Preloaded records plus whatever keys the workload minted.
        assert len(live) >= 8
        assert {f"key-{i:02d}" for i in range(8)} <= set(live.keys())
        # A process restart: reopen the directory and find every record the
        # authenticated store holds, under its replication-prefixed key.
        reopened = LSMStore(directory=directory)
        for record in live.records():
            assert reopened.get(record.prefixed_key) == record.value
