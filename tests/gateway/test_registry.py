"""Feed registry: namespacing, isolation and tenant lifecycle."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import KVRecord, ReplicationState
from repro.core.config import GrubConfig
from repro.gateway import FeedRegistry, FeedSpec


@pytest.fixture
def registry() -> FeedRegistry:
    return FeedRegistry()


def test_feeds_share_one_chain_with_namespaced_addresses(registry):
    alpha = registry.create_feed(FeedSpec(feed_id="alpha"))
    bravo = registry.create_feed(FeedSpec(feed_id="bravo"))
    assert alpha.system.chain is registry.chain
    assert bravo.system.chain is registry.chain
    assert alpha.storage_manager.address == "alpha/storage-manager"
    assert bravo.storage_manager.address == "bravo/storage-manager"
    assert alpha.consumer.address == "alpha/data-consumer"
    assert alpha.data_owner.address == "alpha/data-owner"
    # All four contracts plus the router live on the shared chain.
    assert "gateway-router" in registry.chain.contracts
    assert "alpha/storage-manager" in registry.chain.contracts
    assert "bravo/storage-manager" in registry.chain.contracts


def test_feeds_are_gateway_authorised(registry):
    handle = registry.create_feed(FeedSpec(feed_id="alpha"))
    assert handle.storage_manager.gateway == registry.router.address


def test_duplicate_feed_id_rejected(registry):
    registry.create_feed(FeedSpec(feed_id="alpha"))
    with pytest.raises(ConfigurationError):
        registry.create_feed(FeedSpec(feed_id="alpha"))


def test_feed_id_validation():
    with pytest.raises(ConfigurationError):
        FeedSpec(feed_id="")
    with pytest.raises(ConfigurationError):
        FeedSpec(feed_id="bad/id")


def test_per_feed_config_and_preload(registry):
    preload = [KVRecord.make("asset", b"seed-value", ReplicationState.REPLICATED)]
    handle = registry.create_feed(
        FeedSpec(
            feed_id="alpha",
            config=GrubConfig(epoch_size=4, algorithm="always"),
            preload=preload,
        )
    )
    assert handle.system.config.algorithm == "always"
    assert handle.storage_manager.replica_of("asset") == b"seed-value"


def test_feed_state_is_isolated(registry):
    alpha = registry.create_feed(FeedSpec(feed_id="alpha"))
    bravo = registry.create_feed(FeedSpec(feed_id="bravo"))
    alpha.data_owner.preload([KVRecord.make("asset", b"alpha-value")])
    assert alpha.service_provider.store.get_record("asset") is not None
    assert bravo.service_provider.store.get_record("asset") is None
    assert bravo.storage_manager.root_hash() is None


def test_remove_feed_deregisters(registry):
    registry.create_feed(FeedSpec(feed_id="alpha"))
    handle = registry.remove_feed("alpha")
    assert "alpha" not in registry
    assert len(registry) == 0
    assert handle.storage_manager.address not in registry.watchdog._routes
    assert handle.storage_manager.address not in registry.chain.contracts
    with pytest.raises(ConfigurationError):
        registry.get("alpha")


def test_removed_feed_id_can_be_recreated(registry):
    registry.create_feed(FeedSpec(feed_id="alpha"))
    registry.remove_feed("alpha")
    recreated = registry.create_feed(FeedSpec(feed_id="alpha"))
    # The new tenant starts from a clean slate at the same addresses.
    assert recreated.storage_manager.root_hash() is None
    assert "alpha" in registry


def test_feed_ids_preserve_creation_order(registry):
    for name in ("zulu", "alpha", "mike"):
        registry.create_feed(FeedSpec(feed_id=name))
    assert registry.feed_ids == ["zulu", "alpha", "mike"]
