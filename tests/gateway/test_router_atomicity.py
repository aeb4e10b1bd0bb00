"""A failing group must revert the whole batched router transaction, and
only the gateway's operator may send the router an update batch."""

from __future__ import annotations

import pytest

from repro.chain.transaction import Transaction
from repro.common.types import KVRecord, ReplicationState
from repro.core.service_provider import TamperingServiceProvider
from repro.core.storage_manager import UpdateEntry, deliver_calldata_bytes
from repro.gateway import FeedRegistry, FeedSpec
from repro.gateway.executor import build_deliver_groups, deliver_transaction
from repro.gateway.router import GATEWAY_OPERATOR, UpdateGroup, scope_weights_for_update


def test_failing_group_reverts_earlier_groups_storage():
    registry = FeedRegistry()
    alpha = registry.create_feed(FeedSpec(feed_id="alpha"))
    bravo = registry.create_feed(FeedSpec(feed_id="bravo"))
    groups = [
        UpdateGroup(
            feed_id="alpha",
            manager=alpha.storage_manager.address,
            entries=[UpdateEntry("k", b"v", ReplicationState.REPLICATED)],
            digest=b"\x01" * 32,
        ),
        # Invalid: a replicated entry must carry its value.
        UpdateGroup(
            feed_id="bravo",
            manager=bravo.storage_manager.address,
            entries=[UpdateEntry("k", None, ReplicationState.REPLICATED)],
            digest=b"\x02" * 32,
        ),
    ]
    transaction = Transaction(
        sender="gateway-operator",
        contract=registry.router.address,
        function="update_batch",
        args={"groups": groups},
        calldata_bytes=sum(group.calldata_bytes for group in groups),
        scopes=scope_weights_for_update(groups),
    )
    registry.chain.submit(transaction)
    registry.chain.mine_block()
    receipt = registry.chain.receipt_for(transaction.txid)
    assert not receipt.success
    # Alpha's group executed before bravo's failed one, but the batch is
    # atomic: no root, no replica survives the revert.
    assert alpha.storage_manager.root_hash() is None
    assert alpha.storage_manager.replica_of("k") is None


def test_receipt_gas_covers_batched_group_execution():
    registry = FeedRegistry()
    alpha = registry.create_feed(
        FeedSpec(
            feed_id="alpha",
            preload=[KVRecord.make("k", b"v", ReplicationState.NOT_REPLICATED)],
        )
    )
    groups = [
        UpdateGroup(
            feed_id="alpha",
            manager=alpha.storage_manager.address,
            entries=[UpdateEntry("k", b"v2", ReplicationState.REPLICATED, is_transition=True)],
            digest=b"\x03" * 32,
        )
    ]
    ledger_before = registry.chain.ledger.total
    transaction = Transaction(
        sender="gateway-operator",
        contract=registry.router.address,
        function="update_batch",
        args={"groups": groups},
        calldata_bytes=groups[0].calldata_bytes,
        scopes=scope_weights_for_update(groups),
    )
    registry.chain.submit(transaction)
    registry.chain.mine_block()
    receipt = registry.chain.receipt_for(transaction.txid)
    assert receipt.success
    # Everything the batch charged to the ledger — including the group's
    # execution inside the storage manager, metered under alpha's scope —
    # shows up in the transaction's own gas_used.
    assert receipt.gas_used == registry.chain.ledger.total - ledger_before
    # And the per-feed bill contains the group's storage write, not just the
    # intrinsic share.
    assert registry.chain.ledger.scope_total("alpha") > 20_000


# ---------------------------------------------------------------------------
# Who may update through the router
# ---------------------------------------------------------------------------


def hosted_pair():
    """Two hosted feeds, alpha with ``k`` replicated on chain and read once."""
    registry = FeedRegistry()
    alpha = registry.create_feed(
        FeedSpec(
            feed_id="alpha",
            preload=[KVRecord.make("k", b"v" * 32, ReplicationState.REPLICATED)],
        )
    )
    registry.create_feed(FeedSpec(feed_id="bravo"))
    registry.chain.execute_internal_call(
        "user", alpha.consumer.address, "query_feed", key="k"
    )
    return registry, alpha


def land_update_batch(registry, sender, handle, value):
    group = UpdateGroup(
        feed_id=handle.feed_id,
        manager=handle.storage_manager.address,
        entries=[UpdateEntry("k", value, ReplicationState.REPLICATED)],
        digest=b"\xee" * 32,
    )
    return registry.chain.land(
        Transaction(
            sender=sender,
            contract=registry.router.address,
            function="update_batch",
            args={"groups": [group]},
            calldata_bytes=group.calldata_bytes,
            scopes=scope_weights_for_update([group]),
        )
    )


@pytest.mark.parametrize(
    "sender",
    ["mallory", "bravo/data-owner", "alpha/data-owner"],
    ids=["stranger", "neighbour", "own-owner"],
)
def test_only_the_gateway_operator_may_send_an_update_batch(sender):
    registry, alpha = hosted_pair()
    manager = alpha.storage_manager
    assert alpha.data_owner.address == "alpha/data-owner"
    root, slots = manager.root_hash(), dict(manager.storage.slots)
    consumer = (alpha.consumer.deliveries(), dict(alpha.consumer.latest))
    receipt = land_update_batch(registry, sender, alpha, b"forged")
    assert not receipt.success and "only the gateway operator" in receipt.error
    # Nothing of the feed moved: root, replica slots and the consumer, which
    # still reads the genuine value.
    assert manager.root_hash() == root
    assert dict(manager.storage.slots) == slots
    assert manager.replica_of("k") == b"v" * 32
    assert (alpha.consumer.deliveries(), dict(alpha.consumer.latest)) == consumer
    assert registry.chain.execute_internal_call(
        "user", alpha.consumer.address, "query_feed", key="k"
    ) == b"v" * 32


def test_the_operators_update_batch_lands():
    registry, alpha = hosted_pair()
    receipt = land_update_batch(registry, GATEWAY_OPERATOR, alpha, b"w" * 32)
    assert receipt.success
    assert alpha.storage_manager.root_hash() == b"\xee" * 32
    assert alpha.storage_manager.replica_of("k") == b"w" * 32


# ---------------------------------------------------------------------------
# The adversary inside the gateway: one tampering SP among honest neighbours
# ---------------------------------------------------------------------------

KEYS = [f"k{index}" for index in range(6)]


def fleet_with_adversary(attack, adversary_at):
    """Three hosted feeds with every record requested once; the feed at
    ``adversary_at`` is served by a :class:`TamperingServiceProvider`."""
    registry = FeedRegistry()
    feed_ids = ["alpha", "bravo", "charlie"]
    for feed_id in feed_ids:
        registry.create_feed(
            FeedSpec(
                feed_id=feed_id,
                preload=[KVRecord.make(key, key.encode() * 16) for key in KEYS],
            )
        )
    victim = registry.get(feed_ids[adversary_at])
    honest = victim.service_provider
    evil = TamperingServiceProvider(
        address=honest.address,
        chain=honest.chain,
        storage_manager=honest.storage_manager,
        store=honest.store,
        scope=honest.scope,
        attack=attack,
        omit_probability=0.5,
    )
    evil.capture_snapshot()
    victim.system.service_provider = evil
    if attack == "replay":
        # Move the feed past the snapshot so the replayed values are stale.
        for key in KEYS:
            victim.data_owner.put(key, b"fresh-" + key.encode() * 8)
        victim.data_owner.end_epoch()
        registry.chain.mine_block()
    for handle in registry.handles:
        handle.service_provider.decision_lookup = lambda key: ReplicationState.REPLICATED
        for key in KEYS:
            registry.chain.execute_internal_call(
                "user", handle.consumer.address, "query_feed", key=key
            )
    registry.watchdog.poll()
    return registry, feed_ids, evil


@pytest.mark.parametrize("adversary_at", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("attack", ["forge", "replay", "fork"])
def test_tampering_group_reverts_the_whole_deliver_batch(attack, adversary_at):
    registry, feed_ids, evil = fleet_with_adversary(attack, adversary_at)
    groups = build_deliver_groups(registry, feed_ids)
    assert [group.feed_id for group in groups] == feed_ids
    assert all(len(group.items) == len(KEYS) for group in groups)
    receipt = registry.chain.land(deliver_transaction(registry.router.address, groups))
    assert evil.attacks_attempted == len(KEYS)
    assert not receipt.success and "integrity check failed" in receipt.error
    # The batch is atomic on chain: the neighbours' groups verified — some of
    # them before the tampering one was reached — yet none of their replicas
    # survives.
    for handle in registry.handles:
        assert handle.storage_manager.replica_count() == 0
        assert not any(
            slot.startswith("replica:") for slot in handle.storage_manager.storage.slots
        )
    # The router verifies every group before it applies any, so no consumer
    # in the batch saw a callback — Python-side state no revert would undo —
    # wherever the tampering group sits.  (Landing the batch again without
    # the one tenant is ROADMAP item 2 (b).)
    for feed_id in feed_ids:
        assert registry.get(feed_id).consumer.deliveries() == 0
        assert registry.get(feed_id).storage_manager.delivered_bytes == 0


def test_omitting_group_lands_and_starves_only_its_own_feed():
    registry, feed_ids, evil = fleet_with_adversary("omit", 1)
    groups = build_deliver_groups(registry, feed_ids)
    omitted = len(KEYS) - len(groups[1].items)
    assert evil.attacks_attempted == len(KEYS) and 0 < omitted < len(KEYS)
    receipt = registry.chain.land(deliver_transaction(registry.router.address, groups))
    # Omission is the attack verification cannot see: what is delivered is
    # genuine (the multiproof was made for the records that were kept), the
    # transaction lands, and only the adversary's own tenant goes short.
    assert receipt.success
    delivered = [registry.get(feed_id).consumer.deliveries() for feed_id in feed_ids]
    assert delivered == [len(KEYS), len(KEYS) - omitted, len(KEYS)]
    assert [
        registry.get(feed_id).storage_manager.replica_count() for feed_id in feed_ids
    ] == delivered


@pytest.mark.parametrize("function", ["apply_delivery", "_apply_delivery"])
@pytest.mark.parametrize("sender", ["sp", "stranger", GATEWAY_OPERATOR])
def test_an_unverified_apply_is_only_the_routers(function, sender):
    # A delivery's apply half checks no proof: sent as its own transaction —
    # by the feed's SP, a stranger or the router's operator (who is not the
    # router contract) — it reverts, and the forged records neither become
    # replicas nor reach a consumer.
    registry, feed_ids, evil = fleet_with_adversary("forge", 0)
    group = build_deliver_groups(registry, feed_ids)[0]
    manager = registry.get(feed_ids[0]).storage_manager
    receipt = registry.chain.land(
        Transaction(
            sender=evil.address if sender == "sp" else sender,
            contract=manager.address,
            function=function,
            args={"items": group.items, "proof": group.proof},
            calldata_bytes=deliver_calldata_bytes(group.items, group.proof),
        )
    )
    assert evil.attacks_attempted == len(KEYS)
    assert not receipt.success
    assert not any(slot.startswith("replica:") for slot in manager.storage.slots)
    assert registry.get(feed_ids[0]).consumer.deliveries() == 0
    assert manager.delivered_bytes == 0
