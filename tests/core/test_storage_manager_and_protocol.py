"""Tests for the storage-manager contract and the DO/SP protocol components."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.chain.chain import Blockchain, ChainParameters
from repro.chain.gas import GasLedger
from repro.chain.transaction import Transaction
from repro.common.clock import ManualClock
from repro.common.types import KVRecord, Operation, ReplicationState
from repro.core.config import GrubConfig
from repro.core.control_plane import ControlPlane, DecisionActuator, WorkloadMonitor
from repro.core.data_consumer import DataConsumerContract
from repro.core.data_owner import DataOwner
from repro.core.decision.memoryless import MemorylessAlgorithm
from repro.core.grub import GrubSystem
from repro.core.service_provider import ServiceProvider, TamperingServiceProvider
from repro.core.storage_manager import (
    INVALID_REPLICA,
    StorageManagerContract,
    UpdateEntry,
    deliver_calldata_bytes,
)
from repro.obs import Observability


@pytest.fixture
def protocol_system():
    """A small GRuB system with a preloaded store, convenient for protocol tests."""
    config = GrubConfig(epoch_size=4, algorithm="memoryless", k=1)
    preload = [
        KVRecord.make("alpha", b"A" * 32),
        KVRecord.make("bravo", b"B" * 32),
        KVRecord.make("charlie", b"C" * 32),
    ]
    return GrubSystem(config, preload=preload)


class TestStorageManagerContract:
    def test_preload_publishes_root_hash(self, protocol_system):
        assert protocol_system.storage_manager.root_hash() is not None

    def test_gget_miss_emits_request_and_returns_none(self, protocol_system):
        chain = protocol_system.chain
        value = chain.execute_internal_call(
            "user", "data-consumer", "query_feed", key="alpha"
        )
        assert value is None
        assert len(chain.event_log.filter(name="request", since=0)) == 1

    def test_deliver_then_hit(self, protocol_system):
        chain = protocol_system.chain
        chain.execute_internal_call("user", "data-consumer", "query_feed", key="alpha")
        protocol_system.service_provider.decision_lookup = lambda key: ReplicationState.REPLICATED
        protocol_system.service_provider.service_epoch()
        chain.mine_block()
        assert protocol_system.storage_manager.has_replica("alpha")
        value = chain.execute_internal_call(
            "user", "data-consumer", "query_feed", key="alpha"
        )
        assert value == b"A" * 32

    def test_update_requires_data_owner(self, protocol_system):
        from repro.chain.transaction import Transaction

        chain = protocol_system.chain
        tx = Transaction(
            sender="mallory",
            contract="storage-manager",
            function="update",
            args={"entries": [], "digest": b"\x01" * 32},
            calldata_bytes=64,
        )
        chain.submit(tx)
        receipt = chain.mine_block().receipts[0]
        assert not receipt.success
        assert "data owner" in receipt.error

    def test_invalidated_replica_treated_as_miss(self, protocol_system):
        manager = protocol_system.storage_manager
        manager.storage.slots["replica:alpha"] = INVALID_REPLICA
        assert not manager.has_replica("alpha")
        assert manager.replica_count() == 0
        value = protocol_system.chain.execute_internal_call(
            "user", "data-consumer", "query_feed", key="alpha"
        )
        assert value is None

    def test_call_history_records_hits_and_misses(self, protocol_system):
        chain = protocol_system.chain
        chain.execute_internal_call("user", "data-consumer", "query_feed", key="alpha")
        manager = protocol_system.storage_manager
        assert manager.call_history == ["alpha"]
        # A miss: the read became a request event for the SP.
        assert len(chain.event_log.filter(contract=manager.address, name="request", since=0)) == 1

    def test_on_chain_trace_tracking_costs_gas(self):
        config = GrubConfig(epoch_size=4)
        from repro.core.baselines import OnChainTraceSystem, OnChainReadTraceSystem

        bl3 = OnChainTraceSystem(config, preload=[KVRecord.make("a", b"v" * 32)])
        bl4 = OnChainReadTraceSystem(config, preload=[KVRecord.make("a", b"v" * 32)])
        plain = GrubSystem(config, preload=[KVRecord.make("a", b"v" * 32)])
        ops = [Operation.read("a") for _ in range(8)]
        gas_bl3 = bl3.run(list(ops)).gas_feed
        gas_bl4 = bl4.run(list(ops)).gas_feed
        gas_plain = plain.run(list(ops)).gas_feed
        assert gas_bl3 > gas_bl4 > gas_plain


class TestWritePath:
    def test_epoch_update_refreshes_root_and_skips_empty_epochs(self, protocol_system):
        owner = protocol_system.data_owner
        root_before = protocol_system.storage_manager.root_hash()
        result = owner.end_epoch()
        assert result.transaction is None  # nothing buffered, no transaction
        owner.put("alpha", b"X" * 32)
        result = owner.end_epoch()
        protocol_system.chain.mine_block()
        assert result.transaction is not None
        assert protocol_system.storage_manager.root_hash() != root_before

    def test_replicated_write_carried_in_update(self, protocol_system):
        owner = protocol_system.data_owner
        # Force the decision to R by reading twice (K=1 → replicate after 1 read).
        protocol_system.chain.execute_internal_call(
            "user", "data-consumer", "query_feed", key="bravo"
        )
        owner.control_plane.monitor.fetch_chain_reads()  # consumed below via run_epoch
        owner.put("bravo", b"Y" * 32)
        result = owner.end_epoch()
        protocol_system.chain.mine_block()
        replicated_entries = [e for e in result.entries if e.new_state is ReplicationState.REPLICATED]
        assert protocol_system.data_owner.control_plane.decision_for("bravo") in ReplicationState
        assert result.buffered_writes == 1
        # Whether or not the read was observed in time, the update must keep
        # the SP store and the on-chain digest consistent.
        assert protocol_system.sp_store.get_record("bravo").value == b"Y" * 32

    def test_submit_prepared_records_its_transaction_on_the_update(self, protocol_system):
        owner = protocol_system.data_owner
        owner.put("alpha", b"X" * 32)
        prepared = owner.prepare_epoch_update()
        assert prepared.transaction is None
        assert owner.submit_prepared(prepared) is prepared
        transaction = prepared.transaction
        assert protocol_system.chain.pending == [transaction]
        assert (transaction.function, transaction.sender) == ("update", owner.address)
        assert prepared.root == protocol_system.sp_store.root
        assert transaction.args == {"entries": prepared.entries, "digest": prepared.root}
        assert transaction.calldata_bytes == 64 + sum(
            entry.calldata_bytes for entry in prepared.entries
        )
        protocol_system.chain.mine_block()
        assert transaction.args == {}
        assert protocol_system.storage_manager.root_hash() == prepared.root

    def test_an_epoch_reaches_the_store_as_one_batch(self, protocol_system, monkeypatch):
        batches = []
        apply_updates = AuthenticatedKVStore.apply_updates

        def recorded(store, updates):
            batches.append([key for key, _, _ in updates])
            return apply_updates(store, updates)

        def refused(store, *args, **kwargs):
            raise AssertionError("an epoch's writes land only through apply_updates")

        monkeypatch.setattr(AuthenticatedKVStore, "apply_updates", recorded)
        monkeypatch.setattr(AuthenticatedKVStore, "apply_update", refused)
        owner = protocol_system.data_owner
        owner.put("alpha", b"X" * 32)
        owner.put("echo", b"E" * 32)
        owner.end_epoch()
        protocol_system.chain.mine_block()
        assert batches == [["alpha", "echo"]]
        store = protocol_system.sp_store
        assert store.get_record("echo").value == b"E" * 32
        assert protocol_system.storage_manager.root_hash() == store.root


class TestReplicaSlotReuse:
    """BtcRelay's "reusable storage": a new replica recycles a slot an
    eviction freed, at the storage-update price instead of the insert price."""

    @staticmethod
    def land_update(chain, manager, entry) -> dict:
        """Land one ``update`` carrying ``entry``; the gas it charged by category."""
        before = GasLedger()
        before.merge(chain.ledger)
        receipt = chain.land(
            Transaction(
                sender="owner",
                contract=manager.address,
                function="update",
                args={"entries": [entry], "digest": b"\x01" * 32},
                calldata_bytes=64 + entry.calldata_bytes,
            )
        )
        assert receipt.success
        return chain.ledger.since(before).by_category

    @pytest.mark.parametrize("reuse", [True, False], ids=["reusing", "fresh"])
    def test_a_new_key_takes_the_slot_an_eviction_freed(self, reuse):
        chain = Blockchain()
        manager = chain.deploy(
            StorageManagerContract("manager", data_owner="owner", reuse_replica_slots=reuse)
        )
        replicate = ReplicationState.REPLICATED
        self.land_update(chain, manager, UpdateEntry("A", b"a" * 32, replicate, True))
        evicted = UpdateEntry("A", None, ReplicationState.NOT_REPLICATED, True)
        self.land_update(chain, manager, evicted)
        # Only a reusing manager keeps a pool: nothing else would take from it.
        assert list(manager.free_replica_slots) == (["A"] if reuse else [])
        charged = self.land_update(chain, manager, UpdateEntry("B", b"b" * 32, replicate, True))
        assert manager.replica_of("B") == b"b" * 32 and manager.replica_count() == 1
        one_word = chain.schedule.storage_update_cost(1)
        if reuse:
            # The digest and B's replica: two updates, no insert.
            assert charged.get("sstore_insert", 0) == 0
            assert charged["sstore_update"] == 2 * one_word
        else:
            assert charged["sstore_insert"] == chain.schedule.storage_insert_cost(1)
            assert charged["sstore_update"] == one_word
        assert manager.free_replica_slots == {}

    @pytest.mark.parametrize("reuse", [True, False], ids=["reusing", "fresh"])
    def test_a_key_refilling_its_own_slot_takes_it_off_the_pool(self, reuse):
        chain = Blockchain()
        manager = chain.deploy(
            StorageManagerContract("manager", data_owner="owner", reuse_replica_slots=reuse)
        )
        replicate = ReplicationState.REPLICATED
        self.land_update(chain, manager, UpdateEntry("A", b"a" * 32, replicate, True))
        evicted = UpdateEntry("A", None, ReplicationState.NOT_REPLICATED, True)
        self.land_update(chain, manager, evicted)
        assert list(manager.free_replica_slots) == (["A"] if reuse else [])
        # A fills the slot it was evicted from: an update, and no slot is
        # free any more.
        charged = self.land_update(chain, manager, UpdateEntry("A", b"A" * 32, replicate, True))
        one_word = chain.schedule.storage_update_cost(1)
        assert charged.get("sstore_insert", 0) == 0
        assert charged["sstore_update"] == 2 * one_word
        assert manager.free_replica_slots == {}
        # So a new key claims a fresh slot at the insert price.
        charged = self.land_update(chain, manager, UpdateEntry("B", b"b" * 32, replicate, True))
        assert charged["sstore_insert"] == chain.schedule.storage_insert_cost(1)
        assert charged["sstore_update"] == one_word
        assert manager.free_replica_slots == {}
        assert manager.replica_count() == 2

    def test_a_key_whose_slot_went_to_another_pays_an_insert(self):
        chain = Blockchain()
        manager = chain.deploy(
            StorageManagerContract("manager", data_owner="owner", reuse_replica_slots=True)
        )
        replicate = ReplicationState.REPLICATED
        self.land_update(chain, manager, UpdateEntry("A", b"a" * 32, replicate, True))
        evicted = UpdateEntry("A", None, ReplicationState.NOT_REPLICATED, True)
        self.land_update(chain, manager, evicted)
        # B takes the slot A was evicted from, so A holds no slot any more.
        charged = self.land_update(chain, manager, UpdateEntry("B", b"b" * 32, replicate, True))
        assert charged.get("sstore_insert", 0) == 0
        # Two live replicas need two slots: A claims a fresh one.
        charged = self.land_update(chain, manager, UpdateEntry("A", b"A" * 32, replicate, True))
        assert charged["sstore_insert"] == chain.schedule.storage_insert_cost(1)
        assert charged["sstore_update"] == chain.schedule.storage_update_cost(1)
        assert (manager.replica_of("A"), manager.replica_of("B")) == (b"A" * 32, b"b" * 32)
        assert manager.replica_count() == 2
        # The digest's slot and two replica slots: three inserts in all.
        inserts = chain.ledger.by_category["sstore_insert"]
        assert inserts == 3 * chain.schedule.storage_insert_cost(1)
        # Evicted again, A frees its new slot, not B's.
        self.land_update(chain, manager, evicted)
        assert manager.replica_of("B") == b"b" * 32 and manager.replica_count() == 1
        assert list(manager.free_replica_slots) == ["A"]

    def test_a_reverted_eviction_frees_no_slot(self):
        chain = Blockchain()
        manager = chain.deploy(
            StorageManagerContract("manager", data_owner="owner", reuse_replica_slots=True)
        )
        replicate = ReplicationState.REPLICATED
        self.land_update(chain, manager, UpdateEntry("A", b"a" * 32, replicate, True))
        # A's eviction lands in an update that then fails, so it is undone.
        entries = [
            UpdateEntry("A", None, ReplicationState.NOT_REPLICATED, True),
            UpdateEntry("C", None, replicate, True),
        ]
        receipt = chain.land(
            Transaction(
                sender="owner",
                contract=manager.address,
                function="update",
                args={"entries": entries, "digest": b"\x01" * 32},
                calldata_bytes=64 + sum(entry.calldata_bytes for entry in entries),
            )
        )
        assert not receipt.success and manager.replica_of("A") == b"a" * 32
        # A still holds its slot, so B claims a fresh one.
        charged = self.land_update(chain, manager, UpdateEntry("B", b"b" * 32, replicate, True))
        assert charged["sstore_insert"] == chain.schedule.storage_insert_cost(1)
        assert (manager.replica_of("A"), manager.replica_of("B")) == (b"a" * 32, b"b" * 32)

    def test_evicting_an_invalidated_replica_frees_no_second_slot(self):
        chain = Blockchain()
        manager = chain.deploy(
            StorageManagerContract("manager", data_owner="owner", reuse_replica_slots=True)
        )
        self.land_update(
            chain, manager, UpdateEntry("A", b"a" * 32, ReplicationState.REPLICATED, True)
        )
        evicted = UpdateEntry("A", None, ReplicationState.NOT_REPLICATED, True)
        self.land_update(chain, manager, evicted)
        self.land_update(chain, manager, evicted)
        assert list(manager.free_replica_slots) == ["A"]
        assert manager.replica_count() == 0


class TestReadPathAndWatchdog:
    def test_watchdog_polls_only_new_events(self, protocol_system):
        chain = protocol_system.chain
        sp = protocol_system.service_provider
        chain.execute_internal_call("user", "data-consumer", "query_feed", key="alpha")
        assert sp.poll_requests() == 1
        assert sp.poll_requests() == 0

    def test_batched_deliver_answers_all_pending(self, protocol_system):
        chain = protocol_system.chain
        sp = protocol_system.service_provider
        for key in ("alpha", "bravo", "charlie"):
            chain.execute_internal_call("user", "data-consumer", "query_feed", key=key)
        transactions = sp.service_epoch()
        assert len(transactions) == 1  # batched
        chain.mine_block()
        assert protocol_system.consumer.deliveries() == 3

    def test_unbatched_deliver_sends_one_transaction_per_request(self, protocol_system):
        chain = protocol_system.chain
        sp = protocol_system.service_provider
        sp.batch_deliver = False
        for key in ("alpha", "bravo"):
            chain.execute_internal_call("user", "data-consumer", "query_feed", key=key)
        transactions = sp.service_epoch()
        assert len(transactions) == 2

    def test_unknown_key_request_is_skipped(self, protocol_system):
        chain = protocol_system.chain
        sp = protocol_system.service_provider
        chain.execute_internal_call("user", "data-consumer", "query_feed", key="ghost")
        transactions = sp.service_epoch()
        assert transactions == []


def requested_items(system, keys):
    """Have the consumer ask for ``keys`` and return the honest SP's answer —
    the items and their one multiproof — every record flagged for
    replication, without sending it."""
    for key in keys:
        system.chain.execute_internal_call("user", "data-consumer", "query_feed", key=key)
    provider = system.service_provider
    provider.decision_lookup = lambda key: ReplicationState.REPLICATED
    provider.poll_requests()
    requests, provider.pending = provider.pending, []
    return provider.build_deliver_items(requests)


def land_deliver(system, items, proof, gas_limit=None):
    """Mine one ``deliver`` of ``items`` under ``proof``; its receipt and what
    it added to the ledger by category."""
    ledger = system.chain.ledger
    before = dict(ledger.by_category)
    system.chain.submit(
        Transaction(
            sender="storage-provider",
            contract="storage-manager",
            function="deliver",
            args={"items": items, "proof": proof},
            calldata_bytes=deliver_calldata_bytes(items, proof),
            gas_limit=gas_limit,
        )
    )
    (receipt,) = system.chain.mine_block().receipts
    charged = {
        category: amount - before.get(category, 0)
        for category, amount in ledger.by_category.items()
        if amount != before.get(category, 0)
    }
    return receipt, charged


def forged(item):
    return replace(item, value=item.value + b"-forged")


def flipped_state(item):
    return replace(item, state_prefix="R" if item.state_prefix == "NR" else "NR")


def unknown_state(item):
    return replace(item, state_prefix="X")


def text_value(item):
    return replace(item, value=item.value.decode("ascii"))


def bytes_state(item):
    return replace(item, state_prefix=item.state_prefix.encode("ascii"))


def text_index(item):
    return replace(item, leaf_index=str(item.leaf_index))


class TestSecurityAgainstTamperingSP:
    @pytest.mark.parametrize("attack", ["forge", "replay", "fork"])
    def test_tampered_deliveries_are_rejected_on_chain(self, attack):
        config = GrubConfig(epoch_size=4)
        preload = [KVRecord.make("alpha", b"A" * 32), KVRecord.make("bravo", b"B" * 32)]
        system = GrubSystem(config, preload=preload)
        evil = TamperingServiceProvider(
            address="storage-provider",
            chain=system.chain,
            storage_manager=system.storage_manager,
            store=system.sp_store,
            attack=attack,
        )
        evil.capture_snapshot()
        if attack == "replay":
            # Change the value after the snapshot so the replayed value is stale.
            system.data_owner.put("alpha", b"NEW" + b"A" * 29)
            system.data_owner.end_epoch()
            system.chain.mine_block()
        system.chain.execute_internal_call("user", "data-consumer", "query_feed", key="alpha")
        evil.service_epoch()
        receipts = system.chain.mine_block().receipts
        deliver_receipts = [r for r in receipts if r.transaction.function == "deliver"]
        assert deliver_receipts, "the adversarial SP should have sent a deliver"
        assert all(not r.success for r in deliver_receipts)
        # The callback must never observe tampered data.
        assert system.consumer.deliveries() == 0

    @pytest.mark.parametrize(
        "forge, forged_at",
        [
            (forged, 0),
            (forged, 1),
            (forged, 2),
            (flipped_state, 1),
            (unknown_state, 1),
            (text_value, 1),
            (bytes_state, 1),
            (text_index, 1),
        ],
        ids=[
            "first",
            "middle",
            "last",
            "flipped-state",
            "unknown-state",
            "text-value",
            "bytes-state",
            "text-index",
        ],
    )
    def test_forged_item_in_a_mixed_batch_applies_nothing(
        self, protocol_system, forge, forged_at
    ):
        """One forged record fails the whole ``deliver`` *before* anything is
        applied: a consumer's Python-side state is not contract storage, so a
        callback that had already run could not be reverted with the receipt.
        A record claiming the other replication state (R and NR swapped), or
        one that does not exist, is forged too: it hashes to another leaf, and
        the call comes back as a failed receipt, not an exception out of
        ``mine_block``.  So is a record whose value is text, whose state is
        bytes or whose leaf index is text: types the verifier does not accept.

        This holds per ``deliver`` call, and across a router
        ``deliver_batch``: the router verifies every group before it applies
        any (``tests/gateway/test_router_atomicity.py``).
        """
        system = protocol_system
        items, proof = requested_items(system, ["alpha", "bravo", "charlie"])
        items[forged_at] = forge(items[forged_at])
        receipt, _ = land_deliver(system, items, proof)
        assert not receipt.success and "integrity check failed" in receipt.error
        assert system.consumer.deliveries() == 0
        assert system.storage_manager.delivered_bytes == 0
        assert system.storage_manager.replica_count() == 0
        assert not any(
            slot.startswith("replica:") for slot in system.storage_manager.storage.slots
        )

    def test_omission_attack_denies_service_but_not_integrity(self):
        config = GrubConfig(epoch_size=4)
        system = GrubSystem(config, preload=[KVRecord.make("alpha", b"A" * 32)])
        evil = TamperingServiceProvider(
            address="storage-provider",
            chain=system.chain,
            storage_manager=system.storage_manager,
            store=system.sp_store,
            attack="omit",
        )
        system.chain.execute_internal_call("user", "data-consumer", "query_feed", key="alpha")
        assert evil.service_epoch() == []
        assert system.consumer.deliveries() == 0

    def test_honest_delivery_succeeds_for_comparison(self, protocol_system):
        chain = protocol_system.chain
        chain.execute_internal_call("user", "data-consumer", "query_feed", key="alpha")
        protocol_system.service_provider.service_epoch()
        receipts = chain.mine_block().receipts
        deliver_receipts = [r for r in receipts if r.transaction.function == "deliver"]
        assert deliver_receipts and all(r.success for r in deliver_receipts)
        assert protocol_system.consumer.deliveries() == 1


class TestDeliverMetering:
    """What a ``deliver`` costs.  Every item pays its own leaf hash; the call's
    one multiproof is then checked against the leaves it is for (free), its
    whole walk charged as one amount, and everything is verified before
    anything is applied.  A one-record call's multiproof is that record's
    path, so its constants are those of the commits that shipped one path per
    record and must never move; the multi-record constants moved when the
    paths became one proof (PR 24), and say from what."""

    @staticmethod
    def system_with(records):
        preload = [
            KVRecord.make(f"key-{index:03d}", bytes([65 + index % 26]) * 32)
            for index in range(records)
        ]
        return GrubSystem(GrubConfig(epoch_size=4), preload=preload)

    KEYS = [f"key-{index:03d}" for index in range(4)]

    @pytest.mark.parametrize("key", ["key-000", "key-003"])
    @pytest.mark.parametrize(
        "records, depth, gas_used", [(5, 3, 55_133), (40, 6, 61_787)]
    )
    def test_one_record_deliver_costs_what_it_always_did(
        self, records, depth, gas_used, key
    ):
        system = self.system_with(records)
        items, proof = requested_items(system, [key])
        assert proof.siblings == system.sp_store.query(key).proof.path
        receipt, charged = land_deliver(system, items, proof)
        assert receipt.success
        # One leaf hash over 3 words (48) and `depth` pair hashes (42).
        assert charged["hash"] == 48 + depth * 42
        assert charged["transaction"] == 21_000 + 2_176 * (3 + depth)
        assert receipt.gas_used == gas_used == sum(charged.values())

    @pytest.mark.parametrize(
        "records, siblings, pair_hashes, gas_used",
        [(5, 1, 4, 126_132), (40, 4, 7, 132_786)],
    )
    def test_successful_deliver_costs_what_it_always_did(
        self, records, siblings, pair_hashes, gas_used
    ):
        # Four neighbouring leaves: two pairs, their parent, then one sibling a
        # level to the root.  With a path per record the same calls carried
        # 12 / 24 digests, hashed 12 / 24 pairs and cost 150 404 / 177 020.
        system = self.system_with(records)
        items, proof = requested_items(system, self.KEYS)
        assert [item.leaf_index for item in items] == [0, 1, 2, 3]
        assert len(proof.siblings) == siblings
        receipt, charged = land_deliver(system, items, proof)
        assert receipt.success
        assert charged["hash"] == 4 * 48 + pair_hashes * 42
        # 4 x 72 bytes of records are 9 words of calldata, plus the siblings.
        assert charged["transaction"] == 21_000 + 2_176 * (9 + siblings)
        assert receipt.gas_used == gas_used == sum(charged.values())
        assert charged["sstore_insert"] == 80_000 and charged["call"] == 2_800
        assert system.consumer.deliveries() == 4

    def test_k_requests_of_one_key_pay_one_leafs_siblings(self):
        # Three requests of one key are one leaf: its six siblings are shipped
        # and walked once (49 288 of calldata, 3 x 48 + 6 x 42 of hashing)
        # where every request used to carry the path again (75 400 and 900,
        # 98 609 in all), and all three callbacks still fire.
        system = self.system_with(40)
        items, proof = requested_items(system, ["key-002"] * 3)
        assert [item.leaf_index for item in items] == [2, 2, 2]
        assert [item.replicate for item in items] == [True, False, False]
        assert proof.siblings == system.sp_store.query("key-002").proof.path
        receipt, charged = land_deliver(system, items, proof)
        assert receipt.success and receipt.gas_used == 71_993
        assert charged["transaction"] == 49_288 and charged["hash"] == 396
        assert charged["sstore_insert"] == 20_000
        assert system.consumer.deliveries() == 3

    def test_out_of_gas_while_applying(self):
        # The limit runs out at the third record's replica store, after the
        # whole call has been verified and paid for (hash 486);
        # a reverted call adds nothing to the delivered bytes Equation 1's
        # discount reads.
        system = self.system_with(40)
        receipt, charged = land_deliver(
            system, *requested_items(system, self.KEYS), gas_limit=100_000
        )
        assert not receipt.success and "out of gas" in receipt.error
        assert receipt.gas_used == 91_380 == sum(charged.values())
        assert charged == {
            "transaction": 49_288,
            "sload": 200,
            "hash": 486,
            "sstore_insert": 40_000,
            "call": 1_400,
            "callback": 6,
        }
        assert system.storage_manager.delivered_bytes == 0
        assert system.storage_manager.replica_count() == 0
        # Running out of gas while applying is not a verification failure: the
        # two callbacks that ran are Python-side state no revert undoes.
        assert system.consumer.deliveries() == 2

    def test_out_of_gas_inside_the_proof_charge_applies_nothing(self):
        # The four leaf hashes fit (192), the walk's one charge (7 x 42) does
        # not: nothing of it is hashed, stored or called back.
        system = self.system_with(40)
        receipt, charged = land_deliver(
            system, *requested_items(system, self.KEYS), gas_limit=49_700
        )
        assert not receipt.success and "out of gas: requested 294" in receipt.error
        assert charged == {"transaction": 49_288, "sload": 200, "hash": 192}
        assert system.storage_manager.delivered_bytes == 0
        assert system.storage_manager.replica_count() == 0
        assert system.consumer.deliveries() == 0

    def test_forged_proof_costs_the_verification_it_reached(self):
        # Third of four records forged: the leaves are hashed and the proof
        # fits them, so the whole walk is charged (4 x 48 + 7 x 42 = 486; 906
        # when the first three paths were walked one by one) before it arrives
        # at another root; nothing is stored or called.
        system = self.system_with(40)
        items, proof = requested_items(system, self.KEYS)
        items[2] = forged(items[2])
        receipt, charged = land_deliver(system, items, proof)
        assert not receipt.success and "integrity check failed" in receipt.error
        # The forged value is 7 bytes longer: one more word to hash and to ship.
        assert charged == {"transaction": 49_288 + 2_176, "sload": 200, "hash": 486 + 6}
        assert receipt.gas_used == sum(charged.values())

    @pytest.mark.parametrize(
        "malform",
        [
            lambda items, proof: (items, replace(proof, siblings=proof.siblings[1:])),
            lambda items, proof: (items, replace(proof, siblings=proof.siblings + (b"x" * 32,))),
            lambda items, proof: (items, replace(proof, leaf_count=17)),
            lambda items, proof: ([replace(items[0], leaf_index=40)] + items[1:], proof),
            lambda items, proof: ([replace(items[0], leaf_index=-1)] + items[1:], proof),
        ],
        ids=["sibling-dropped", "sibling-extra", "leaf-count", "index-past-end", "index-negative"],
    )
    def test_unbound_proof_costs_no_path_hash(self, malform):
        # A proof that does not fit the leaves it is for is refused by the
        # shape check, which hashes nothing: only the leaf hashes were paid.
        system = self.system_with(40)
        items, proof = malform(*requested_items(system, self.KEYS))
        receipt, charged = land_deliver(system, items, proof)
        assert not receipt.success and "integrity check failed" in receipt.error
        assert charged["hash"] == 4 * 48
        assert system.consumer.deliveries() == 0

    @pytest.mark.parametrize(
        "hostile",
        [
            lambda proof: None,
            lambda proof: proof.siblings,
            lambda proof: replace(proof, leaf_count=None),
            lambda proof: replace(proof, siblings=None),
            # A tree a million levels deep, or as many digests as it takes to
            # look like one: sizing the walk is not charged for, so neither
            # may buy more of it than the call's leaves and calldata cover.
            lambda proof: replace(proof, leaf_count=1 << 1_000_000),
            lambda proof: replace(proof, siblings=proof.siblings * 7),
        ],
        ids=["none", "not-a-proof", "no-leaf-count", "no-siblings", "deep-tree", "long-proof"],
    )
    def test_hostile_proof_reverts_the_call_before_its_walk_is_sized(
        self, hostile, monkeypatch
    ):
        # The proof is the SP's argument: whatever it is, the transaction
        # reverts (the block is mined, the receipt says why) and the free
        # shape walk is never started.
        from repro.core import storage_manager

        monkeypatch.setattr(
            storage_manager,
            "multiproof_shape",
            lambda *_: pytest.fail("the shape of a hostile proof was walked"),
        )
        system = self.system_with(40)
        items, proof = requested_items(system, self.KEYS)
        system.chain.submit(
            Transaction(
                sender="storage-provider",
                contract="storage-manager",
                function="deliver",
                args={"items": items, "proof": hostile(proof)},
                calldata_bytes=deliver_calldata_bytes(items, proof),
            )
        )
        (receipt,) = system.chain.mine_block().receipts
        assert not receipt.success
        assert "missing proof" in receipt.error or "integrity check failed" in receipt.error
        assert system.consumer.deliveries() == 0

    def test_two_values_for_one_leaf_are_refused(self):
        # Requests of one key share a leaf; a second item claiming the same
        # leaf with another value is caught before the proof is looked at.
        system = self.system_with(40)
        items, proof = requested_items(system, ["key-002", "key-002"])
        items[1] = forged(items[1])
        receipt, charged = land_deliver(system, items, proof)
        assert not receipt.success and "integrity check failed" in receipt.error
        assert charged["hash"] == 48 + 54
        assert system.consumer.deliveries() == 0

    def test_verify_histogram_spans_the_verification_pass_alone(self, monkeypatch):
        # A consumer whose callback takes a second (of a hand-moved clock):
        # the block's mining time holds all four, the verification time none.
        system = self.system_with(40)
        clock = ManualClock()
        system.chain.obs = obs = Observability(clock=clock)
        on_data = system.consumer.on_data

        def slow_callback(ctx, **delivered):
            clock.advance(1.0)
            on_data(ctx, **delivered)

        monkeypatch.setattr(system.consumer, "on_data", slow_callback)
        receipt, _ = land_deliver(system, *requested_items(system, self.KEYS))
        assert receipt.success and system.consumer.deliveries() == 4
        snapshot = obs.snapshot()
        assert snapshot["counters"]["chain_verify_total"] == 4
        # Siblings per delivered record is the ratio an operator reads: one
        # digest a record here, six with a path each.
        assert snapshot["counters"]["chain_proof_leaves_total"] == 4
        assert snapshot["counters"]["chain_proof_siblings_total"] == 4
        assert snapshot["histograms"]["chain_verify_seconds"]["sum"] == 0.0
        assert snapshot["histograms"]["chain_mine_seconds"]["sum"] == 4.0


class TestDeliveredReadDiscount:
    """Equation 1's ``C_read_off`` is the price of a word moved on chain, and
    the paper's read off chain moves a root path with every record.  The
    contract keeps what the verified ``deliver`` calls carried beside what a
    path per record would have, and a feed whose K is Equation 1's — not a
    configured one — re-derives it at that share every epoch."""

    system_with = staticmethod(TestDeliverMetering.system_with)

    def test_one_record_calls_are_the_papers_read(self):
        system = self.system_with(40)
        manager = system.storage_manager
        assert manager.delivered_read_discount() == 1.0
        for key in TestDeliverMetering.KEYS:
            receipt, _ = land_deliver(system, *requested_items(system, [key]))
            assert receipt.success
        assert manager.delivered_bytes == manager.delivered_bytes_unshared == 4 * (72 + 6 * 32)
        assert manager.delivered_read_discount() == 1.0

    def test_records_sharing_a_proof_are_cheaper_and_a_refused_call_counts_nothing(self):
        system = self.system_with(40)
        manager = system.storage_manager
        items, proof = requested_items(system, TestDeliverMetering.KEYS)
        receipt, _ = land_deliver(system, [forged(items[0])] + items[1:], proof)
        assert not receipt.success and manager.delivered_read_discount() == 1.0
        receipt, _ = land_deliver(system, items, proof)
        assert receipt.success
        # Four 72-byte records and 4 siblings, where four paths are 24.
        assert manager.delivered_bytes == 4 * 72 + 4 * 32
        assert manager.delivered_bytes_unshared == 4 * 72 + 24 * 32
        assert manager.delivered_read_discount() == pytest.approx(0.394, abs=1e-3)

    @pytest.mark.parametrize("algorithm, threshold", [
        ("memoryless", "k"), ("memorizing", "k_prime"), ("adaptive-k1", "base_k"),
    ])
    def test_equation_one_k_follows_the_measured_read(self, algorithm, threshold):
        # 5000 / 2176 rounds to 2; at 0.394 of the read's price it is 6.
        system = GrubSystem(
            GrubConfig(epoch_size=4, algorithm=algorithm),
            preload=[KVRecord.make(f"key-{i:03d}", b"v" * 32) for i in range(40)],
        )
        plane = system.data_owner.control_plane
        assert getattr(plane.algorithm, threshold) == 2
        land_deliver(system, *requested_items(system, TestDeliverMetering.KEYS))
        plane.run_epoch(replicated_keys=[])
        assert getattr(plane.algorithm, threshold) == 6

    @pytest.mark.parametrize("configured", [{"k": 2}, {"k_prime": 2}])
    def test_a_configured_threshold_is_left_alone(self, configured):
        system = GrubSystem(
            GrubConfig(epoch_size=4, **configured),
            preload=[KVRecord.make(f"key-{i:03d}", b"v" * 32) for i in range(40)],
        )
        plane = system.data_owner.control_plane
        assert plane.cost_model is None
        land_deliver(system, *requested_items(system, TestDeliverMetering.KEYS))
        plane.run_epoch(replicated_keys=[])
        assert plane.algorithm.k == 2


class TestControlPlane:
    def _make(self, continuous=False, k=2):
        manager = StorageManagerContract("sm", "do")
        plane = ControlPlane(
            monitor=WorkloadMonitor(storage_manager=manager),
            algorithm=MemorylessAlgorithm(k=k),
            actuator=DecisionActuator(),
            continuous=continuous,
        )
        return manager, plane

    def test_monitor_preserves_interleaving(self):
        manager, plane = self._make(k=2)
        # read, write, read: the consecutive-read count after the write is 1, not 2.
        manager.call_history.append("a")
        plane.record_local_write(Operation.write("a", b"v"))
        manager.call_history.append("a")
        transitions = plane.run_epoch(replicated_keys=[])
        assert plane.algorithm.read_count("a") == 1
        assert transitions.get("a", ReplicationState.NOT_REPLICATED) is ReplicationState.NOT_REPLICATED
        # The same after the epoch took the log: a write stamped without the
        # reads taken before would sort ahead of both of this epoch's reads.
        manager.call_history.append("b")
        plane.record_local_write(Operation.write("b", b"v"))
        manager.call_history.append("b")
        transitions = plane.run_epoch(replicated_keys=[])
        assert plane.algorithm.read_count("b") == 1
        assert "b" not in transitions
        assert manager.call_history == [] and plane.monitor.observed_reads == 4

    def test_continuous_mode_flips_decision_mid_epoch(self):
        manager, plane = self._make(continuous=True, k=1)
        manager.call_history.append("a")
        plane.observe_chain_reads()
        assert plane.decision_for("a") is ReplicationState.REPLICATED
        assert manager.call_history == []
        # Continuous decisions follow the order of observation; the epoch's
        # trace still federates by position, which after the take above
        # counts from the read already taken.
        manager.call_history.append("b")
        plane.record_local_write(Operation.write("b", b"v"))
        manager.call_history.append("b")
        assert plane.monitor.federate_epoch_trace() == [
            Operation.read("b"),
            Operation.write("b", b"v"),
            Operation.read("b"),
        ]

    def test_eviction_policy_demotes_idle_replicas(self):
        manager, plane = self._make(k=1)
        plane.evict_unused_after_epochs = 2
        # Make "a" replicated by observing reads.
        manager.call_history.append("a")
        plane.run_epoch(replicated_keys=[])
        # Two idle epochs later the key is demoted.
        plane.run_epoch(replicated_keys=["a"])
        transitions = plane.run_epoch(replicated_keys=["a"])
        assert transitions.get("a") is ReplicationState.NOT_REPLICATED
