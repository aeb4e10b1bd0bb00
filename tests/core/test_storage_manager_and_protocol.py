"""Tests for the storage-manager contract and the DO/SP protocol components."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.chain.chain import Blockchain, ChainParameters
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
from repro.core.storage_manager import INVALID_REPLICA, StorageManagerContract
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
        assert chain.event_log.latest("request") is not None
        assert protocol_system.storage_manager.requests_emitted == 1

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
        history = protocol_system.storage_manager.calls_since(0)
        assert len(history) == 1
        assert history[0].key == "alpha" and history[0].hit_replica is False

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

    def test_witness_verification_path(self):
        config = GrubConfig(epoch_size=2)
        system = GrubSystem(config, preload=[KVRecord.make("a", b"v" * 32)])
        system.data_owner.verify_witnesses = True
        system.data_owner.put("a", b"w" * 32)
        result = system.data_owner.end_epoch()
        assert result.buffered_writes == 1


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
    """Have the consumer ask for ``keys`` and return the honest SP's answer,
    every record flagged for replication, without sending it."""
    for key in keys:
        system.chain.execute_internal_call("user", "data-consumer", "query_feed", key=key)
    provider = system.service_provider
    provider.decision_lookup = lambda key: ReplicationState.REPLICATED
    provider.poll_requests()
    requests, provider.pending = provider.pending, []
    return provider.build_deliver_items(requests)


def land_deliver(system, items, gas_limit=None):
    """Mine one ``deliver`` of ``items``; its receipt and what it added to the
    ledger by category."""
    ledger = system.chain.ledger
    before = dict(ledger.by_category)
    system.chain.submit(
        Transaction(
            sender="storage-provider",
            contract="storage-manager",
            function="deliver",
            args={"items": items},
            calldata_bytes=sum(item.calldata_bytes for item in items),
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

    @pytest.mark.parametrize("forged_at", [0, 1, 2], ids=["first", "middle", "last"])
    def test_forged_item_in_a_mixed_batch_applies_nothing(self, protocol_system, forged_at):
        """One forged record fails the whole ``deliver`` *before* anything is
        applied: a consumer's Python-side state is not contract storage, so a
        callback that had already run could not be reverted with the receipt.

        This holds per ``deliver`` call.  A forged group inside a router
        ``deliver_batch`` still leaves the callbacks of *earlier groups* run —
        each group is its own ``deliver`` — which is ROADMAP item 2 (c).
        """
        system = protocol_system
        items = requested_items(system, ["alpha", "bravo", "charlie"])
        items[forged_at] = forged(items[forged_at])
        receipt, _ = land_deliver(system, items)
        assert not receipt.success and "integrity check failed" in receipt.error
        assert system.consumer.deliveries() == 0
        assert system.storage_manager.delivered_records == 0
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
    """What a ``deliver`` costs.  Verification is metered per proof (the walk's
    ``num_nodes`` pair hashes as one amount, after the free binding check and
    before the walk) and everything is verified before anything is applied.
    The constants for calls that succeed were computed at the commit that still
    charged once per hash: they must never move.  The two failing calls are the
    only figures the change moved, and say from what."""

    @staticmethod
    def system_with(records):
        preload = [
            KVRecord.make(f"key-{index:03d}", bytes([65 + index % 26]) * 32)
            for index in range(records)
        ]
        return GrubSystem(GrubConfig(epoch_size=4), preload=preload)

    KEYS = [f"key-{index:03d}" for index in range(4)]

    @pytest.mark.parametrize(
        "records, depth, hash_gas, gas_used",
        [(5, 3, 696, 150_404), (40, 6, 1_200, 177_020)],
    )
    def test_successful_deliver_costs_what_it_always_did(
        self, records, depth, hash_gas, gas_used
    ):
        system = self.system_with(records)
        items = requested_items(system, self.KEYS)
        assert {item.proof.num_nodes for item in items} == {depth}
        receipt, charged = land_deliver(system, items)
        assert receipt.success
        # Per record: one leaf hash over 3 words (48) and `depth` pair hashes (42).
        assert charged["hash"] == hash_gas == 4 * (48 + depth * 42)
        assert receipt.gas_used == gas_used == sum(charged.values())
        assert charged["sstore_insert"] == 80_000 and charged["call"] == 2_800
        assert system.consumer.deliveries() == system.storage_manager.delivered_records == 4

    def test_out_of_gas_while_applying(self):
        # The limit runs out at the third record's replica store.  All four
        # proofs are verified (and paid for) first, so `hash` reads 1 200 where
        # per-item verify-and-apply had charged three records' worth (900) and
        # the receipt 135 614 where it read 135 314; `delivered_records`, which
        # used to count the two applied records of the reverted call, stays 0.
        system = self.system_with(40)
        receipt, charged = land_deliver(
            system, requested_items(system, self.KEYS), gas_limit=145_000
        )
        assert not receipt.success and "out of gas" in receipt.error
        assert receipt.gas_used == 135_614 == sum(charged.values())
        assert charged == {
            "transaction": 92_808,
            "sload": 200,
            "hash": 1_200,
            "sstore_insert": 40_000,
            "call": 1_400,
            "callback": 6,
        }
        assert system.storage_manager.delivered_records == 0
        assert system.storage_manager.replica_count() == 0
        # Running out of gas while applying is not a verification failure: the
        # two callbacks that ran are Python-side state no revert undoes.
        assert system.consumer.deliveries() == 2

    def test_forged_proof_costs_the_verification_it_reached(self):
        # Third of four records forged: the first two and the forged one are
        # hashed and walked (906, as before), the fourth is never looked at,
        # and nothing is stored or called — the receipt read 137 496 when the
        # first two records were applied before the third failed.
        system = self.system_with(40)
        items = requested_items(system, self.KEYS)
        items[2] = forged(items[2])
        receipt, charged = land_deliver(system, items)
        assert not receipt.success
        assert charged == {"transaction": 94_984, "sload": 200, "hash": 906}
        assert receipt.gas_used == 96_090

    def test_unbound_proof_costs_no_path_hash(self):
        # A path of the wrong length is refused by the binding check, which
        # hashes nothing: only the record's own leaf hash (48) was paid.
        system = self.system_with(40)
        (item,) = requested_items(system, self.KEYS[:1])
        truncated = replace(item, proof=replace(item.proof, path=item.proof.path[1:]))
        receipt, charged = land_deliver(system, [truncated])
        assert not receipt.success and "integrity check failed" in receipt.error
        assert charged["hash"] == 48


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
        receipt, _ = land_deliver(system, requested_items(system, self.KEYS))
        assert receipt.success and system.consumer.deliveries() == 4
        snapshot = obs.snapshot()
        assert snapshot["counters"]["chain_verify_total"] == 4
        assert snapshot["histograms"]["chain_verify_seconds"]["sum"] == 0.0
        assert snapshot["histograms"]["chain_mine_seconds"]["sum"] == 4.0


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
        from repro.core.storage_manager import GGetCall

        # read, write, read: the consecutive-read count after the write is 1, not 2.
        manager.call_history.append(GGetCall("a", False, 0, "du"))
        plane.record_local_write(Operation.write("a", b"v"))
        manager.call_history.append(GGetCall("a", False, 0, "du"))
        transitions = plane.run_epoch(replicated_keys=[])
        assert plane.algorithm.read_count("a") == 1
        assert transitions.get("a", ReplicationState.NOT_REPLICATED) is ReplicationState.NOT_REPLICATED

    def test_continuous_mode_flips_decision_mid_epoch(self):
        manager, plane = self._make(continuous=True, k=1)
        from repro.core.storage_manager import GGetCall

        manager.call_history.append(GGetCall("a", False, 0, "du"))
        plane.observe_chain_reads()
        assert plane.decision_for("a") is ReplicationState.REPLICATED

    def test_eviction_policy_demotes_idle_replicas(self):
        manager, plane = self._make(k=1)
        plane.evict_unused_after_epochs = 2
        # Make "a" replicated by observing reads.
        from repro.core.storage_manager import GGetCall

        manager.call_history.append(GGetCall("a", False, 0, "du"))
        plane.run_epoch(replicated_keys=[])
        # Two idle epochs later the key is demoted.
        plane.run_epoch(replicated_keys=["a"])
        transitions = plane.run_epoch(replicated_keys=["a"])
        assert transitions.get("a") is ReplicationState.NOT_REPLICATED
