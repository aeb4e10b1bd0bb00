"""Unit tests for the gas schedule, ledger, meter and contract storage."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.chain.gas import GasLedger, GasSchedule, LAYER_APPLICATION, LAYER_FEED
from repro.chain.state import ContractStorage
from repro.chain.vm import ExecutionContext, GasMeter
from repro.common.errors import OutOfGasError


class TestGasSchedule:
    def test_transaction_cost_matches_table_two(self, schedule):
        # Table 2: Ctx(X) = 21000 + 2176 X
        assert schedule.transaction_cost(0) == 21_000
        assert schedule.transaction_cost(10) == 21_000 + 2_176 * 10

    def test_storage_costs_match_table_two(self, schedule):
        assert schedule.storage_insert_cost(3) == 60_000
        assert schedule.storage_update_cost(3) == 15_000
        assert schedule.storage_read_cost(3) == 600

    def test_hash_cost_matches_table_two(self, schedule):
        assert schedule.hash_cost(2) == 30 + 12

    def test_negative_calldata_rejected(self, schedule):
        with pytest.raises(ValueError):
            schedule.transaction_cost(-1)

    def test_equation_one_k_is_about_two(self, schedule):
        # K = C_update / C_read_off = 5000 / 2176 ≈ 2
        assert schedule.replication_threshold_k == 2

    def test_storage_writes_cost_more_than_reads(self, schedule):
        assert schedule.storage_update_cost(1) > schedule.storage_read_cost(1)
        assert schedule.storage_insert_cost(1) > schedule.storage_update_cost(1)

    @given(st.integers(min_value=0, max_value=999))
    def test_transaction_cost_monotone_in_calldata(self, words):
        schedule = GasSchedule()
        assert schedule.transaction_cost(words + 1) > schedule.transaction_cost(words)


class TestGasLedger:
    def test_charges_accumulate_by_category_and_layer(self, ledger):
        ledger.charge(100, "sload", LAYER_FEED)
        ledger.charge(50, "sload", LAYER_APPLICATION)
        ledger.charge(25, "hash", LAYER_FEED)
        assert ledger.total == 175
        assert ledger.by_category["sload"] == 150
        assert ledger.feed_total == 125
        assert ledger.application_total == 50

    def test_negative_charge_rejected(self, ledger):
        with pytest.raises(ValueError):
            ledger.charge(-5, "x")

    def test_merge(self):
        a, b = GasLedger(), GasLedger()
        a.charge(10, "x")
        b.charge(5, "x")
        a.merge(b)
        assert a.total == 15
        assert a.by_category["x"] == 15

    @staticmethod
    def _copy(ledger):
        snapshot = GasLedger()
        snapshot.merge(ledger)
        return snapshot

    def test_copy_by_merge_compares_equal(self, ledger):
        ledger.charge(10, "sload", LAYER_FEED, scope="f1")
        ledger.charge(4, "hash", LAYER_APPLICATION)
        assert self._copy(ledger) == ledger
        assert self._copy(ledger) != GasLedger()

    def test_since_holds_only_the_new_charges(self, ledger):
        ledger.charge(100, "sload", LAYER_FEED, scope="f1")
        before = self._copy(ledger)
        ledger.charge(30, "sload", LAYER_FEED, scope="f1")
        ledger.charge(7, "hash", LAYER_APPLICATION, scope="f2")
        delta = ledger.since(before)
        assert delta.total == 37
        assert dict(delta.by_category) == {"sload": 30, "hash": 7}
        assert dict(delta.by_layer) == {LAYER_FEED: 30, LAYER_APPLICATION: 7}
        assert dict(delta.by_scope) == {
            ("f1", LAYER_FEED): 30,
            ("f2", LAYER_APPLICATION): 7,
        }

    def test_since_omits_entries_that_did_not_move(self, ledger):
        ledger.charge(100, "sload", LAYER_FEED, scope="f1")
        before = self._copy(ledger)
        ledger.charge(5, "hash", LAYER_FEED)
        delta = ledger.since(before)
        assert "sload" not in delta.by_category
        assert ("f1", LAYER_FEED) not in delta.by_scope
        assert dict(delta.by_layer) == {LAYER_FEED: 5}

    def test_since_an_equal_ledger_is_empty(self, ledger):
        ledger.charge(100, "sload", LAYER_FEED, scope="f1")
        assert ledger.since(self._copy(ledger)) == GasLedger()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10_000),
                st.sampled_from(["sload", "hash", "calldata"]),
                st.sampled_from([LAYER_FEED, LAYER_APPLICATION]),
                st.sampled_from([None, "f1", "f2"]),
            ),
            max_size=12,
        ),
        st.integers(min_value=0, max_value=12),
    )
    def test_merging_the_delta_into_the_snapshot_restores_the_ledger(
        self, charges, split
    ):
        ledger = GasLedger()
        for charge in charges[:split]:
            ledger.charge(*charge)
        before = self._copy(ledger)
        for charge in charges[split:]:
            ledger.charge(*charge)
        before.merge(ledger.since(before))
        assert before == ledger


class TestGasMeter:
    def test_meter_enforces_limit(self, schedule, ledger):
        meter = GasMeter(schedule=schedule, ledger=ledger, limit=100)
        meter.charge(60, "a")
        with pytest.raises(OutOfGasError):
            meter.charge(50, "a")
        assert meter.remaining == 40

    def test_meter_attributes_to_global_ledger(self, meter, ledger):
        meter.charge(75, "sload")
        assert ledger.total == 75

    def test_child_context_shares_meter_unless_layer_changes(self, context):
        child = context.child("callee")
        assert child.meter is context.meter
        app_child = context.child("callee", layer=LAYER_APPLICATION)
        assert app_child.meter is not context.meter
        assert app_child.meter.layer == LAYER_APPLICATION


class TestContractStorage:
    def test_insert_then_update_pricing(self, meter, ledger):
        storage = ContractStorage()
        storage.store(meter, "slot", b"a" * 32)
        insert_cost = ledger.by_category["sstore_insert"]
        assert insert_cost == 20_000
        storage.store(meter, "slot", b"b" * 32)
        assert ledger.by_category["sstore_update"] == 5_000

    def test_read_charges_sload(self, meter, ledger):
        storage = ContractStorage()
        storage.store(meter, "slot", b"a" * 64)
        before = ledger.by_category.get("sload", 0)
        value = storage.load(meter, "slot")
        assert value == b"a" * 64
        assert ledger.by_category["sload"] - before == 400  # two words

    def test_miss_still_charges_one_word(self, meter, ledger):
        storage = ContractStorage()
        assert storage.load(meter, "missing") is None
        assert ledger.by_category["sload"] == 200

    def test_store_reusing_charges_update_price_for_new_slot(self, meter, ledger):
        storage = ContractStorage()
        storage.store_reusing(meter, "recycled", b"a" * 32)
        assert ledger.by_category.get("sstore_insert", 0) == 0
        assert ledger.by_category["sstore_update"] == 5_000

    def test_rollback_restores_every_slot_the_transaction_wrote(self, meter):
        storage = ContractStorage()
        storage.store(meter, "kept", b"1")
        storage.store(meter, "updated", b"2")
        before = dict(storage.slots)
        storage.begin_tx()
        storage.store(meter, "updated", b"changed")
        storage.store(meter, "updated", b"changed twice")
        storage.store(meter, "inserted", b"3")
        storage.store_reusing(meter, "recycled", b"4")
        storage.release("kept")
        storage.rollback_tx()
        # Inserted slots are gone again, a released one is back, and an
        # updated slot holds its value from before the transaction, however
        # often it was written.
        assert storage.slots == before

    def test_commit_keeps_the_writes_and_ends_the_journal(self, meter):
        storage = ContractStorage()
        storage.begin_tx()
        storage.store(meter, "a", b"1")
        storage.commit_tx()
        assert storage.slots == {"a": b"1"}
        # A rollback after the commit has nothing to undo.
        storage.rollback_tx()
        assert storage.slots == {"a": b"1"}

    def test_writes_outside_a_transaction_are_not_journalled(self, meter):
        storage = ContractStorage()
        storage.store(meter, "a", b"1")
        storage.rollback_tx()
        assert storage.slots == {"a": b"1"}

    def test_a_rollback_journals_only_the_next_transaction(self, meter):
        storage = ContractStorage()
        storage.begin_tx()
        storage.store(meter, "first", b"1")
        storage.rollback_tx()
        storage.begin_tx()
        storage.store(meter, "second", b"2")
        storage.commit_tx()
        assert storage.slots == {"second": b"2"}
