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

    def test_refunds_disabled_by_default(self, schedule):
        assert schedule.storage_refund(4) == 0
        assert schedule.with_refunds().storage_refund(4) == 60_000

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

    def test_refund_subtracts(self, ledger):
        ledger.charge(100, "sstore")
        ledger.refund(30)
        assert ledger.total == 70
        assert ledger.refunded == 30

    def test_merge(self):
        a, b = GasLedger(), GasLedger()
        a.charge(10, "x")
        b.charge(5, "x")
        a.merge(b)
        assert a.total == 15
        assert a.by_category["x"] == 15


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

    def test_delete_and_refund(self, ledger):
        schedule = GasSchedule().with_refunds()
        meter = GasMeter(schedule=schedule, ledger=ledger)
        storage = ContractStorage()
        storage.store(meter, "slot", b"a" * 32)
        used_before = meter.used
        assert storage.delete(meter, "slot")
        assert not storage.has("slot")
        # The refund more than offsets the delete's base cost under this schedule.
        assert meter.used < used_before + schedule.storage_delete_cost()

    def test_delete_missing_returns_false(self, meter):
        storage = ContractStorage()
        assert storage.delete(meter, "nope") is False

    def test_store_reusing_charges_update_price_for_new_slot(self, meter, ledger):
        storage = ContractStorage()
        storage.store_reusing(meter, "recycled", b"a" * 32)
        assert ledger.by_category.get("sstore_insert", 0) == 0
        assert ledger.by_category["sstore_update"] == 5_000

    def test_snapshot_restore(self, meter):
        storage = ContractStorage()
        storage.store(meter, "a", b"1")
        snapshot = storage.snapshot()
        storage.store(meter, "b", b"2")
        storage.restore(snapshot)
        assert storage.has("a") and not storage.has("b")

    def test_size_words(self, meter):
        storage = ContractStorage()
        storage.store(meter, "a", b"x" * 33)
        storage.store(meter, "b", b"y")
        assert storage.size_words() == 3
