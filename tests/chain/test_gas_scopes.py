"""Per-scope (per-tenant) gas attribution and batched base-cost splitting."""

from __future__ import annotations

import pytest

from repro.chain.chain import Blockchain
from repro.chain.contract import Contract
from repro.chain.gas import (
    GasLedger,
    GasSchedule,
    LAYER_APPLICATION,
    LAYER_FEED,
    split_transaction_cost,
)
from repro.chain.transaction import Transaction
from repro.chain.vm import GasMeter
from repro.common.encoding import words_for_bytes


class TestSplitTransactionCost:
    def test_equal_weights_split_base_evenly(self, schedule):
        shares = split_transaction_cost(schedule, {"a": 64, "b": 64})
        word_cost = schedule.transaction_word * words_for_bytes(64)
        assert shares["a"] == schedule.transaction_base // 2 + word_cost
        assert shares["b"] == schedule.transaction_base // 2 + word_cost

    def test_each_scope_pays_its_own_calldata(self, schedule):
        shares = split_transaction_cost(schedule, {"small": 32, "large": 320})
        difference = shares["large"] - shares["small"]
        expected = schedule.transaction_word * (words_for_bytes(320) - words_for_bytes(32))
        assert difference == expected

    def test_shares_sum_to_base_plus_word_costs(self, schedule):
        weights = {"a": 10, "b": 100, "c": 1000}
        shares = split_transaction_cost(schedule, weights)
        expected_total = schedule.transaction_base + sum(
            schedule.transaction_word * words_for_bytes(w) for w in weights.values()
        )
        assert sum(shares.values()) == expected_total

    def test_base_remainder_goes_to_first_scopes(self):
        # A base of 10 across 3 scopes: 4/3/3 in sorted scope order.
        schedule = GasSchedule(transaction_base=10, transaction_word=0)
        shares = split_transaction_cost(schedule, {"c": 0, "a": 0, "b": 0})
        assert shares == {"a": 4, "b": 3, "c": 3}

    def test_single_scope_pays_everything(self, schedule):
        shares = split_transaction_cost(schedule, {"only": 96})
        assert shares["only"] == schedule.transaction_cost(words_for_bytes(96))

    def test_zero_scopes_rejected(self, schedule):
        with pytest.raises(ValueError):
            split_transaction_cost(schedule, {})


class TestLedgerScopes:
    def test_scoped_charges_accumulate_per_scope_and_layer(self):
        ledger = GasLedger()
        ledger.charge(100, "sstore", LAYER_FEED, scope="feed-a")
        ledger.charge(40, "callback", LAYER_APPLICATION, scope="feed-a")
        ledger.charge(7, "sload", LAYER_FEED, scope="feed-b")
        ledger.charge(5, "sload", LAYER_FEED)  # unscoped
        assert ledger.scope_total("feed-a", LAYER_FEED) == 100
        assert ledger.scope_total("feed-a", LAYER_APPLICATION) == 40
        assert ledger.scope_total("feed-a") == 140
        assert ledger.scope_total("feed-b") == 7
        assert ledger.scopes() == ["feed-a", "feed-b"]
        # Unscoped gas still lands in the layer/grand totals.
        assert ledger.feed_total == 112

    def test_meter_stamps_its_scope(self, schedule):
        ledger = GasLedger()
        meter = GasMeter(schedule=schedule, ledger=ledger, scope="tenant-1")
        meter.charge(55, "hash")
        assert ledger.scope_total("tenant-1") == 55


class _SinkContract(Contract):
    """Minimal contract for exercising scoped transactions."""

    def poke(self, ctx) -> None:
        ctx.meter.charge(ctx.meter.schedule.memory_cost(1), "memory")


class TestScopedTransactions:
    def test_multi_scope_transaction_splits_intrinsic_cost(self):
        chain = Blockchain()
        chain.deploy(_SinkContract("sink"))
        weights = {"feed-a": 64, "feed-b": 64}
        transaction = Transaction(
            sender="operator",
            contract="sink",
            function="poke",
            calldata_bytes=128,
            scopes=weights,
        )
        chain.submit(transaction)
        chain.mine_block()
        receipt = chain.receipt_for(transaction.txid)
        assert receipt.success
        shares = split_transaction_cost(chain.schedule, weights)
        # Each feed is billed exactly its share; the shares sum to the
        # intrinsic gas the transaction was charged (no double counting).
        assert chain.ledger.scope_total("feed-a") == shares["feed-a"]
        assert chain.ledger.scope_total("feed-b") == shares["feed-b"]
        intrinsic = sum(shares.values())
        assert receipt.gas_used == intrinsic + chain.schedule.memory_cost(1)

    def test_single_scope_transaction_bills_that_scope(self):
        chain = Blockchain()
        chain.deploy(_SinkContract("sink"))
        transaction = Transaction(
            sender="operator",
            contract="sink",
            function="poke",
            calldata_bytes=32,
            scope="feed-a",
        )
        chain.submit(transaction)
        chain.mine_block()
        expected = chain.schedule.transaction_cost(1) + chain.schedule.memory_cost(1)
        assert chain.ledger.scope_total("feed-a") == expected
