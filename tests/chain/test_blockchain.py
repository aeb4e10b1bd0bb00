"""Unit tests for the blockchain simulator: transactions, blocks, events, finality."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chain.chain import Blockchain, ChainParameters
from repro.chain.contract import Contract
from repro.chain.accounts import AccountRegistry, WEI_PER_ETHER
from repro.chain.transaction import Transaction
from repro.common.errors import ContractError, ReproError


class CounterContract(Contract):
    """Tiny contract used to exercise the execution machinery."""

    def increment(self, ctx, by: int = 1):
        current = self.storage.load(ctx.meter, "count")
        value = (int.from_bytes(current, "big") if current else 0) + by
        self.storage.store(ctx.meter, "count", value.to_bytes(32, "big"))
        self.emit(ctx, "Incremented", by=by, value=value)
        return value

    def fail(self, ctx):
        self.storage.store(ctx.meter, "poison", b"\x01")
        self.require(False, "always fails")

    def emit_then_fail(self, ctx):
        self.emit(ctx, "Phantom", value=1)
        self.require(False, "fails after emitting")

    def call_back(self, ctx, inner_scope=None):
        """Emit, then make an internal call into this chain from inside one."""
        self.emit(ctx, "Outer")
        return self.chain.execute_internal_call(
            "user", self.address, "increment", scope=inner_scope
        )


@pytest.fixture
def deployed_chain(chain):
    chain.deploy(CounterContract("counter"))
    return chain


class TestDeployment:
    def test_duplicate_address_rejected(self, deployed_chain):
        with pytest.raises(ReproError):
            deployed_chain.deploy(CounterContract("counter"))

    def test_unknown_contract_lookup_fails(self, chain):
        with pytest.raises(ReproError):
            chain.get_contract("ghost")


class TestExecution:
    def test_transaction_executes_and_charges_intrinsic_gas(self, deployed_chain):
        tx = Transaction(sender="alice", contract="counter", function="increment",
                         args={"by": 2}, calldata_bytes=32)
        deployed_chain.submit(tx)
        block = deployed_chain.mine_block()
        receipt = block.receipts[0]
        assert receipt.success
        assert receipt.return_value == 2
        assert receipt.gas_used >= deployed_chain.schedule.transaction_cost(1)

    def test_revert_rolls_back_storage_but_consumes_gas(self, deployed_chain):
        deployed_chain.submit(Transaction(sender="a", contract="counter", function="fail"))
        block = deployed_chain.mine_block()
        receipt = block.receipts[0]
        assert not receipt.success
        assert receipt.error is not None
        assert receipt.gas_used > 0
        counter = deployed_chain.get_contract("counter")
        assert counter.storage.peek("poison") is None

    def test_unknown_function_reverts(self, deployed_chain):
        deployed_chain.submit(Transaction(sender="a", contract="counter", function="nope"))
        receipt = deployed_chain.mine_block().receipts[0]
        assert not receipt.success

    def test_events_appear_in_log_only_after_mining(self, deployed_chain):
        deployed_chain.submit(Transaction(sender="a", contract="counter", function="increment"))
        assert len(deployed_chain.event_log) == 0
        deployed_chain.mine_block()
        events = deployed_chain.event_log.filter(name="Incremented", since=0)
        assert len(events) == 1
        assert events[0].payload["value"] == 1

    def test_reverted_transaction_emits_no_events(self, deployed_chain):
        deployed_chain.submit(Transaction(sender="a", contract="counter", function="fail"))
        deployed_chain.mine_block()
        assert len(deployed_chain.event_log) == 0

    def test_internal_call_charges_global_ledger_without_base(self, deployed_chain):
        before = deployed_chain.ledger.total
        deployed_chain.execute_internal_call("user", "counter", "increment")
        delta = deployed_chain.ledger.total - before
        assert delta > 0
        # No intrinsic transaction cost is charged for an internal call.
        assert deployed_chain.ledger.by_category.get("transaction", 0) == 0

    def test_execute_call_does_not_charge_global_ledger(self, deployed_chain):
        before = deployed_chain.ledger.total
        deployed_chain.execute_call("user", "counter", "increment")
        assert deployed_chain.ledger.total == before

    def test_reverted_internal_call_leaks_no_events_into_next_call(self, deployed_chain):
        """The reused call frame must drop a reverted call's emitted events:
        a later internal call under the same attribution would otherwise
        flush the phantom events into the log."""
        with pytest.raises(ContractError):
            deployed_chain.execute_internal_call("user", "counter", "emit_then_fail")
        assert len(deployed_chain.event_log) == 0
        deployed_chain.execute_internal_call("user", "counter", "increment")
        events = list(deployed_chain.event_log)
        assert [event.name for event in events] == ["Incremented"]

    def test_reverted_buffered_internal_call_leaks_no_events(self, deployed_chain):
        with deployed_chain.isolated_execution() as buffer:
            with pytest.raises(ContractError):
                deployed_chain.execute_internal_call(
                    "user", "counter", "emit_then_fail"
                )
            deployed_chain.execute_internal_call("user", "counter", "increment")
        assert [event.name for event in buffer.events] == ["Incremented"]

    def test_reentrant_internal_call_is_refused_and_frees_its_frame(self, deployed_chain):
        """A call from inside another under the same attribution would share
        its envelope: it is a typed error, the outer call's events are
        dropped with it, and the frame serves the next call."""
        with pytest.raises(ReproError, match="reentrant"):
            deployed_chain.execute_internal_call("user", "counter", "call_back")
        assert not any(frame.busy for frame in deployed_chain._call_frames.values())
        assert len(deployed_chain.event_log) == 0
        assert deployed_chain.execute_internal_call("user", "counter", "increment") == 1
        assert [event.name for event in deployed_chain.event_log] == ["Incremented"]

    def test_internal_call_under_another_attribution_is_served(self, deployed_chain):
        result = deployed_chain.execute_internal_call(
            "user", "counter", "call_back", inner_scope="tenant"
        )
        assert result == 1
        assert deployed_chain.ledger.scope_total("tenant") > 0
        assert sorted(event.name for event in deployed_chain.event_log) == [
            "Incremented",
            "Outer",
        ]

    def test_isolated_execution_cannot_be_nested_and_reopens_after_exit(
        self, deployed_chain
    ):
        with deployed_chain.isolated_execution():
            with pytest.raises(ReproError, match="cannot be nested"):
                with deployed_chain.isolated_execution():
                    pass
        # The failed nesting left the outer context's exit intact.
        with deployed_chain.isolated_execution() as buffer:
            deployed_chain.execute_internal_call("user", "counter", "increment")
        assert len(buffer.events) == 1 and len(deployed_chain.event_log) == 0

    def test_calls_after_isolation_charge_the_chain_again(self, deployed_chain):
        """Call frames made inside isolation charge the buffer; the chain's
        own frames come back when the context exits."""
        deployed_chain.execute_internal_call("user", "counter", "increment")
        with deployed_chain.isolated_execution() as buffer:
            deployed_chain.execute_internal_call("user", "counter", "increment")
        buffered, before = buffer.ledger.total, deployed_chain.ledger.total
        deployed_chain.execute_internal_call("user", "counter", "increment")
        assert buffer.ledger.total == buffered > 0
        assert deployed_chain.ledger.total > before

    def test_absorb_stamps_at_the_absorbing_chains_height(self, deployed_chain):
        """A buffer from another chain (a lane's) carries that chain's
        heights and log indices; absorbing restamps every event here."""
        lane = Blockchain()
        lane.deploy(CounterContract("counter"))
        for _ in range(5):
            lane.mine_block()
        lane.execute_internal_call("user", "counter", "increment")
        with lane.isolated_execution() as buffer:
            for _ in range(2):
                lane.execute_internal_call("user", "counter", "increment")
        buffer.events[:] = [
            replace(event, transaction_index=3, log_index=40 + index)
            for index, event in enumerate(buffer.events)
        ]
        deployed_chain.mine_block()
        deployed_chain.execute_internal_call("user", "counter", "increment")
        height = deployed_chain.height
        assert height != lane.height
        deployed_chain.absorb(buffer)
        absorbed = deployed_chain.event_log.since(1)
        assert [
            (event.block_number, event.transaction_index, event.log_index)
            for event in absorbed
        ] == [(height, 0, 1), (height, 0, 2)]
        assert [event.payload for event in absorbed] == [
            event.payload for event in buffer.events
        ]

    def test_recorded_receipt_reads_like_an_executed_one(self):
        """A receipt executed on another chain (a lane's, at another height)
        records here exactly as executing its transaction here would, but
        for the transaction's emptied args and a fresh id of this chain's."""

        def counter_chain(height: int) -> Blockchain:
            chain = Blockchain()
            chain.deploy(CounterContract("counter"))
            for _ in range(height):
                chain.mine_block()
            return chain

        def increment() -> Transaction:
            return Transaction(
                sender="a", contract="counter", function="increment", args={"by": 2}
            )

        lane, transaction = counter_chain(5), increment()
        lane.submit(transaction)
        lane.mine_block()
        shipped = replace(
            lane.receipt_for(transaction.txid),
            transaction=replace(transaction, args={}),
        )
        executing = counter_chain(2)
        executing.submit(increment())
        [executed] = executing.mine_block().receipts
        recording = counter_chain(2)
        [recorded] = recording.mine_recorded_block(shipped).receipts

        def outcome(receipt) -> tuple:
            return (
                receipt.block_number,
                receipt.transaction_index,
                receipt.transaction.submitted_at,
                receipt.finalized_at,
                receipt.events,
                receipt.gas_used,
                receipt.success,
                receipt.return_value,
            )

        assert outcome(recorded) == outcome(executed)
        assert list(recording.event_log) == list(executing.event_log)
        assert recorded.transaction.args == {}
        assert recorded.txid != transaction.txid
        assert recording.receipt_for(recorded.txid) is recorded

    def test_internal_call_events_reach_log_immediately(self, deployed_chain):
        deployed_chain.execute_internal_call("user", "counter", "increment")
        assert deployed_chain.event_log.latest("Incremented") is not None


class TestLanding:
    def test_every_sealed_receipt_drops_its_args(self, deployed_chain):
        for by in (2, 3):
            deployed_chain.submit(
                Transaction(sender="a", contract="counter", function="increment", args={"by": by})
            )
        receipts = deployed_chain.mine_block().receipts
        assert [receipt.return_value for receipt in receipts] == [2, 5]
        assert [receipt.transaction.args for receipt in receipts] == [{}, {}]

    def test_land_returns_an_argless_receipt_for_a_reverted_transaction(self, deployed_chain):
        transaction = Transaction(
            sender="a", contract="counter", function="increment", args={"by": 2}, gas_limit=1
        )
        receipt = deployed_chain.land(transaction)
        assert not receipt.success and "out of gas" in receipt.error
        assert receipt.transaction is transaction and transaction.args == {}
        assert deployed_chain.blocks[-1].receipts == [receipt]
        assert deployed_chain.receipt_for(transaction.txid) is receipt
        assert deployed_chain.pending == []

    def test_land_mines_through_mine_block(self, deployed_chain, monkeypatch):
        """Trace hooks time block production by wrapping ``mine_block``."""
        mined = []
        mine_block = Blockchain.mine_block

        def counting(chain):
            mined.append(chain.height)
            return mine_block(chain)

        monkeypatch.setattr(Blockchain, "mine_block", counting)
        deployed_chain.land(Transaction(sender="a", contract="counter", function="increment"))
        assert mined == [1]


class TestTimingAndFinality:
    def test_block_interval_advances_clock(self, chain):
        start = chain.clock.now
        chain.mine_block()
        assert chain.clock.now == start + chain.parameters.block_interval

    def test_finality_requires_depth_blocks(self, chain):
        chain.mine_block()  # block 1
        assert not chain.is_finalized(1)
        for _ in range(chain.parameters.finality_depth):
            chain.mine_block()
        assert chain.is_finalized(1)

    def test_finality_delay_formula(self):
        params = ChainParameters(block_interval=14.0, propagation_delay=1.0, finality_depth=250)
        chain = Blockchain(parameters=params)
        assert chain.finality_delay() == pytest.approx(1.0 + 14.0 * 250)

    def test_block_hash_links_to_parent(self, chain):
        first = chain.mine_block()
        second = chain.mine_block()
        assert second.parent_hash == first.block_hash

    def test_receipt_lookup(self, deployed_chain):
        tx = Transaction(sender="a", contract="counter", function="increment")
        deployed_chain.submit(tx)
        deployed_chain.mine_block()
        assert deployed_chain.receipt_for(tx.txid).success


class TestAccounts:
    def test_create_and_fund(self):
        accounts = AccountRegistry()
        accounts.create("alice", ether=2.0)
        assert accounts.balance_in_ether("alice") == pytest.approx(2.0)

    def test_transfer_moves_wei(self):
        accounts = AccountRegistry()
        accounts.create("alice", ether=1.0)
        accounts.create("bob")
        accounts.transfer("alice", "bob", WEI_PER_ETHER // 2)
        assert accounts.balance_of("bob") == WEI_PER_ETHER // 2

    def test_insufficient_funds_reverts(self):
        accounts = AccountRegistry()
        accounts.create("alice", ether=0.1)
        with pytest.raises(ContractError):
            accounts.transfer("alice", "bob", WEI_PER_ETHER)

    def test_total_supply_conserved_by_transfers(self):
        accounts = AccountRegistry()
        accounts.create("alice", ether=3.0)
        accounts.create("bob", ether=1.0)
        total = accounts.total_supply()
        accounts.transfer("alice", "bob", WEI_PER_ETHER)
        assert accounts.total_supply() == total
