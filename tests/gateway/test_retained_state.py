"""A finished run keeps only what something reads.

Nothing reads a deliver or update batch's groups once its block is mined, and
off-chain inspection of a consumer reads one value a key and a count.  These
tests run a toy ``fleet_read`` (the benchmark's own inputs at smoke size) in
both execution modes, and a single-feed :class:`GrubSystem` run, and check,
with the run still held, that none of the per-batch payload objects is alive,
that every receipt dropped its transaction's arguments, and that each
consumer holds at most one value per key — while ``deliveries()`` and
``last_value()`` answer as a consumer that kept every callback would.
"""

from __future__ import annotations

import gc

import pytest

from repro.apps.btc.pegged_token import build_pegged_token_deployment
from repro.apps.stablecoin import build_stablecoin_deployment
from repro.chain.gas import GasSchedule
from repro.common.types import KVRecord
from repro.core.config import GrubConfig
from repro.core.data_consumer import DataConsumerContract
from repro.core.grub import GrubSystem
from repro.core.storage_manager import CallbackRef, DeliverItem, UpdateEntry
from repro.gateway import EpochScheduler, FeedRegistry
from repro.gateway.router import DeliverGroup, UpdateGroup
from repro.workloads.synthetic import SyntheticWorkload
from suite.workloads import WORKLOADS, generate

#: What one landed batch carries: its groups, their records, callbacks and
#: update entries.
BATCH_PAYLOAD = (DeliverGroup, UpdateGroup, DeliverItem, CallbackRef, UpdateEntry)

#: Callbacks each toy ``fleet_read`` consumer receives at seed 7, as a
#: consumer that appended every callback to a list counted them.
DELIVERIES = {"feed-00": 61, "feed-01": 69, "feed-02": 68, "feed-03": 66}


def live_payload() -> list:
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, BATCH_PAYLOAD)]


def run_toy_fleet_read(execution_mode: str):
    workload = WORKLOADS["fleet_read"].toy()
    inputs = generate(workload, 7)
    registry = FeedRegistry()
    for spec in inputs.specs:
        registry.create_feed(spec)
    EpochScheduler(
        registry,
        num_shards=workload.num_shards,
        num_workers=1 if execution_mode == "serial" else workload.num_workers,
        epoch_size=workload.epoch_size,
        execution_mode=execution_mode,
    ).run(inputs.operations)
    return registry, inputs


class _History:
    """Every callback the base consumer receives, in order, kept beside it:
    the reference ``deliveries()`` and ``last_value()`` must agree with."""

    def __init__(self, monkeypatch) -> None:
        self.calls = []
        on_data = DataConsumerContract.on_data

        def recording(consumer, ctx, key, value, **context):
            self.calls.append((consumer.address, key, value))
            return on_data(consumer, ctx, key, value, **context)

        monkeypatch.setattr(DataConsumerContract, "on_data", recording)

    def deliveries(self, address: str) -> int:
        return sum(1 for caller, _, _ in self.calls if caller == address)

    def last_value(self, address: str, key: str):
        for caller, called_key, value in reversed(self.calls):
            if caller == address and called_key == key:
                return value
        return None


@pytest.mark.parametrize("execution_mode", ["serial", "process"])
def test_a_finished_run_keeps_no_batch_payload(execution_mode):
    # Payload objects other tests left alive are held here, so none of their
    # ids can be handed to an object this run makes.
    before = live_payload()
    seen = {id(obj) for obj in before}
    registry, inputs = run_toy_fleet_read(execution_mode)
    kept = [obj for obj in live_payload() if id(obj) not in seen]
    assert kept == []
    receipts = registry.chain.receipts.values()
    assert {r.transaction.function for r in receipts} >= {"deliver_batch", "update_batch"}
    assert all(r.transaction.args == {} for r in receipts)
    for handle in registry.handles:
        keys = {operation.key for operation in inputs.operations[handle.feed_id]}
        consumer = handle.consumer
        assert set(consumer.latest) <= keys
        # No attribute of the consumer grows with its callbacks.
        for value in vars(consumer).values():
            if isinstance(value, (list, dict, set, tuple)):
                assert len(value) <= len(keys)


def test_a_finished_single_feed_run_keeps_no_batch_payload():
    """The path every paper figure takes: one feed's SP delivers and its DO
    updates in transactions of their own, mined by the epoch loop."""
    before = live_payload()
    seen = {id(obj) for obj in before}
    system = GrubSystem(
        GrubConfig(epoch_size=8, algorithm="memoryless", k=2),
        preload=[KVRecord.make(f"asset-{index:05d}", b"v" * 32) for index in range(64)],
    )
    system.run(
        SyntheticWorkload(read_write_ratio=4.0, num_operations=800, num_keys=64).operations()
    )
    assert [obj for obj in live_payload() if id(obj) not in seen] == []
    receipts = system.chain.receipts.values()
    assert {r.transaction.function for r in receipts} == {"deliver", "update"}
    assert all(r.transaction.args == {} for r in receipts)


def test_consumer_answers_as_one_that_kept_every_callback(monkeypatch):
    history = _History(monkeypatch)
    registry, inputs = run_toy_fleet_read("serial")
    for handle in registry.handles:
        consumer = handle.consumer
        assert consumer.deliveries() == history.deliveries(consumer.address)
        assert consumer.deliveries() == DELIVERIES[handle.feed_id]
        for key in {operation.key for operation in inputs.operations[handle.feed_id]}:
            assert consumer.last_value(key) == history.last_value(consumer.address, key)


def test_process_mode_consumers_answer_as_serial_ones():
    serial, inputs = run_toy_fleet_read("serial")
    process, _ = run_toy_fleet_read("process")
    for handle in process.handles:
        twin = serial.get(handle.feed_id).consumer
        assert handle.consumer.deliveries() == twin.deliveries()
        assert handle.consumer.latest == twin.latest
        for key in {operation.key for operation in inputs.operations[handle.feed_id]}:
            assert handle.consumer.last_value(key) == twin.last_value(key)


#: Plain callbacks, a key delivered twice among them.
CALLBACKS = [("a", b"1"), ("b", b"2"), ("a", b"3")]


def deliver(chain, consumer, key, value, **context) -> int:
    """One callback into ``consumer``; the gas it charged."""
    before = chain.ledger.total
    chain.execute_internal_call(
        consumer.storage_manager_address, consumer.address, "on_data",
        key=key, value=value, **context,
    )
    return chain.ledger.total - before


def check_plain_callbacks(chain, consumer) -> None:
    one_word = GasSchedule().memory_cost(1)
    for key, value in CALLBACKS:
        assert deliver(chain, consumer, key, value) == one_word
    assert consumer.deliveries() == len(CALLBACKS)
    assert consumer.last_value("a") == b"3"
    assert consumer.last_value("b") == b"2"
    assert consumer.last_value("c") is None
    assert consumer.latest == {"a": b"3", "b": b"2"}


def test_base_consumer_keeps_one_value_per_key():
    system = GrubSystem(GrubConfig(epoch_size=4))
    consumer = system.consumer
    consumer.pending_queries = 2
    check_plain_callbacks(system.chain, consumer)
    assert consumer.pending_queries == 0


def test_scoin_issuer_keeps_one_value_per_key():
    deployment = build_stablecoin_deployment(GrubSystem(GrubConfig(epoch_size=4)))
    check_plain_callbacks(deployment.system.chain, deployment.issuer)


def test_pegged_token_keeps_one_value_per_key():
    deployment = build_pegged_token_deployment(
        GrubSystem(GrubConfig(epoch_size=4)), confirmations=3
    )
    token = deployment.pegged
    check_plain_callbacks(deployment.system.chain, token)
    assert token.header_cache == {"a": b"3", "b": b"2"}
    # A header answering a mint or burn is the SPV path's, not a delivery.
    deliver(deployment.system.chain, token, "c", b"4", purpose="mint", index=0)
    assert token.deliveries() == len(CALLBACKS)
    assert token.last_value("c") is None and token.header_cache["c"] == b"4"
