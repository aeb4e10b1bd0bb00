"""A finished run keeps only what something reads.

Nothing reads a deliver or update batch's groups once its block is mined, and
off-chain inspection of a consumer reads one value a key and a count.  These
tests run a toy ``fleet_read`` (the benchmark's own inputs at smoke size) in
both execution modes, and a single-feed :class:`GrubSystem` run, and check,
with the run still held, that none of the per-batch payload objects is alive,
that every receipt dropped its transaction's arguments, and that each
consumer holds at most one value per key — while ``deliveries()`` and
``last_value()`` answer as a consumer that kept every callback would.

The chain keeps its finality window: the last ``finality_depth + 1`` blocks,
their receipts and their events.  Runs longer than a small window keep that
and no more, behave as runs under the default window do, and a soak of a
thousand epochs holds a bounded amount of chain state.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace

import pytest

from repro.apps.btc.pegged_token import build_pegged_token_deployment
from repro.apps.stablecoin import build_stablecoin_deployment
from repro.chain.chain import Blockchain, ChainParameters
from repro.chain.gas import GasSchedule
from repro.common.errors import ReproError
from repro.common.types import KVRecord
from repro.core.config import GrubConfig
from repro.core.data_consumer import DataConsumerContract
from repro.core.grub import GrubSystem
from repro.core.storage_manager import CallbackRef, DeliverItem, UpdateEntry
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec
from repro.gateway.router import DeliverGroup, UpdateGroup
from repro.workloads.synthetic import SyntheticWorkload
from suite.workloads import WORKLOADS, generate
from test_parallel_engine import ChainHistory, chain_state_fingerprint

#: What one landed batch carries: its groups, their records, callbacks and
#: update entries.
BATCH_PAYLOAD = (DeliverGroup, UpdateGroup, DeliverItem, CallbackRef, UpdateEntry)

#: Callbacks each toy ``fleet_read`` consumer receives at seed 7, as a
#: consumer that appended every callback to a list counted them.
DELIVERIES = {"feed-00": 61, "feed-01": 69, "feed-02": 68, "feed-03": 66}


def live_payload() -> list:
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, BATCH_PAYLOAD)]


def toy_fleet_read_run(execution_mode: str, finality_depth: int = None):
    """The toy ``fleet_read`` at seed 7 on a chain whose window is
    ``finality_depth`` (every feed's ``chain_parameters`` with it; the
    default when ``None``): the registry, the inputs, the run's telemetry and
    the chain's whole history, recorded from before the first feed."""
    workload = WORKLOADS["fleet_read"].toy()
    inputs = generate(workload, 7)
    parameters = ChainParameters()
    if finality_depth is not None:
        parameters = ChainParameters(finality_depth=finality_depth)
    registry = FeedRegistry(parameters=parameters)
    history = ChainHistory(registry.chain)
    for spec in inputs.specs:
        registry.create_feed(
            replace(spec, config=replace(spec.config, chain_parameters=parameters))
        )
    fleet = EpochScheduler(
        registry,
        num_shards=workload.num_shards,
        num_workers=1 if execution_mode == "serial" else workload.num_workers,
        epoch_size=workload.epoch_size,
        execution_mode=execution_mode,
    ).run(inputs.operations)
    return registry, inputs, fleet, history


def run_toy_fleet_read(execution_mode: str):
    registry, inputs, _, _ = toy_fleet_read_run(execution_mode)
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


#: A finality depth every toy run below outgrows many times over.
WINDOW = 4


def check_window(chain, history) -> None:
    """``chain`` holds the tail of ``history`` its window covers: the last
    ``finality_depth + 1`` blocks, their receipts and their events, under
    the same absolute heights and log indices."""
    depth = chain.parameters.finality_depth
    assert chain.height == len(history.blocks) > 2 * (depth + 1)
    assert [block.number for block in chain.blocks] == list(
        range(chain.height - depth - 1, chain.height)
    )
    assert all(a is b for a, b in zip(chain.blocks, history.blocks[-(depth + 1) :]))
    kept = [receipt for block in chain.blocks for receipt in block.receipts]
    assert chain.receipts == {receipt.txid: receipt for receipt in kept}
    oldest = chain.blocks[0].number
    assert list(chain.event_log) == [
        event for event in history.event_log if event.block_number >= oldest
    ]
    assert len(chain.event_log) == len(history.event_log)


@pytest.mark.parametrize("execution_mode", ["serial", "process"])
def test_a_run_longer_than_the_window_keeps_only_the_window(execution_mode):
    registry, _, fleet, history = toy_fleet_read_run(execution_mode, WINDOW)
    check_window(registry.chain, history)
    # The window changes what the chain keeps, not what the run does.
    default, _, default_fleet, _ = toy_fleet_read_run(execution_mode)
    assert default.chain.blocks[0].number == 0
    assert fleet.fingerprint() == default_fleet.fingerprint()
    assert registry.chain.ledger.total == default.chain.ledger.total


def test_a_process_run_longer_than_the_window_records_the_serial_history():
    serial, _, _, serial_history = toy_fleet_read_run("serial", WINDOW)
    process, _, _, process_history = toy_fleet_read_run("process", WINDOW)
    assert chain_state_fingerprint(process, process_history) == chain_state_fingerprint(
        serial, serial_history
    )


def windowed_system(finality_depth: int):
    """A single-feed :class:`GrubSystem` on a chain with that window, its
    whole history recorded from before the preload."""
    parameters = ChainParameters(finality_depth=finality_depth)
    chain = Blockchain(parameters=parameters)
    history = ChainHistory(chain)
    system = GrubSystem(
        GrubConfig(epoch_size=8, algorithm="memoryless", k=2, chain_parameters=parameters),
        preload=[KVRecord.make(f"asset-{index:05d}", b"v" * 32) for index in range(64)],
        chain=chain,
    )
    return system, history


def test_a_single_feed_run_longer_than_the_window_keeps_only_the_window():
    system, history = windowed_system(WINDOW)
    system.run(
        SyntheticWorkload(read_write_ratio=4.0, num_operations=800, num_keys=64).operations()
    )
    check_window(system.chain, history)
    assert {r.transaction.function for r in history.receipts.values()} >= {"deliver", "update"}


def test_an_sp_polling_only_once_its_request_is_final_still_answers_it():
    system, _ = windowed_system(WINDOW)
    chain = system.chain
    chain.execute_internal_call("user", system.consumer.address, "query_feed", key="asset-00003")
    [request] = chain.event_log.since(len(chain.event_log) - 1)
    chain.mine_until_finalized(request.block_number)
    assert chain.is_finalized(request.block_number)
    assert system.service_provider.service_epoch()
    chain.mine_block()
    assert system.consumer.last_value("asset-00003") == b"v" * 32


def test_a_reader_below_the_window_gets_a_typed_error():
    system, _ = windowed_system(WINDOW)
    chain = system.chain
    chain.execute_internal_call("user", system.consumer.address, "query_feed", key="asset-00003")
    chain.mine_until_finalized(chain.height + 1)
    # The request's block left the window: its event went with it.
    assert len(chain.event_log) == 1 and list(chain.event_log) == []
    with pytest.raises(ReproError, match="below the finality window"):
        chain.event_log.since(0)
    with pytest.raises(ReproError, match="below the finality window"):
        system.service_provider.poll_requests()
    assert chain.event_log.since(1) == []


#: Toy soak: two feeds, four operations an epoch each.
SOAK_FEEDS, SOAK_EPOCH, SOAK_KEYS = 2, 4, 16
#: Bytes the chain package may hold after 1 000 epochs under the default
#: window (about 1 400 blocks mined, 251 kept), and how much more it may hold
#: than after 500: set before the soak first ran, at what a window of some
#: 2 KiB a block comes to.  The soak holds about 0.30 MB at both lengths;
#: with every block kept it held 0.81 MB after 500 epochs and 1.61 MB after
#: 1 000.
SOAK_HELD_BOUND = 1 << 20
SOAK_GROWTH_BOUND = 64 << 10


def chain_bytes_after(epochs: int) -> int:
    """Python bytes held by objects allocated in ``repro/chain/`` at the end
    of a toy gateway run of ``epochs`` epochs, the run still held."""
    registry = FeedRegistry()
    operations = {}
    for index in range(SOAK_FEEDS):
        feed_id = f"soak-{index}"
        registry.create_feed(
            FeedSpec(
                feed_id=feed_id,
                config=GrubConfig(epoch_size=SOAK_EPOCH, algorithm="memoryless", k=2),
                preload=[
                    KVRecord.make(f"k{index}-{key}", b"v" * 32) for key in range(SOAK_KEYS)
                ],
            )
        )
        operations[feed_id] = SyntheticWorkload(
            read_write_ratio=4.0,
            num_operations=SOAK_EPOCH * epochs,
            num_keys=SOAK_KEYS,
            key_prefix=f"k{index}-",
            seed=index + 1,
        ).operations()
    tracemalloc.start()
    try:
        fleet = EpochScheduler(registry, epoch_size=SOAK_EPOCH).run(operations)
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*/repro/chain/*")]
        )
    finally:
        tracemalloc.stop()
    assert registry.chain.height > epochs
    # What item 5's third step bounds still grows with the run: one roster
    # and one shard count an epoch, one summary an epoch in every bill.
    assert len(fleet.rosters) == len(fleet.shards_per_epoch) == epochs
    assert all(len(bill.epochs) == epochs for bill in fleet.feeds.values())
    return sum(stat.size for stat in held.statistics("filename"))


def test_a_thousand_epoch_soak_holds_a_bounded_chain():
    half = chain_bytes_after(500)
    whole = chain_bytes_after(1000)
    assert whole <= SOAK_HELD_BOUND
    assert whole - half <= SOAK_GROWTH_BOUND
