"""The lane boundary's one format: what a lane packs, the main process opens
to *equal* values; what does not open to that is refused whole.

Lane epochs cross packed like a feed's state does (``feed_state.pack`` →
``open_lane_epoch``).  The
round trips drive the engine's own objects, generated to look like real
engine traffic — randomized ``ShardOutcome`` values: drive buffers, ledger deltas
(including empty and zero-omitting ones), settlement receipts, settled
counts, lists of spans, unicode keys — and one real
drive buffer, which must cross without the chain's call frames.  The hostile half swaps a real
lane's frame mid-run for bytes that are not that epoch's results and pins the
three typed failures: nothing of the epoch is merged, the frames stay where
they were, and no lane process outlives the run.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.chain.chain import ExecutionBuffer
from repro.chain.events import LogEvent
from repro.chain.gas import GasLedger
from repro.chain.transaction import Transaction, TransactionReceipt
from repro.common.errors import WireError
from repro.common.types import KVRecord
from repro.core.config import GrubConfig
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec, feed_state
from repro.gateway.executor import (
    LaneEngine,
    ShardOutcome,
    _LaneWorker,
    drive_shard,
    open_lane_epoch,
    run_epoch_phases,
)
from repro.gateway.placement import FeedMove
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer
from repro.workloads.synthetic import SyntheticWorkload

#: Generous for a sub-second lane order; only a hang ever reaches it.
TIMEOUT_SECONDS = 60

FEEDS = ["feed-00", "feed-01", "fèed-ünïcode", "피드-03"]
CATEGORIES = ["sload", "sstore", "log", "calldata"]
LAYERS = ["feed", "settlement"]


def random_ledger(rng: random.Random) -> GasLedger:
    ledger = GasLedger()
    for _ in range(rng.randrange(0, 6)):
        ledger.charge(
            rng.randrange(1, 50_000),
            rng.choice(CATEGORIES),
            layer=rng.choice(LAYERS),
            scope=rng.choice(FEEDS),
        )
    return ledger


def random_events(rng: random.Random) -> list:
    """Events as a lane's chain stamped them."""
    names = ["request", "deliver", "üpdate"]
    return [
        LogEvent(
            contract=f"0xcontract{rng.randrange(3)}",
            name=rng.choice(names),
            payload={
                "key": f"ässet-{rng.randrange(100):04d}",
                "version": rng.randrange(1_000),
                "size": rng.choice([32, 64, 4096]),
            },
            block_number=rng.randrange(50),
            transaction_index=0,
            log_index=rng.randrange(500),
        )
        for _ in range(rng.randrange(0, 5))
    ]


def random_settlement(rng: random.Random) -> tuple:
    """A lane's settlement: its receipt (transaction ``args`` emptied) and the
    ledger delta it charged."""
    feed_ids = rng.sample(FEEDS, rng.randrange(1, len(FEEDS)))
    scopes = {feed_id: rng.randrange(1, 9) for feed_id in feed_ids}
    success = rng.random() < 0.9
    receipt = TransactionReceipt(
        transaction=Transaction(
            sender="gateway-operator",
            contract="gateway-router",
            function=rng.choice(["deliver_batch", "update_batch"]),
            calldata_bytes=sum(scopes.values()),
            scopes=scopes,
            submitted_at=14.0 * rng.randrange(100),
        ),
        success=success,
        gas_used=rng.randrange(0, 500_000),
        block_number=rng.randrange(50),
        transaction_index=0,
        return_value=rng.randrange(10) if success else None,
        error=None if success else "réverted: künçe",
        events=random_events(rng),
        finalized_at=14.0 * rng.randrange(100, 400) + 1.0,
    )
    return receipt, random_ledger(rng).since(GasLedger())


def random_outcome(rng: random.Random, shard_index: int) -> ShardOutcome:
    """A shard's epoch as a lane ships it: what ``run_epoch_phases`` returned."""
    return ShardOutcome(
        shard_index=shard_index,
        drive=ExecutionBuffer(ledger=random_ledger(rng), events=random_events(rng)),
        deliver=None if rng.random() < 0.3 else random_settlement(rng),
        update=None if rng.random() < 0.3 else random_settlement(rng),
        settled={
            feed_id: (rng.randrange(0, 300), rng.randrange(0, 2_000_000))
            for feed_id in rng.sample(FEEDS, rng.randrange(0, 3))
        },
        spans=[random_span(rng) for _ in range(rng.randrange(0, 3))],
    )


def random_span(rng: random.Random) -> Span:
    start = rng.random()
    span = Span(
        "shard",
        {"phase": rng.choice(["drive", "update"]), "shard": rng.randrange(4)},
        start=start,
        end=start + rng.random(),
    )
    for _ in range(rng.randrange(0, 2)):
        span.child("fèed", feed=rng.choice(FEEDS)).end = start
    return span


def span_tree(span: Span) -> tuple:
    """A span tree as comparable values (spans compare by identity)."""
    return (
        span.name,
        span.attrs,
        span.start,
        span.end,
        [span_tree(child) for child in span.children],
    )


def comparable(outcomes: list) -> list:
    return [
        (replace(outcome, spans=[]), [span_tree(span) for span in outcome.spans])
        for outcome in outcomes
    ]


def round_trip(epoch: int, outcomes: list):
    return open_lane_epoch(feed_state.pack((epoch, outcomes)))


class TestLaneEpochRoundTrip:
    def test_randomized_epochs_round_trip(self):
        rng = random.Random(21)
        for epoch in range(40):
            outcomes = [
                random_outcome(rng, shard_index)
                for shard_index in range(rng.randrange(1, 4))
            ]
            opened_epoch, opened = round_trip(epoch, outcomes)
            assert opened_epoch == epoch
            assert comparable(opened) == comparable(outcomes)

    def test_empty_epoch(self):
        assert round_trip(0, []) == (0, [])

    def test_empty_buffer_and_zero_omitting_delta(self):
        """A quiet shard: untouched ledger, no events, empty delta dicts."""
        receipt = TransactionReceipt(
            transaction=Transaction(
                sender="gateway-operator", contract="gateway-router", function="deliver_batch"
            ),
            success=True,
            gas_used=0,
            block_number=1,
            transaction_index=0,
        )
        quiet = ShardOutcome(
            shard_index=0,
            drive=ExecutionBuffer(),
            # zero-omitting delta of a no-op settlement: all empty
            deliver=(receipt, GasLedger().since(GasLedger())),
        )
        _, outcomes = round_trip(7, [quiet])
        assert outcomes == [quiet]
        _, delta = outcomes[0].deliver
        assert delta == GasLedger()
        assert (delta.total, delta.by_category, delta.by_scope) == (0, {}, {})

    def test_delta_merges_like_direct_charging(self):
        """An opened delta merges into exactly the ledger direct charging
        makes: the same counters, and no zero entries for what did not move."""
        rng = random.Random(5)
        worker = random_ledger(rng)
        before = GasLedger()
        before.merge(worker)
        direct = GasLedger()
        direct.merge(worker)
        for _ in range(4):
            amount = rng.randrange(1, 50_000)
            category, layer = rng.choice(CATEGORIES), rng.choice(LAYERS)
            scope = rng.choice(FEEDS)
            worker.charge(amount, category, layer=layer, scope=scope)
            direct.charge(amount, category, layer=layer, scope=scope)
        outcome = ShardOutcome(
            shard_index=0,
            drive=ExecutionBuffer(),
            deliver=(random_settlement(rng)[0], worker.since(before)),
        )
        _, [opened] = round_trip(0, [outcome])
        merged = GasLedger()
        merged.merge(before)
        merged.merge(opened.deliver[1])
        assert merged == direct

    def test_real_drive_buffer_crosses_without_call_frames(self):
        """A shard's real drive buffer pickles as its ledger and events; the
        chain's per-attribution call frames stay behind."""
        registry, workloads = small_fleet()
        for feed_id, operations in workloads.items():
            registry.get(feed_id).queue.extend(operations)
        buffer, _ = drive_shard(registry, ["feed-0", "feed-1"], 0, 8)
        assert buffer.events and buffer.ledger.total > 0
        frame = feed_state.pack((0, [ShardOutcome(shard_index=0, drive=buffer)]))
        assert b"_CallFrame" not in frame
        _, [opened] = open_lane_epoch(frame)
        assert opened.drive == buffer


class TestLaneSettlement:
    def test_shipped_delta_is_what_the_chain_ledger_gained(self):
        """A lane settles real deliver and update batches: the delta
        ``_LaneWorker._settle`` ships is exactly what its chain's ledger gained,
        zero entries omitted and block-gas-limit overflow (which the main
        chain re-derives from the receipt) left out."""
        registry, workloads = small_fleet()
        chain = registry.chain
        # Every settlement block overflows, so every delta has it to leave out.
        chain.parameters = replace(chain.parameters, block_gas_limit=1)
        for feed_id, operations in workloads.items():
            registry.get(feed_id).queue.extend(operations)
        lane = SimpleNamespace(registry=registry)
        settled = []

        def settle(transaction):
            before = GasLedger()
            before.merge(chain.ledger)
            receipt, delta = _LaneWorker._settle(lane, transaction)
            gained = chain.ledger.since(before)
            assert gained.by_category.pop("block_gas_limit_overflow") > 0
            assert delta == gained
            assert receipt.transaction.args == {} and receipt.gas_used > 0
            settled.append(transaction.function)
            return receipt, delta

        shards = [(0, ["feed-0", "feed-1"]), (1, ["feed-2", "feed-3"])]
        for epoch in range(3):
            run_epoch_phases(
                registry, shards, epoch, 8, settle=settle, tracer=Tracer(enabled=False)
            )
        assert {"deliver_batch", "update_batch"} <= set(settled)

    def test_zero_charges_do_not_ship(self, monkeypatch):
        """A category, layer or scope a settlement charges only ``0`` gas is
        absent from the shipped delta, as ``since`` would leave it out."""
        registry, workloads = small_fleet()
        chain = registry.chain
        for feed_id, operations in workloads.items():
            registry.get(feed_id).queue.extend(operations)
        land = chain.land

        def land_with_a_zero_charge(transaction):
            chain.ledger.charge(0, "zero-probe", layer="zero-layer", scope="zero-scope")
            return land(transaction)

        monkeypatch.setattr(chain, "land", land_with_a_zero_charge)
        lane = SimpleNamespace(registry=registry)
        deltas = []

        def settle(transaction):
            receipt, delta = _LaneWorker._settle(lane, transaction)
            deltas.append(delta)
            return receipt, delta

        run_epoch_phases(
            registry,
            [(0, ["feed-0", "feed-1", "feed-2", "feed-3"])],
            0,
            8,
            settle=settle,
            tracer=Tracer(enabled=False),
        )
        assert deltas and all(delta.total > 0 for delta in deltas)
        for delta in deltas:
            for entries in (delta.by_category, delta.by_layer, delta.by_scope):
                assert all(entries.values())
            assert "zero-probe" not in delta.by_category
            assert "zero-layer" not in delta.by_layer
            assert ("zero-scope", "zero-layer") not in delta.by_scope
        # The chain's own ledger took the charge, as a serial run's would.
        assert chain.ledger.by_category["zero-probe"] == 0


# -- hostile frames, in real lanes ---------------------------------------------


def small_fleet():
    """Four feeds over two shards: a static fleet, so process mode places
    one shard on each of two lanes once and orders every epoch ahead."""
    registry = FeedRegistry()
    workloads = {}
    for index in range(4):
        feed_id = f"feed-{index}"
        registry.create_feed(
            FeedSpec(
                feed_id=feed_id,
                config=GrubConfig(epoch_size=8, algorithm="memoryless", k=1 + index % 2),
                preload=[KVRecord.make(f"k{index}-{j:02d}", bytes(32)) for j in range(8)],
            )
        )
        workloads[feed_id] = SyntheticWorkload(
            read_write_ratio=2.0 + index,
            num_operations=48,
            num_keys=6,
            key_prefix=f"k{index}-",
            seed=index + 1,
        ).operations()
    return registry, workloads


def small_fleet_scheduler(execution_mode: str):
    registry, workloads = small_fleet()
    scheduler = EpochScheduler(
        registry,
        num_shards=2,
        num_workers=2 if execution_mode == "process" else 1,
        execution_mode=execution_mode,
    )
    return scheduler, registry, workloads


def merged_so_far(chain) -> tuple:
    return chain.height, chain.ledger.total, len(chain.event_log)


#: The mid-run epoch whose lane-1 frame the tests below replace.
HOSTILE_EPOCH = 3


def refuse_hostile_frames(monkeypatch, chain, *, restore: bool) -> dict:
    """Wrap ``LaneEngine.results``: at :data:`HOSTILE_EPOCH`, lane 1's frame —
    back from the lane, not yet opened — is replaced, in turn, by every
    truncation of itself, a packed ``dict``, a packed ``(epoch, [a settlement
    receipt])`` and the intact frame of the *next* epoch.  Each must
    be refused with nothing merged.  The last one then stays in place, or
    (``restore``) the intact frame goes back; either way the real call runs.
    """
    genuine = LaneEngine.results
    seen = {}

    def results(engine, epoch):
        if epoch != HOSTILE_EPOCH:
            return genuine(engine, epoch)
        # Lane 1's epoch replies not yet merged: this epoch's, then the next.
        reply, following = list(engine._lanes[1].epochs)[:2]
        intact = reply.result(timeout=TIMEOUT_SECONDS)
        _, [outcome] = open_lane_epoch(intact.frame)
        receipt, _ = outcome.deliver or outcome.update
        assert isinstance(receipt, TransactionReceipt)
        hostile = [
            (intact.frame[:cut], "cannot be opened")
            for cut in range(len(intact.frame))
        ] + [
            (feed_state.pack({"epoch": epoch}), "holds a dict, not a tuple"),
            (feed_state.pack((epoch, [receipt])), r"does not hold \(epoch, \["),
            (following.result(timeout=TIMEOUT_SECONDS).frame, "is for epoch 4, expected 3"),
        ]
        seen["merged"] = merged_so_far(chain)
        for frame, refusal in hostile:
            reply.value = replace(intact, frame=frame)
            with pytest.raises(WireError, match=refusal):
                genuine(engine, epoch)
            assert merged_so_far(chain) == seen["merged"]
        seen["refused"] = len(hostile)
        if restore:
            reply.value = intact
        return genuine(engine, epoch)

    monkeypatch.setattr(LaneEngine, "results", results)
    return seen


class TestHostileLaneFrames:
    def test_refused_frame_ends_run_nothing_merged(self, monkeypatch):
        scheduler, registry, workloads = small_fleet_scheduler("process")
        seen = refuse_hostile_frames(monkeypatch, registry.chain, restore=False)
        before = set(multiprocessing.active_children())
        with pytest.raises(WireError, match="frame is for epoch 4, expected 3"):
            scheduler.run(workloads)
        assert seen["refused"] > 100
        # Lane 0's frame for the epoch was good, and opened every time — and
        # still nothing of the epoch reached the main chain.
        assert merged_so_far(registry.chain) == seen["merged"]
        assert set(multiprocessing.active_children()) <= before

    def test_intact_frame_still_opens_after_refusals(self, monkeypatch):
        """Every refusal left both lanes' frames where they were: with the
        intact frame back in place the run ends serial-identical."""
        scheduler, registry, workloads = small_fleet_scheduler("serial")
        serial_fleet = scheduler.run(workloads)
        serial_merged = merged_so_far(registry.chain)
        scheduler, registry, workloads = small_fleet_scheduler("process")
        seen = refuse_hostile_frames(monkeypatch, registry.chain, restore=True)
        process_fleet = scheduler.run(workloads)
        assert seen["refused"] > 100
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert merged_so_far(registry.chain) == serial_merged
        # Lane 0's frame opened with every refusal but was taken, and
        # metered, once.
        ipc = process_fleet.ipc
        assert ipc["epochs"] == serial_fleet.epochs_run
        assert [row["epochs"] for row in ipc["lanes"].values()] == [ipc["epochs"]] * 2

    def test_results_out_of_order_are_refused(self):
        registry, _ = small_fleet()
        engine = LaneEngine(1, registry, MetricsRegistry())
        try:
            feed_ids = [handle.feed_id for handle in registry.handles]
            engine.ensure_lanes(1, {0: feed_ids})
            engine.submit(0, 2, 8, {0: [(0, feed_ids)]})
            with pytest.raises(WireError, match="for epoch 1, but the next in-flight epoch is 0"):
                engine.results(1)
            for epoch in (0, 1):
                outcomes = engine.results(epoch)
                assert [outcome.shard_index for outcome in outcomes] == [0]
        finally:
            engine.shutdown()


class TestHostileOrders:
    """An epoch's assignment crosses main → lane inside its order, so what
    the lane makes of it comes back as that order's reply."""

    @pytest.fixture
    def lane_hosting_alpha(self):
        registry = FeedRegistry()
        registry.create_feed(FeedSpec(feed_id="alpha", config=GrubConfig(epoch_size=4)))
        engine = LaneEngine(1, registry, MetricsRegistry())
        before = set(multiprocessing.active_children())
        engine.ensure_lanes(1, {})
        engine.transfer(
            [FeedMove("alpha", None, 0, None)],
            snapshot_local=lambda feed_id: feed_state.detach(registry.get(feed_id)),
        )
        yield engine
        engine.shutdown()
        assert set(multiprocessing.active_children()) <= before

    def test_assignment_naming_an_unhosted_feed(self, lane_hosting_alpha):
        engine = lane_hosting_alpha
        engine.submit(0, 1, 4, {0: [(0, ["alpha", "beta"])]})
        with pytest.raises(WireError, match="assignment names feed 'beta', which this"):
            engine.results(0)


class TestRecordedBlocks:
    def test_obs_counts_recorded_blocks_like_executed_ones(self):
        """A process run's main chain records its lanes' settlement receipts
        through the block production a serial run executes with, so one plane
        counts, and times, both runs' blocks alike."""
        obs = Observability()

        def block_counts():
            return (
                obs.counter("chain_blocks_total").value,
                obs.counter("chain_transactions_total").value,
                obs.histogram("chain_mine_seconds").count,
            )

        readings = []
        for mode in ("serial", "process"):
            registry, workloads = small_fleet()
            EpochScheduler(
                registry,
                num_shards=2,
                num_workers=2 if mode == "process" else 1,
                execution_mode=mode,
                obs=obs,
            ).run(workloads)
            readings.append(block_counts())
        serial, both = readings
        assert serial[0] > 0 and serial[0] == serial[1] == serial[2]
        assert both == tuple(2 * count for count in serial)
