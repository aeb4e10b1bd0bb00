"""Round-trip tests for the lane epoch/arrivals wire codec.

The process backend's correctness rests on one property: whatever a worker
lane packs with :func:`encode_lane_epoch`, the main process unpacks to *equal*
Python values — randomized drive buffers, ledger deltas (including empty and
zero-omitting ones), settlement records, unicode keys and all — and likewise
for the live arrivals the main process packs for a lane.  These tests drive the codec with generated payloads shaped
like real engine traffic, plus the cross-version guard at this layer.
"""

from __future__ import annotations

import random

import pytest

from repro.chain.chain import ExecutionBuffer
from repro.chain.events import LogEvent
from repro.chain.gas import (
    GasLedger,
    ledger_delta_wire,
    ledger_from_wire,
    ledger_to_wire,
)
from repro.common.types import Operation, OperationKind
from repro.common.wire import (
    WIRE_SCHEMA_VERSION,
    WireDecoder,
    WireEncoder,
    WireFrame,
    WireSchemaError,
)
from repro.gateway.executor import (
    SettlementResult,
    ShardEpochResult,
    decode_lane_epoch,
    decode_lane_arrivals,
    encode_lane_epoch,
    encode_lane_arrivals,
)

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
    names = ["request", "deliver", "üpdate"]
    return [
        (
            f"0xcontract{rng.randrange(3)}",
            rng.choice(names),
            {
                "key": f"ässet-{rng.randrange(100):04d}",
                "version": rng.randrange(1_000),
                "size": rng.choice([32, 64, 4096]),
            },
        )
        for _ in range(rng.randrange(0, 5))
    ]


def random_settlement(rng: random.Random) -> SettlementResult:
    feed_ids = tuple(rng.sample(FEEDS, rng.randrange(1, len(FEEDS))))
    before = ledger_to_wire(GasLedger())
    ledger = random_ledger(rng)
    return SettlementResult(
        function=rng.choice(["deliver", "update", "settle"]),
        feed_ids=feed_ids,
        scopes={feed_id: rng.randrange(1, 9) for feed_id in feed_ids},
        calldata_bytes=rng.randrange(0, 10_000),
        gas_used=rng.randrange(0, 500_000),
        success=rng.random() < 0.9,
        error=None if rng.random() < 0.8 else "réverted: künçe",
        events=tuple(random_events(rng)),
        ledger_delta=ledger_delta_wire(before, ledger),
    )


def random_shard_result(rng: random.Random, shard_index: int) -> ShardEpochResult:
    buffer = ExecutionBuffer(ledger=random_ledger(rng))
    for contract, name, payload in random_events(rng):
        buffer.events.append(
            LogEvent(
                contract=contract,
                name=name,
                payload=payload,
                block_number=rng.randrange(50),
                transaction_index=0,
                log_index=rng.randrange(500),
            )
        )
    return ShardEpochResult(
        shard_index=shard_index,
        drive=buffer.to_wire(),
        deliver=None if rng.random() < 0.3 else random_settlement(rng),
        update=None if rng.random() < 0.3 else random_settlement(rng),
        remaining={
            feed_id: rng.randrange(0, 300)
            for feed_id in rng.sample(FEEDS, rng.randrange(0, 3))
        },
        spans=tuple(
            {"phase": rng.choice(["drive", "update"]), "seconds": rng.random()}
            for _ in range(rng.randrange(0, 3))
        ),
    )


class TestLaneEpochRoundTrip:
    def test_randomized_epochs_round_trip_on_one_channel(self):
        """Many epochs over one persistent channel — the real traffic shape."""
        rng = random.Random(21)
        encoder, decoder = WireEncoder(), WireDecoder()
        for epoch in range(40):
            results = [
                random_shard_result(rng, shard_index)
                for shard_index in range(rng.randrange(1, 4))
            ]
            frame = encode_lane_epoch(encoder, epoch, results)
            out_epoch, out_results = decode_lane_epoch(decoder, frame)
            assert out_epoch == epoch
            assert out_results == results

    def test_empty_epoch(self):
        encoder, decoder = WireEncoder(), WireDecoder()
        frame = encode_lane_epoch(encoder, 0, [])
        assert decode_lane_epoch(decoder, frame) == (0, [])

    def test_empty_buffer_and_zero_omitting_delta(self):
        """A quiet shard: untouched ledger, no events, empty delta dicts."""
        encoder, decoder = WireEncoder(), WireDecoder()
        quiet = ShardEpochResult(
            shard_index=0,
            drive=ExecutionBuffer().to_wire(),
            deliver=SettlementResult(
                function="deliver",
                feed_ids=("feed-00",),
                scopes={"feed-00": 1},
                calldata_bytes=0,
                gas_used=0,
                success=True,
                error=None,
                events=(),
                # zero-omitting delta of a no-op settlement: all empty
                ledger_delta=ledger_delta_wire(
                    ledger_to_wire(GasLedger()), GasLedger()
                ),
            ),
            update=None,
            remaining={},
            spans=(),
        )
        frame = encode_lane_epoch(encoder, 7, [quiet])
        _, results = decode_lane_epoch(decoder, frame)
        assert results == [quiet]
        delta = results[0].deliver.ledger_delta
        assert delta["total"] == 0
        assert delta["by_category"] == {}
        assert delta["by_scope"] == []

    def test_delta_merges_like_direct_charging(self):
        """Decoded deltas must merge into exactly the ledger the worker had."""
        rng = random.Random(5)
        encoder, decoder = WireEncoder(), WireDecoder()
        worker = random_ledger(rng)
        before = ledger_to_wire(GasLedger())
        result = ShardEpochResult(
            shard_index=0,
            drive={"ledger": ledger_delta_wire(before, worker), "events": []},
            deliver=None,
            update=None,
            remaining={},
            spans=(),
        )
        frame = encode_lane_epoch(encoder, 0, [result])
        _, [decoded] = decode_lane_epoch(decoder, frame)
        merged = GasLedger()
        merged.merge(ledger_from_wire(decoded.drive["ledger"]))
        assert ledger_to_wire(merged) == ledger_to_wire(worker)

    def test_steady_state_frames_shrink(self):
        """Interning must make later epochs cheaper than the first."""
        rng = random.Random(3)
        encoder = WireEncoder()
        results = [random_shard_result(rng, 0)]
        first = encode_lane_epoch(encoder, 0, results).nbytes
        repeat = encode_lane_epoch(encoder, 1, results).nbytes
        assert repeat < first

    def test_cross_version_frame_rejected(self):
        encoder, decoder = WireEncoder(), WireDecoder()
        frame = encode_lane_epoch(encoder, 0, [])
        skewed = WireFrame(
            body=bytes([frame.body[0], WIRE_SCHEMA_VERSION + 3]) + frame.body[2:],
            blobs=frame.blobs,
        )
        with pytest.raises(WireSchemaError):
            decode_lane_epoch(decoder, skewed)


class TestLaneArrivalsRoundTrip:
    def test_arrivals_round_trip(self):
        """The one place operations cross main → lane outside a snapshot."""
        rng = random.Random(11)
        operations = [
            Operation(
                kind=rng.choice(list(OperationKind)),
                key=f"ässet-{rng.randrange(50):04d}",
                value=None if rng.random() < 0.5 else bytes(rng.randrange(0, 600)),
                size_bytes=rng.randrange(0, 5_000),
                scan_length=rng.randrange(1, 5),
                sequence=rng.randrange(10_000),
            )
            for _ in range(30)
        ]
        arrivals = [("feed-00", operations[:15]), ("fèed-ünïcode", operations[15:])]
        frame = encode_lane_arrivals(WireEncoder(), arrivals)
        assert decode_lane_arrivals(WireDecoder(), frame) == arrivals
