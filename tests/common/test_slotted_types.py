"""The slotted value types cross every boundary they crossed with a ``__dict__``.

:class:`Operation` and :class:`KVRecord` fill feed queues, store records and
DO logs, and :class:`LogEvent` fills the event log and every drive buffer, so
all three are ``slots=True`` dataclasses.  Lanes pickle them — an
:class:`~repro.chain.chain.ExecutionBuffer`'s events in every epoch frame, a
:class:`~repro.gateway.feed_state.FeedState`'s queue in every move — and the
rest of the program copies, replaces and compares them.  Each of those must
come back equal, and no instance may grow a ``__dict__`` again.
"""

from __future__ import annotations

import copy
import pickle
from collections import deque
from dataclasses import FrozenInstanceError, asdict, fields, replace

import pytest

from repro.chain.chain import ExecutionBuffer
from repro.chain.events import LogEvent
from repro.chain.gas import GasLedger
from repro.common.types import KVRecord, Operation, ReplicationState
from repro.core.config import GrubConfig
from repro.gateway import FeedRegistry, FeedSpec, feed_state

SAMPLES = {
    "write": Operation.write("k-1", b"v" * 40, sequence=3),
    "read": Operation.read("k-2", size_bytes=64, sequence=4),
    "scan": Operation.scan("k-3", 5, sequence=5),
    "record": KVRecord.make("k-4", b"value", ReplicationState.REPLICATED, version=2),
    "event": LogEvent(
        contract="sm",
        name="request",
        payload={"key": "k-5", "consumer": "du", "callback": "on_data"},
        block_number=7,
        transaction_index=1,
        log_index=12,
    ),
}


@pytest.fixture(params=sorted(SAMPLES))
def sample(request):
    return SAMPLES[request.param]


def test_instances_are_frozen_and_have_no_dict(sample):
    assert not hasattr(sample, "__dict__")
    with pytest.raises(FrozenInstanceError):
        setattr(sample, fields(sample)[0].name, "other")


def test_pickle_round_trips(sample):
    for protocol in (pickle.DEFAULT_PROTOCOL, 5):
        copied = pickle.loads(pickle.dumps(sample, protocol=protocol))
        assert copied == sample and type(copied) is type(sample)


def test_deepcopy_and_copy_round_trip(sample):
    assert copy.deepcopy(sample) == sample
    assert copy.copy(sample) == sample


def test_replace_and_asdict_round_trip(sample):
    assert replace(sample) == sample
    values = asdict(sample)
    assert list(values) == [field.name for field in fields(sample)]
    assert type(sample)(**values) == sample
    first = fields(sample)[0].name
    changed = replace(sample, **{first: "other"})
    assert changed != sample and getattr(changed, first) == "other"


def test_equal_values_hash_equal():
    for name in ("write", "read", "scan", "record"):
        twin = pickle.loads(pickle.dumps(SAMPLES[name]))
        assert hash(twin) == hash(SAMPLES[name])
    same = SAMPLES["record"].with_state(ReplicationState.REPLICATED)
    assert len({SAMPLES["record"], same}) == 1
    # An event is unhashable by its payload dict, slots or not.
    with pytest.raises(TypeError):
        hash(SAMPLES["event"])


def test_record_helpers_return_slotted_copies():
    record = SAMPLES["record"]
    bumped = record.with_value(b"new")
    flipped = record.with_state(ReplicationState.NOT_REPLICATED)
    assert (bumped.value, bumped.version, bumped.prefixed_key) == (b"new", 3, "R|k-4")
    assert flipped.prefixed_key == "NR|k-4" and flipped.version == record.version
    assert not hasattr(bumped, "__dict__") and not hasattr(flipped, "__dict__")


def test_drive_buffer_events_cross_a_lane_frame():
    buffer = ExecutionBuffer()
    buffer.ledger.charge(375, "log", scope="feed-0")
    buffer.events.extend([SAMPLES["event"], replace(SAMPLES["event"], log_index=13)])
    opened = feed_state.open_packed(
        feed_state.pack((0, [buffer])), tuple, "lane epoch frame"
    )
    (epoch, [shipped]) = opened
    assert epoch == 0 and shipped.events == buffer.events
    assert shipped.ledger.since(GasLedger()) == buffer.ledger.since(GasLedger())


def test_feed_state_queue_crosses_as_equal_operations():
    records = [KVRecord.make(f"f-{j}", bytes([j]) * 32) for j in range(4)]
    registry = FeedRegistry()
    handle = registry.create_feed(
        FeedSpec(feed_id="f", config=GrubConfig(epoch_size=4), preload=records)
    )
    queued = [SAMPLES["write"], SAMPLES["read"], SAMPLES["scan"]]
    handle.queue = deque(queued)
    state = feed_state.unpack(feed_state.pack(feed_state.capture(handle)))
    assert state.queue == queued
    assert all(not hasattr(operation, "__dict__") for operation in state.queue)
    assert sorted(key for key, *_ in state.store.changed) == [r.key for r in records]
