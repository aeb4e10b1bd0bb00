"""Errors are boundary traffic too: a lane pickles whatever an order raises,
and an exception that cannot be rebuilt on the other side does not arrive as
the typed error it was.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.chain.gas import GasLedger, GasSchedule
from repro.chain.vm import GasMeter
from repro.common import errors
from repro.common.errors import LaneDied, OutOfGasError, ReproError
from repro.gateway import FeedRegistry
from repro.gateway.executor import LaneConfig, _Lane, _LaneWorker, _stop

#: Generous for a sub-second task; only a hang ever reaches it.
TIMEOUT_SECONDS = 60

ERROR_CLASSES = [
    value
    for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, errors.ReproError)
]

#: Constructor arguments of the classes that take more than a message.
ARGUMENTS = {OutOfGasError: (5, 1), LaneDied: (1, 2, "epoch")}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_survives_a_pickle_round_trip(cls):
    error = cls(*ARGUMENTS.get(cls, ("what went wrong",)))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


def test_the_classes_under_test_include_the_ones_that_cross_lanes():
    assert {
        errors.OutOfGasError,
        errors.WireError,
        errors.ConfigurationError,
        errors.LaneDied,
    } <= set(ERROR_CLASSES)


class Stubborn(Exception):
    """Takes two arguments but hands ``Exception`` one message: it pickles in
    the lane and cannot be rebuilt in the main process."""

    def __init__(self, code: int, detail: str) -> None:
        super().__init__(f"stubborn {code}: {detail}")


class Locked(Exception):
    """Holds a lock, so it cannot be pickled at all."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.lock = threading.Lock()


def lane_whose_migrate_out(monkeypatch, body) -> _Lane:
    """An empty lane whose worker's ``migrate_out`` order runs ``body`` —
    patched before the lane forks, so the lane's worker has it."""
    monkeypatch.setattr(_LaneWorker, "migrate_out", lambda worker, feed_ids: body())
    return _Lane(0, LaneConfig(), FeedRegistry())


def test_out_of_gas_in_a_lane_arrives_typed_and_the_lane_lives_on(monkeypatch):
    meter = GasMeter(GasSchedule(), GasLedger(), limit=1)
    lane = lane_whose_migrate_out(monkeypatch, lambda: meter.charge(5, "sload"))
    try:
        [reply] = lane.send("migrate_out", 0, ["alpha"])
        with pytest.raises(OutOfGasError) as caught:
            reply.result(timeout=TIMEOUT_SECONDS)
        assert (caught.value.requested, caught.value.remaining) == (5, 1)
        assert "requested 5 with only 1 remaining" in str(caught.value)
        [reply] = lane.send("collect", 1)
        assert reply.result(timeout=TIMEOUT_SECONDS) == []
    finally:
        _stop([lane])
    assert not lane.process.is_alive()


@pytest.mark.parametrize(
    "error", [Stubborn(7, "no way back"), Locked("held")], ids=["unpickles", "pickles"]
)
def test_an_error_that_cannot_cross_arrives_typed_and_the_lane_lives_on(
    monkeypatch, error
):
    """One that does not unpickle used to arrive as a raw ``TypeError`` with
    the lane not marked failed; one that does not pickle crashed the lane in
    its own ``except``, and arrived as ``LaneDied``."""

    def body():
        raise error

    lane = lane_whose_migrate_out(monkeypatch, body)
    try:
        [reply] = lane.send("migrate_out", 0, ["alpha"])
        with pytest.raises(ReproError) as caught:
            reply.result(timeout=TIMEOUT_SECONDS)
        assert type(caught.value) is ReproError
        assert str(caught.value) == f"{type(error).__qualname__}: {error}"
        assert "raised in the lane" in caught.value.__notes__[0]
        assert lane.failed
        [reply] = lane.send("collect", 1)
        assert reply.result(timeout=TIMEOUT_SECONDS) == []
    finally:
        _stop([lane])
    assert not lane.process.is_alive()
