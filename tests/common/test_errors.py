"""Errors are boundary traffic too: a lane pickles whatever an order raises,
and an exception that cannot be rebuilt on the other side does not arrive as
the typed error it was.
"""

from __future__ import annotations

import pickle

import pytest

from repro.chain.gas import GasLedger, GasSchedule
from repro.chain.vm import GasMeter
from repro.common import errors
from repro.common.errors import LaneDied, OutOfGasError
from repro.gateway.executor import _Lane, _stop

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


def test_out_of_gas_in_a_lane_arrives_typed_and_the_lane_lives_on():
    meter = GasMeter(GasSchedule(), GasLedger(), limit=1)
    lane = _Lane(0)
    try:
        [reply] = lane.send("epoch", 0, meter.charge, 5, "sload")
        with pytest.raises(OutOfGasError) as caught:
            reply.result(timeout=TIMEOUT_SECONDS)
        assert (caught.value.requested, caught.value.remaining) == (5, 1)
        assert "requested 5 with only 1 remaining" in str(caught.value)
        [reply] = lane.send("epoch", 1, abs, -3)
        assert reply.result(timeout=TIMEOUT_SECONDS) == 3
    finally:
        _stop([lane])
    assert not lane.process.is_alive()
