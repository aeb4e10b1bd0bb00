"""Errors are boundary traffic too: a worker pool pickles whatever a task
raises, and an exception that cannot be rebuilt on the other side arrives as
``BrokenProcessPool`` — the typed error lost, and the worker with it.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.chain.gas import GasLedger, GasSchedule
from repro.chain.vm import GasMeter
from repro.common import errors
from repro.common.errors import OutOfGasError

#: Generous for a sub-second task; only a hang ever reaches it.
TIMEOUT_SECONDS = 60

ERROR_CLASSES = [
    value
    for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, errors.ReproError)
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_survives_a_pickle_round_trip(cls):
    error = cls(5, 1) if cls is OutOfGasError else cls("what went wrong")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


def test_the_classes_under_test_include_the_ones_that_cross_lanes():
    assert {errors.OutOfGasError, errors.WireError, errors.ConfigurationError} <= set(
        ERROR_CLASSES
    )


def test_out_of_gas_in_a_pool_worker_arrives_typed_and_the_pool_lives_on():
    meter = GasMeter(GasSchedule(), GasLedger(), limit=1)
    with ProcessPoolExecutor(max_workers=1) as pool:
        with pytest.raises(OutOfGasError) as caught:
            pool.submit(meter.charge, 5, "sload").result(timeout=TIMEOUT_SECONDS)
        assert (caught.value.requested, caught.value.remaining) == (5, 1)
        assert "requested 5 with only 1 remaining" in str(caught.value)
        assert pool.submit(abs, -3).result(timeout=TIMEOUT_SECONDS) == 3
