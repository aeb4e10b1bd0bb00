"""Shared fixtures for the GRuB reproduction test suite.

Also the one place tests find code outside ``src/``: the repo benchmark's
package (``benchmarks/suite``, imported read-only as ``suite``), the
examples (by file name), the shared KV conformance suite
(``tests/storage/kv_suite.py``) and the churn schedules of the elastic
property harness (``tests/workloads/churn_schedules.py``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.chain.chain import Blockchain, ChainParameters
from repro.chain.gas import GasLedger, GasSchedule
from repro.chain.vm import ExecutionContext, GasMeter
from repro.common.types import KVRecord, ReplicationState
from repro.core.config import GrubConfig
from repro.core.grub import GrubSystem
from repro.workloads.synthetic import SyntheticWorkload

REPO = Path(__file__).resolve().parents[1]
for directory in (
    REPO / "benchmarks",
    REPO / "examples",
    REPO / "tests" / "obs",
    REPO / "tests" / "storage",
    REPO / "tests" / "workloads",
):
    if str(directory) not in sys.path:
        sys.path.insert(0, str(directory))


@pytest.fixture
def schedule() -> GasSchedule:
    return GasSchedule()


@pytest.fixture
def ledger() -> GasLedger:
    return GasLedger()


@pytest.fixture
def meter(schedule, ledger) -> GasMeter:
    return GasMeter(schedule=schedule, ledger=ledger)


@pytest.fixture
def context(meter) -> ExecutionContext:
    return ExecutionContext(sender="tester", meter=meter)


@pytest.fixture
def chain() -> Blockchain:
    # A small finality depth keeps finality-related tests fast.
    return Blockchain(parameters=ChainParameters(finality_depth=3, block_interval=10.0))


@pytest.fixture
def sample_records() -> list:
    return [
        KVRecord.make("alpha", b"value-alpha"),
        KVRecord.make("bravo", b"value-bravo"),
        KVRecord.make("charlie", b"value-charlie", ReplicationState.REPLICATED),
        KVRecord.make("delta", b"value-delta"),
    ]


@pytest.fixture
def loaded_store(sample_records) -> AuthenticatedKVStore:
    store = AuthenticatedKVStore()
    store.load(sample_records)
    return store


@pytest.fixture
def small_config() -> GrubConfig:
    return GrubConfig(epoch_size=8)


@pytest.fixture
def grub_system(small_config) -> GrubSystem:
    return GrubSystem(small_config)


@pytest.fixture
def mixed_workload() -> list:
    return SyntheticWorkload(read_write_ratio=2, num_operations=64, num_keys=2).operations()
