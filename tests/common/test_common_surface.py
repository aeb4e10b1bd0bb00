"""The common package's public surface is what the program uses, and nothing
more.

Every public name each :mod:`repro.common` module defines at top level, and
every public method and property of its clocks and value types, is listed
here with its caller in ``src/``, or as a test reference.  A new public name
fails this test until its entry names the caller that needs it.  The
package's own exports (``repro.common.__all__``) are pinned the same way.
"""

from __future__ import annotations

import ast
import inspect
from types import FunctionType, ModuleType

import repro.common
from repro.common import clock, encoding, errors, hashing, types
from repro.common.clock import ManualClock, SimulatedClock
from repro.common.types import EpochSummary, KVRecord, Operation, ReplicationState

HASHING = {
    "DIGEST_SIZE_BYTES",  # ads/merkle.py: a digest's width
    "EMPTY_DIGEST",  # ads/merkle.py padding leaves, chain/chain.py genesis parent
    "keccak",  # ads/merkle.py, apps/btc/bitcoin.py
    "hash_pair",  # ads/merkle.py: every interior node
    "hash_words",  # chain/block.py block hash, apps/btc/bitcoin.py
    "hash_record",  # ads/authenticated_kv.py leaves, core/storage_manager.py deliver
    "clear_leaf_cache",  # benchmarks/suite/harness.py::_fresh_state calls it
    "combine_digests",  # test reference: tests/common/test_encoding_and_hashing.py
}

ENCODING = {
    "Value",  # the type of a record value, across common/ and chain/state.py
    "WORD_SIZE_BYTES",  # test reference: tests/common/test_encoding_and_hashing.py
    "words_for_bytes",  # chain/gas.py, chain/state.py, chain/transaction.py, storage manager
    "encode_value",  # chain/state.py ContractStorage.store
    "decode_value",  # test reference: tests/common/test_encoding_and_hashing.py
    "words_for_value",  # test reference: tests/common/test_types.py
    "pad_to_word",  # test reference: tests/common/test_encoding_and_hashing.py
}

CLOCK = {
    "MonotonicClock",  # obs/tracing.py, obs/__init__.py: the injectable clock type
    "DEFAULT_MONOTONIC",  # obs/tracing.py Tracer's default clock
    "ManualClock",  # test reference: tests/obs, tests/core: pinned span times
    "SimulatedClock",  # chain/chain.py Blockchain.clock
}

ERRORS = {
    "ReproError",  # chain/chain.py, gateway/, obs/: the one base callers catch
    "IntegrityError",  # ads/merkle.py, core/storage_manager.py deliver
    "FreshnessError",  # no raiser yet: ROADMAP item 14's served-read check
    "OutOfGasError",  # chain/vm.py GasMeter.charge
    "StorageError",  # storage/kvstore.py, storage/lsm.py, ads/authenticated_kv.py
    "ContractError",  # chain/contract.py Contract.revert
    "ConfigurationError",  # gateway/, obs/metrics.py, workloads/ycsb.py, frontdoor/
    "WireError",  # gateway/feed_state.py, gateway/executor.py lane frames
    "LaneDied",  # gateway/executor.py: a lane that stopped answering
}

TYPES = {
    "ReplicationState",  # every layer: a record's R/NR state
    "OperationKind",  # core/control_plane.py, workloads/
    "Operation",  # workloads/, core/grub.py drive_operation
    "KVRecord",  # ads/authenticated_kv.py, workloads/ycsb.py, analysis/
    "EpochSummary",  # core/grub.py, gateway/executor.py
}

SIMULATED_CLOCK = {
    "advance",  # chain/chain.py Blockchain._produce_block: one block interval
}

MANUAL_CLOCK = {
    "advance",  # test reference: tests/core/test_storage_manager_and_protocol.py
}

REPLICATION_STATE = {
    "flipped",  # test reference: tests/common/test_types.py
}

OPERATION = {
    "is_write",  # workloads/operations.py trace statistics
    "is_read",  # core/grub.py, core/control_plane.py
    "size_words",  # test reference: tests/common/test_types.py
    "write",  # workloads/: every generated write
    "read",  # workloads/: every generated read
    "scan",  # workloads/ycsb.py workload E
}

KV_RECORD = {
    "prefixed_key",  # ads/authenticated_kv.py: the backing store's key
    "size_words",  # test reference: tests/common/test_types.py
    "with_value",  # TamperingServiceProvider's fork attack (tests drive it)
    "with_state",  # ads/authenticated_kv.py AuthenticatedKVStore.apply_updates
    "make",  # workloads/ycsb.py, analysis/experiments.py preloads
}

EPOCH_SUMMARY = {
    "gas_total",  # gateway/executor.py: an epoch's gas
    "gas_per_operation",  # core/grub.py RunReport.epoch_series
}

PACKAGE_EXPORTS = {
    "KVRecord",
    "Operation",
    "OperationKind",
    "ReplicationState",
    "WORD_SIZE_BYTES",
    "words_for_bytes",
    "words_for_value",
    "encode_value",
    "decode_value",
    "keccak",
    "hash_pair",
    "hash_record",
    "hash_words",
    "SimulatedClock",
    "ReproError",
    "IntegrityError",
    "FreshnessError",
    "OutOfGasError",
    "StorageError",
    "ContractError",
}


def defined_names(module: ModuleType) -> set:
    """The public names ``module`` binds at top level itself (definitions
    and assignments, not imports)."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def public_surface(cls: type) -> set:
    """The public methods and properties ``cls`` defines itself (as in
    ``tests/chain/test_chain_surface.py``)."""
    return {
        name
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and isinstance(member, (FunctionType, property, classmethod, staticmethod))
    }


def test_hashing_surface_is_pinned():
    assert defined_names(hashing) == HASHING


def test_encoding_surface_is_pinned():
    assert defined_names(encoding) == ENCODING


def test_clock_surface_is_pinned():
    assert defined_names(clock) == CLOCK


def test_errors_surface_is_pinned():
    assert defined_names(errors) == ERRORS


def test_types_surface_is_pinned():
    assert defined_names(types) == TYPES


def test_clock_methods_are_pinned():
    assert public_surface(SimulatedClock) == SIMULATED_CLOCK
    assert public_surface(ManualClock) == MANUAL_CLOCK


def test_value_type_methods_are_pinned():
    assert public_surface(ReplicationState) == REPLICATION_STATE
    assert public_surface(Operation) == OPERATION
    assert public_surface(KVRecord) == KV_RECORD
    assert public_surface(EpochSummary) == EPOCH_SUMMARY


def test_package_exports_are_pinned():
    assert set(repro.common.__all__) == PACKAGE_EXPORTS
    # Every export is a name its module pins above.
    assert PACKAGE_EXPORTS <= HASHING | ENCODING | CLOCK | ERRORS | TYPES
