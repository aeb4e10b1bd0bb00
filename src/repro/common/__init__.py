"""Shared primitives used across every GRuB subsystem.

The modules in this package are deliberately dependency-free (standard library
only) so that every other subsystem — the chain simulator, the off-chain store,
the ADS layer and the GRuB core — can rely on them without import cycles.
"""

from repro.common.types import (
    KVRecord,
    Operation,
    OperationKind,
    ReplicationState,
)
from repro.common.encoding import (
    WORD_SIZE_BYTES,
    words_for_bytes,
    words_for_value,
    encode_value,
    decode_value,
)
from repro.common.hashing import keccak, hash_pair, hash_record, hash_words
from repro.common.clock import SimulatedClock
from repro.common.errors import (
    ReproError,
    IntegrityError,
    FreshnessError,
    OutOfGasError,
    StorageError,
    ContractError,
)

__all__ = [
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
]
