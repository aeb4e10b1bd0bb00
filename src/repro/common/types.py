"""Core datatypes shared across the GRuB reproduction.

These types model the vocabulary of the paper:

* :class:`ReplicationState` — the per-record R / NR bit the control plane
  maintains and the data plane materialises,
* :class:`KVRecord` — a key-value record augmented with its replication state,
* :class:`Operation` / :class:`OperationKind` — one entry of a data-feed
  workload (a write from the data owner or a read from a consumer contract).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import NewType, Optional

from repro.common.encoding import Value, encode_value, words_for_value

Bytes32 = NewType("Bytes32", bytes)
"""A 32-byte digest (Merkle root, block hash, ...)."""


class ReplicationState(enum.Enum):
    """Whether a record currently has a replica in smart-contract storage.

    The paper prefixes every data key with this bit; the Merkle tree on the SP
    groups records by it (NR group first, then R group).
    """

    NOT_REPLICATED = "NR"
    REPLICATED = "R"

    @property
    def prefix(self) -> str:
        """The key prefix used in the authenticated layout (``"NR"`` / ``"R"``)."""
        return self.value

    def flipped(self) -> "ReplicationState":
        """Return the opposite state (used when actuating a transition)."""
        if self is ReplicationState.REPLICATED:
            return ReplicationState.NOT_REPLICATED
        return ReplicationState.REPLICATED


class OperationKind(enum.Enum):
    """Kind of a workload operation."""

    READ = "read"
    WRITE = "write"
    SCAN = "scan"


@dataclass(frozen=True)
class Operation:
    """One operation of a data-feed workload.

    Attributes:
        kind: read, write or scan.
        key: the data key the operation touches.
        value: payload for writes (``None`` for reads).
        size_bytes: payload size used for gas accounting.  For reads this is
            the size of the record expected to be returned; workload
            generators fill it in so per-operation gas can be computed without
            consulting the store.
        scan_length: number of consecutive keys touched by a scan (YCSB
            workload E); 1 for point operations.
        sequence: position of the operation in the original trace, useful for
            joining results back to the workload.
    """

    kind: OperationKind
    key: str
    value: Optional[bytes] = None
    size_bytes: int = 32
    scan_length: int = 1
    sequence: int = 0

    @property
    def is_write(self) -> bool:
        return self.kind is OperationKind.WRITE

    @property
    def is_read(self) -> bool:
        return self.kind in (OperationKind.READ, OperationKind.SCAN)

    @property
    def size_words(self) -> int:
        """Payload size in 32-byte words (rounded up, at least one)."""
        return max(1, (self.size_bytes + 31) // 32)

    @staticmethod
    def write(key: str, value: Value, *, sequence: int = 0) -> "Operation":
        encoded = encode_value(value)
        return Operation(
            kind=OperationKind.WRITE,
            key=key,
            value=encoded,
            size_bytes=len(encoded),
            sequence=sequence,
        )

    @staticmethod
    def read(key: str, *, size_bytes: int = 32, sequence: int = 0) -> "Operation":
        return Operation(
            kind=OperationKind.READ,
            key=key,
            size_bytes=size_bytes,
            sequence=sequence,
        )

    @staticmethod
    def scan(
        key: str, scan_length: int, *, size_bytes: int = 32, sequence: int = 0
    ) -> "Operation":
        return Operation(
            kind=OperationKind.SCAN,
            key=key,
            size_bytes=size_bytes,
            scan_length=max(1, scan_length),
            sequence=sequence,
        )


@dataclass(frozen=True)
class KVRecord:
    """A key-value record augmented with its replication state.

    This is the unit the GRuB KV store manages: the primary copy always lives
    on the off-chain storage provider; when ``state`` is
    :attr:`ReplicationState.REPLICATED` a replica also lives in the
    storage-manager contract's storage.
    """

    key: str
    value: bytes
    state: ReplicationState = ReplicationState.NOT_REPLICATED
    version: int = 0

    @property
    def prefixed_key(self) -> str:
        """Key with the replication-state prefix, as laid out on the SP."""
        return f"{self.state.prefix}|{self.key}"

    @property
    def size_words(self) -> int:
        return max(1, words_for_value(self.value))

    def with_value(self, value: Value) -> "KVRecord":
        """Return a copy carrying a new value and a bumped version."""
        return replace(self, value=encode_value(value), version=self.version + 1)

    def with_state(self, state: ReplicationState) -> "KVRecord":
        """Return a copy carrying a new replication state."""
        return replace(self, state=state)

    @staticmethod
    def make(
        key: str,
        value: Value,
        state: ReplicationState = ReplicationState.NOT_REPLICATED,
        version: int = 0,
    ) -> "KVRecord":
        return KVRecord(key=key, value=encode_value(value), state=state, version=version)


@dataclass
class EpochSummary:
    """Aggregate of what happened to the feed during one epoch.

    Produced by the system facades (GRuB and baselines) so experiments can
    plot per-epoch gas series exactly like the paper's time-series figures.
    """

    index: int
    operations: int = 0
    reads: int = 0
    writes: int = 0
    gas_feed: int = 0
    gas_application: int = 0
    replications: int = 0
    evictions: int = 0
    deliveries: int = 0
    update_transactions: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def gas_total(self) -> int:
        return self.gas_feed + self.gas_application

    @property
    def gas_per_operation(self) -> float:
        if self.operations == 0:
            return 0.0
        return self.gas_feed / self.operations
