"""Abstract key-value store interface and an in-memory reference implementation.

The SP store's backing (an LSM feed's durable copy) programs against
:class:`KVStore`, so any store with this interface can stand in for the LSM
tree — the property the paper claims for GRuB ("any off-chain storage service
supporting KV storage").  :class:`InMemoryKVStore` is the dict reference the
conformance suite checks the LSM tree against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import StorageError


class KVStore(ABC):
    """Minimal ordered key-value store interface.

    Keys are strings and values are bytes.  Iteration order is lexicographic
    by key, which the ADS layer relies on to build its key-sorted Merkle tree.
    """

    @abstractmethod
    def get(self, key: str) -> Optional[bytes]:
        """Return the value for ``key`` or ``None`` when absent."""

    @abstractmethod
    def put(self, key: str, value: bytes) -> None:
        """Insert or overwrite ``key``."""

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether it existed."""

    @abstractmethod
    def scan(self, start_key: str, end_key: Optional[str] = None, limit: Optional[int] = None) -> List[Tuple[str, bytes]]:
        """Return records with ``start_key <= key`` (< ``end_key`` if given), in order."""

    @abstractmethod
    def items(self) -> Iterator[Tuple[str, bytes]]:
        """Iterate all live records in key order."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of live records."""

    # -- conveniences shared by implementations -----------------------------

    def contains(self, key: str) -> bool:
        return self.get(key) is not None

    def keys(self) -> List[str]:
        return [key for key, _ in self.items()]

    def write_batch(self, items: Iterable[Tuple[str, Optional[bytes]]]) -> None:
        """Apply ordered ``(key, value)`` writes; a ``None`` value deletes.

        Equivalent to the same :meth:`put`/:meth:`delete` sequence.  Stores
        with a log override it to commit the batch's records together.
        """
        for key, value in items:
            if value is None:
                self.delete(key)
            else:
                self.put(key, value)


class InMemoryKVStore(KVStore):
    """An in-memory store: a plain dict, sorted only when :meth:`scan` or
    :meth:`items` asks for key order.  The tests' reference for
    :class:`LSMStore`, whose interface and iteration order it shares; no SP
    store uses it as a backing (a memory feed has none).
    """

    def __init__(self) -> None:
        self._data: Dict[str, bytes] = {}

    def get(self, key: str) -> Optional[bytes]:
        return self._data.get(key)

    def put(self, key: str, value: bytes) -> None:
        if not isinstance(value, bytes):
            raise StorageError(f"values must be bytes, got {type(value).__name__}")
        self._data[key] = value

    def delete(self, key: str) -> bool:
        return self._data.pop(key, None) is not None

    def scan(
        self,
        start_key: str,
        end_key: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Tuple[str, bytes]]:
        if limit is not None and limit <= 0:
            return []
        keys = sorted(
            key
            for key in self._data
            if start_key <= key and (end_key is None or key < end_key)
        )
        return [(key, self._data[key]) for key in keys[:limit]]

    def items(self) -> Iterator[Tuple[str, bytes]]:
        for key in sorted(self._data):
            yield key, self._data[key]

    def __len__(self) -> int:
        return len(self._data)
