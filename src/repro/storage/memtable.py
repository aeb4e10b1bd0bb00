"""In-memory write buffer (memtable) of the LSM store.

The memtable absorbs writes in sorted order until it reaches a size threshold,
at which point the LSM store freezes it into an immutable SSTable.  Deletions
are recorded as tombstones so that a later compaction can shadow older values
of the same key living in lower tables.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


class _Tombstone:
    """The type of :data:`TOMBSTONE`, the memtable's mark of a deleted key."""

    __slots__ = ()

    def __reduce__(self) -> str:
        # A copy or an unpickled memtable names the module's one instance, so
        # the identity tests below still see a tombstone in it.
        return "TOMBSTONE"


#: Sentinel stored for deleted keys; distinguishable from any real value
#: because real values are raw bytes and the sentinel is a unique object.
#: It survives ``copy.deepcopy`` and pickling as itself.
TOMBSTONE = _Tombstone()


@dataclass
class MemTable:
    """Sorted, mutable write buffer."""

    _data: Dict[str, object] = field(default_factory=dict)
    _sorted_keys: List[str] = field(default_factory=list)
    approximate_size_bytes: int = 0

    def put(self, key: str, value: bytes) -> None:
        self._insert(key, value, len(value))

    def delete(self, key: str) -> None:
        """Record a tombstone for ``key`` (the key may or may not exist)."""
        self._insert(key, TOMBSTONE, 1)

    def get(self, key: str) -> Tuple[bool, Optional[bytes]]:
        """Return ``(found, value)``.

        ``found`` is True when the memtable has an entry for the key, even a
        tombstone — in which case ``value`` is ``None`` and the caller must
        *not* fall through to older tables.
        """
        if key not in self._data:
            return False, None
        value = self._data[key]
        if value is TOMBSTONE:
            return True, None
        return True, value  # type: ignore[return-value]

    def items(self) -> Iterator[Tuple[str, object]]:
        """All entries (including tombstones) in key order."""
        for key in self._sorted_keys:
            yield key, self._data[key]

    @property
    def is_empty(self) -> bool:
        return not self._data

    def _insert(self, key: str, value: object, size: int) -> None:
        if key not in self._data:
            bisect.insort(self._sorted_keys, key)
            self.approximate_size_bytes += len(key.encode("utf-8"))
        else:
            previous = self._data[key]
            if previous is not TOMBSTONE:
                self.approximate_size_bytes -= len(previous)  # type: ignore[arg-type]
            else:
                self.approximate_size_bytes -= 1
        self._data[key] = value
        self.approximate_size_bytes += size
