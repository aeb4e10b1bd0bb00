"""Immutable sorted string tables (SSTables) for the LSM store.

An SSTable holds a key-sorted run of records frozen from a memtable.  Lookups
binary-search the key index; optional persistence writes the table to disk in
a simple length-prefixed binary format so the store can be reopened, matching
the durability role LevelDB plays for the storage provider in the paper.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

_TOMBSTONE_MARKER = 0xFF
_VALUE_MARKER = 0x00
_sstable_ids = itertools.count()
_HEADER = struct.Struct(">QI")
_ENTRY = struct.Struct(">BI")
_VALUE_LEN = struct.Struct(">I")


@dataclass
class SSTable:
    """An immutable sorted run of records.

    ``entries`` holds ``(key, value_or_None)`` pairs where ``None`` encodes a
    tombstone.  ``sequence`` orders tables by age: higher sequence numbers are
    newer and shadow older tables during reads and compaction.
    """

    entries: List[Tuple[str, Optional[bytes]]]
    sequence: int = field(default_factory=lambda: next(_sstable_ids))

    def __post_init__(self) -> None:
        self._keys = keys = [key for key, _ in self.entries]
        if not all(map(operator.lt, keys, keys[1:])):
            raise ValueError(
                "SSTable entries must be sorted by key and have unique keys"
            )

    def get(self, key: str) -> Tuple[bool, Optional[bytes]]:
        """Return ``(found, value)``; tombstones report ``(True, None)``."""
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return True, self.entries[index][1]
        return False, None

    def items(self) -> Iterator[Tuple[str, Optional[bytes]]]:
        return iter(self.entries)

    @property
    def min_key(self) -> Optional[str]:
        return self._keys[0] if self._keys else None

    @property
    def max_key(self) -> Optional[str]:
        return self._keys[-1] if self._keys else None

    # -- persistence ---------------------------------------------------------

    def write_to(self, path: Path) -> Path:
        """Serialise the table to ``path`` in a length-prefixed binary format."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        parts = [_HEADER.pack(self.sequence, len(self.entries))]
        for key, value in self.entries:
            key_bytes = key.encode("utf-8")
            if value is None:
                parts += (_ENTRY.pack(_TOMBSTONE_MARKER, len(key_bytes)), key_bytes)
            else:
                parts += (
                    _ENTRY.pack(_VALUE_MARKER, len(key_bytes)),
                    key_bytes,
                    _VALUE_LEN.pack(len(value)),
                    value,
                )
        path.write_bytes(b"".join(parts))
        return path

    @classmethod
    def read_from(cls, path: Path) -> "SSTable":
        """Load a table previously produced by :meth:`write_to`."""
        path = Path(path)
        entries: List[Tuple[str, Optional[bytes]]] = []
        data = path.read_bytes()
        sequence, count = _HEADER.unpack_from(data, 0)
        offset = _HEADER.size
        for _ in range(count):
            marker, key_len = _ENTRY.unpack_from(data, offset)
            offset += _ENTRY.size
            key = data[offset : offset + key_len].decode("utf-8")
            offset += key_len
            if marker == _TOMBSTONE_MARKER:
                entries.append((key, None))
            else:
                (value_len,) = _VALUE_LEN.unpack_from(data, offset)
                offset += _VALUE_LEN.size
                entries.append((key, data[offset : offset + value_len]))
                offset += value_len
        _reserve_sequences(sequence)
        return cls(entries=entries, sequence=sequence)

    @classmethod
    def from_memtable_items(
        cls, items: Iterator[Tuple[str, object]], tombstone: object
    ) -> "SSTable":
        """Freeze memtable items (which may contain tombstone sentinels)."""
        entries: List[Tuple[str, Optional[bytes]]] = []
        for key, value in items:
            if value is tombstone:
                entries.append((key, None))
            else:
                entries.append((key, value))  # type: ignore[arg-type]
        return cls(entries=entries)


def _reserve_sequences(through: int) -> None:
    """Make every later default ``sequence`` exceed ``through``.

    A table read from disk may have been written by another process, whose
    counter ran ahead of this one's; a table flushed after it must still be
    the newer of the two.
    """
    global _sstable_ids
    _sstable_ids = itertools.count(max(next(_sstable_ids), through + 1))


def merge_tables(tables: List[SSTable], drop_tombstones: bool) -> SSTable:
    """Merge several tables into one, newest value per key winning.

    ``drop_tombstones`` is set when merging the full set of tables (a major
    compaction), where a tombstone no longer shadows anything and can be
    discarded.
    """
    newest: dict = {}
    for table in sorted(tables, key=lambda t: t.sequence):
        for key, value in table.items():
            newest[key] = value
    entries = [
        (key, value)
        for key, value in sorted(newest.items())
        if not (drop_tombstones and value is None)
    ]
    return SSTable(entries=entries)
