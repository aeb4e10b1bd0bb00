"""Off-chain storage substrate: an LSM-tree key-value store.

The paper's prototype persists the primary data copy in Google LevelDB on the
untrusted storage provider.  This package provides a from-scratch stand-in
with the same operational surface — ``get``, ``put``, ``delete``, ``scan`` and
ordered iteration — built the way LevelDB is built: an in-memory memtable that
flushes into immutable sorted string tables (SSTables), with background
compaction merging tables and discarding shadowed versions and tombstones.

A plain dict-backed :class:`InMemoryKVStore` with the same interface is the
reference the LSM tree is tested against.
"""

from repro.storage.kvstore import KVStore, InMemoryKVStore
from repro.storage.memtable import MemTable
from repro.storage.sstable import SSTable
from repro.storage.lsm import LSMStore, LSMConfig

__all__ = [
    "KVStore",
    "InMemoryKVStore",
    "MemTable",
    "SSTable",
    "LSMStore",
    "LSMConfig",
]
