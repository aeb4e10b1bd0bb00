"""The storage package's public surface is what the program uses, and nothing
more.

Every public name each :mod:`repro.storage` module defines at top level, and
every public method and property of its stores and tables, is listed here
with its caller in ``src/``, or as a test reference, as
``tests/common/test_common_surface.py`` pins :mod:`repro.common`.  A new
public name fails this test until its entry names the caller that needs it.
The package's own exports (``repro.storage.__all__``) are pinned the same way.
"""

from __future__ import annotations

import ast
import inspect
from types import FunctionType, ModuleType

import repro.storage
from repro.storage import kvstore, lsm, memtable, sstable
from repro.storage.kvstore import InMemoryKVStore, KVStore
from repro.storage.lsm import LSMConfig, LSMStore
from repro.storage.memtable import MemTable
from repro.storage.sstable import SSTable

KVSTORE_MODULE = {
    "KVStore",  # ads/authenticated_kv.py: the SP store's backing, gateway/registry.py
    "InMemoryKVStore",  # test reference: tests/storage/kv_suite.py, the dict reference
}

MEMTABLE_MODULE = {
    "MemTable",  # storage/lsm.py LSMStore.memtable
    "TOMBSTONE",  # storage/lsm.py: a deleted key in the memtable and a flushed table
}

SSTABLE_MODULE = {
    "SSTable",  # storage/lsm.py: flushed and compacted runs
    "merge_tables",  # storage/lsm.py LSMStore.compact
}

LSM_MODULE = {
    "LSMConfig",  # storage/lsm.py LSMStore.config; test reference: tests/storage
    "LSMStore",  # gateway/registry.py FeedSpec.build_store_backing: an LSM feed's store
}

KVSTORE = {
    "get",  # abstract seam: the store interface
    "put",  # abstract seam: the store interface
    "delete",  # abstract seam: the store interface
    "scan",  # abstract seam: the store interface
    "items",  # abstract seam: the store interface
    "contains",  # test reference: tests/storage/test_kv_suite.py
    "keys",  # test reference: tests/storage/test_kvstore.py
    "write_batch",  # ads/authenticated_kv.py: every record batch of an LSM feed
}

IN_MEMORY_KVSTORE = {
    "get",  # test reference: tests/storage/test_kvstore.py, test_kv_suite.py
    "put",  # test reference: tests/storage/kv_suite.py
    "delete",  # test reference: tests/storage/kv_suite.py
    "scan",  # test reference: tests/storage/test_kvstore.py
    "items",  # test reference: tests/storage/test_kvstore.py
}

LSM_STORE = {
    "get",  # LSMStore.delete; benchmarks/suite/trace.py times it
    "put",  # benchmarks/suite/trace.py times it; test reference: tests/storage
    "delete",  # test reference: tests/storage/test_lsm_wal.py
    "scan",  # test reference: tests/storage/test_kv_suite.py
    "items",  # LSMStore.scan, KVStore.keys; test reference: tests/storage/test_lsm_wal.py
    "write_batch",  # ads/authenticated_kv.py: every record batch of an LSM feed
    "flush",  # LSMStore._maybe_flush, LSMStore.close
    "compact",  # LSMStore._maybe_compact
    "close",  # gateway/feed_state.py: a feed leaving a lane releases its directory
    "reopen",  # gateway/feed_state.py: a feed arriving takes the directory back
}

MEMTABLE = {
    "put",  # LSMStore.put, .write_batch, ._replay_wal
    "delete",  # LSMStore.delete, .write_batch, ._replay_wal
    "get",  # LSMStore.get
    "items",  # LSMStore.items, .flush
    "is_empty",  # LSMStore.flush, .write_batch
}

SSTABLE = {
    "get",  # LSMStore.get
    "items",  # LSMStore.items, merge_tables
    "min_key",  # test reference: tests/storage/test_kvstore.py
    "max_key",  # test reference: tests/storage/test_kvstore.py
    "write_to",  # LSMStore.flush, .compact: a persistent store's tables
    "read_from",  # LSMStore._recover: reopening a directory
    "from_memtable_items",  # LSMStore.flush
}

LSM_CONFIG: set = set()  # fields only

PACKAGE_EXPORTS = {
    "KVStore",
    "InMemoryKVStore",
    "MemTable",
    "SSTable",
    "LSMStore",
    "LSMConfig",
}


def defined_names(module: ModuleType) -> set:
    """The public names ``module`` binds at top level itself (as in
    ``tests/common/test_common_surface.py``)."""
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
    """The public methods and properties ``cls`` defines itself."""
    return {
        name
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and isinstance(member, (FunctionType, property, classmethod, staticmethod))
    }


def test_module_surfaces_are_pinned():
    assert defined_names(kvstore) == KVSTORE_MODULE
    assert defined_names(memtable) == MEMTABLE_MODULE
    assert defined_names(sstable) == SSTABLE_MODULE
    assert defined_names(lsm) == LSM_MODULE


def test_store_methods_are_pinned():
    assert public_surface(KVStore) == KVSTORE
    assert public_surface(InMemoryKVStore) == IN_MEMORY_KVSTORE
    assert public_surface(LSMStore) == LSM_STORE
    assert public_surface(LSMConfig) == LSM_CONFIG


def test_table_methods_are_pinned():
    assert public_surface(MemTable) == MEMTABLE
    assert public_surface(SSTable) == SSTABLE


def test_package_exports_are_pinned():
    assert set(repro.storage.__all__) == PACKAGE_EXPORTS
    # Every export is a name its module pins above.
    assert PACKAGE_EXPORTS <= KVSTORE_MODULE | MEMTABLE_MODULE | SSTABLE_MODULE | LSM_MODULE
