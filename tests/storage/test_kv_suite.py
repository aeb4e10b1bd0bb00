"""Run the shared KV conformance suite over every backend.

One test class per backend, all inheriting the behavioural contract from
``kv_suite.KVStoreContract`` — a regression in any store (or a divergence
between them) fails here with the backend's name in the test id.
"""

from __future__ import annotations

from kv_suite import (
    KVCapabilities,
    KVStoreContract,
    MemTableKVAdapter,
    _persistent_lsm,
    _small_lsm,
    populate,
    reopen_lsm,
)

from repro.storage.kvstore import InMemoryKVStore
from repro.storage.lsm import LSMStore


class TestInMemoryKVStoreContract(KVStoreContract):
    make = staticmethod(InMemoryKVStore)


class TestLSMStoreContract(KVStoreContract):
    make = staticmethod(_small_lsm)


class TestLSMStorePersistentContract(KVStoreContract):
    """The full contract again, against a disk-backed ``LSMStore(directory=…)``
    — groundwork for persistent per-feed SP stores."""

    make = staticmethod(_persistent_lsm)
    capabilities = KVCapabilities(supports_persistence=True)
    restart = staticmethod(reopen_lsm)


class TestMemTableContract(KVStoreContract):
    make = staticmethod(MemTableKVAdapter)


class TestLSMStoreFlushesDuringSuite:
    """The suite's LSM configuration actually exercises flush/compaction."""

    def test_small_flush_threshold_triggers_sstables(self):
        store = _small_lsm()
        for index in range(64):
            store.put(f"key-{index:04d}", b"x" * 16)
        assert store.flushes > 0
        assert store.get("key-0000") == b"x" * 16
        assert len(store) == 64


class TestLSMStorePersistence:
    """Close/reopen round-trips of the persistent store."""

    def test_reopen_recovers_sstables_and_wal(self):
        store = _persistent_lsm()
        keys = populate(store, 48)  # enough to flush SSTables to disk...
        store.put("wal-only", b"unflushed")  # ...plus a write still in the WAL
        assert store.flushes > 0

        reopened = reopen_lsm(store)
        assert reopened.get("wal-only") == b"unflushed"
        for index, key in enumerate(keys):
            assert reopened.get(key) == f"value-{index}".encode()
        assert len(reopened) == len(keys) + 1
        assert [key for key, _ in reopened.scan("")] == sorted(keys + ["wal-only"])

    def test_reopen_preserves_deletes_and_overwrites(self):
        store = _persistent_lsm()
        keys = populate(store, 24)
        store.delete(keys[3])
        store.put(keys[5], b"rewritten")
        store.flush()
        store.delete(keys[7])  # tombstone only in the WAL at close time

        reopened = reopen_lsm(store)
        assert reopened.get(keys[3]) is None
        assert reopened.get(keys[7]) is None
        assert reopened.get(keys[5]) == b"rewritten"
        assert len(reopened) == len(keys) - 2

    def test_reopened_store_stays_usable(self):
        store = _persistent_lsm()
        populate(store, 8)
        reopened = reopen_lsm(store)
        reopened.put("post-restart", b"new")
        assert reopened.get("post-restart") == b"new"
        # And survives a second restart.
        assert reopen_lsm(reopened).get("post-restart") == b"new"

    def test_pure_memory_store_has_no_directory(self):
        assert _small_lsm().directory is None
        assert isinstance(_persistent_lsm(), LSMStore)
