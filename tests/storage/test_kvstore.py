"""Unit and property tests for the off-chain key-value stores (LSM and in-memory)."""

from __future__ import annotations

import copy
import pickle
import tempfile

import pytest
from hypothesis import given, settings, strategies as st
from kv_suite import apply_writes

from repro.common.errors import StorageError
from repro.storage.kvstore import InMemoryKVStore
from repro.storage.lsm import LSMConfig, LSMStore
from repro.storage.memtable import MemTable, TOMBSTONE
from repro.storage.sstable import SSTable, merge_tables


@pytest.fixture(params=["memory", "lsm", "lsm-disk"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryKVStore()
    if request.param == "lsm":
        return LSMStore(config=LSMConfig(memtable_flush_bytes=256))
    return LSMStore(directory=tmp_path / "db", config=LSMConfig(memtable_flush_bytes=256))


class TestKVStoreInterface:
    """The same behaviours must hold for every store implementation."""

    def test_put_get_round_trip(self, store):
        store.put("key", b"value")
        assert store.get("key") == b"value"

    def test_missing_key_returns_none(self, store):
        assert store.get("ghost") is None

    def test_overwrite_returns_latest(self, store):
        store.put("key", b"v1")
        store.put("key", b"v2")
        assert store.get("key") == b"v2"
        assert len(store) == 1

    def test_delete_removes_key(self, store):
        store.put("key", b"v")
        assert store.delete("key") is True
        assert store.get("key") is None
        assert store.delete("key") is False

    def test_items_are_key_ordered(self, store):
        for key in ["delta", "alpha", "charlie", "bravo"]:
            store.put(key, key.encode())
        assert [k for k, _ in store.items()] == ["alpha", "bravo", "charlie", "delta"]

    def test_scan_range_and_limit(self, store):
        for index in range(10):
            store.put(f"key-{index:02d}", bytes([index]))
        scanned = store.scan("key-03", "key-07")
        assert [k for k, _ in scanned] == ["key-03", "key-04", "key-05", "key-06"]
        assert len(store.scan("key-00", limit=3)) == 3

    def test_non_bytes_value_rejected(self, store):
        with pytest.raises(StorageError):
            store.put("key", "not-bytes")  # type: ignore[arg-type]

    def test_write_batch_stops_at_a_non_bytes_value(self, store):
        writes = [("a", b"1"), ("b", "not-bytes"), ("c", b"3")]
        with pytest.raises(StorageError):
            store.write_batch(writes)  # type: ignore[arg-type]
        assert store.get("a") == b"1"
        assert store.get("b") is None
        assert store.get("c") is None
        assert len(store) == 1

    def test_deleting_every_key_empties_the_store(self, store):
        # Enough records to flush the small LSM memtable, so the deletes
        # must shadow records already in SSTables.
        store.write_batch((f"key-{index:02d}", b"v" * 16) for index in range(32))
        assert len(store) == 32
        for key in store.keys():
            assert store.delete(key) is True
        assert len(store) == 0
        assert list(store.items()) == []
        assert store.scan("") == []
        assert store.get("key-00") is None


class TestMemTable:
    def test_tombstone_reported_as_found_none(self):
        table = MemTable()
        table.put("k", b"v")
        table.delete("k")
        found, value = table.get("k")
        assert found and value is None

    def test_size_tracking_updates_on_overwrite(self):
        table = MemTable()
        table.put("k", b"abcd")
        size_one = table.approximate_size_bytes
        table.put("k", b"ab")
        assert table.approximate_size_bytes < size_one

    def test_items_sorted(self):
        table = MemTable()
        for key in ["c", "a", "b"]:
            table.put(key, b"x")
        assert [k for k, _ in table.items()] == ["a", "b", "c"]


class TestTombstoneCopies:
    """A copied or unpickled store still recognises the deletes it holds."""

    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda store: pickle.loads(pickle.dumps(store))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_duplicated_lsm_store_keeps_its_tombstones(self, duplicate, tmp_path):
        original = LSMStore(config=LSMConfig(memtable_flush_bytes=10**9))
        for key in ("gone", "back", "kept"):
            original.put(key, key.encode())
        original.delete("gone")
        original.delete("back")
        store = duplicate(original)
        assert store.get("gone") is None and store.get("back") is None
        store.put("back", b"again")
        assert store.get("back") == b"again"
        table = store.flush()
        assert table.get("gone") == (True, None)
        loaded = SSTable.read_from(table.write_to(tmp_path / "t.sst"))
        assert list(loaded.items()) == [
            ("back", b"again"),
            ("gone", None),
            ("kept", b"kept"),
        ]
        assert store.get("gone") is None and store.get("kept") == b"kept"


class TestSSTable:
    def test_requires_sorted_unique_keys(self):
        with pytest.raises(ValueError):
            SSTable(entries=[("b", b"1"), ("a", b"2")])
        with pytest.raises(ValueError):
            SSTable(entries=[("a", b"1"), ("a", b"2")])

    def test_get_and_bounds(self):
        table = SSTable(entries=[("a", b"1"), ("c", None), ("e", b"3")])
        assert table.get("a") == (True, b"1")
        assert table.get("c") == (True, None)
        assert table.get("b") == (False, None)
        assert table.min_key == "a" and table.max_key == "e"

    def test_persistence_round_trip(self, tmp_path):
        table = SSTable(entries=[("a", b"1"), ("b", None), ("c", b"\x00" * 100)])
        path = table.write_to(tmp_path / "t.sst")
        loaded = SSTable.read_from(path)
        assert list(loaded.items()) == list(table.items())
        assert loaded.sequence == table.sequence

    def test_merge_newest_wins_and_drops_tombstones(self):
        old = SSTable(entries=[("a", b"old"), ("b", b"keep")])
        new = SSTable(entries=[("a", b"new"), ("c", None)])
        merged = merge_tables([old, new], drop_tombstones=True)
        assert merged.get("a") == (True, b"new")
        assert merged.get("b") == (True, b"keep")
        assert merged.get("c") == (False, None)


class TestLSMMechanics:
    def test_flush_creates_sstable_and_empties_memtable(self):
        store = LSMStore(config=LSMConfig(memtable_flush_bytes=10**9))
        store.put("a", b"1")
        table = store.flush()
        assert table is not None
        assert store.memtable.is_empty
        assert store.get("a") == b"1"

    def test_automatic_flush_on_threshold(self):
        store = LSMStore(config=LSMConfig(memtable_flush_bytes=64))
        for index in range(50):
            store.put(f"key-{index}", b"x" * 16)
        assert store.flushes > 0
        assert store.get("key-0") == b"x" * 16

    def test_compaction_bounds_table_count(self):
        config = LSMConfig(memtable_flush_bytes=32, max_sstables_before_compaction=2)
        store = LSMStore(config=config)
        for index in range(60):
            store.put(f"key-{index}", b"y" * 16)
        assert len(store.sstables) <= config.max_sstables_before_compaction + 1
        assert store.compactions > 0

    def test_delete_shadowed_by_tombstone_across_flushes(self):
        store = LSMStore(config=LSMConfig(memtable_flush_bytes=10**9))
        store.put("a", b"1")
        store.flush()
        store.delete("a")
        store.flush()
        assert store.get("a") is None
        store.compact()
        assert store.get("a") is None

    def test_recovery_from_disk(self, tmp_path):
        directory = tmp_path / "db"
        store = LSMStore(directory=directory, config=LSMConfig(memtable_flush_bytes=128))
        for index in range(20):
            store.put(f"key-{index:02d}", f"value-{index}".encode())
        store.delete("key-05")
        reopened = LSMStore(directory=directory, config=LSMConfig(memtable_flush_bytes=128))
        assert reopened.get("key-01") == b"value-1"
        assert reopened.get("key-05") is None
        assert len(reopened) == 19

    def test_compact_empty_store_rejected(self):
        store = LSMStore()
        with pytest.raises(StorageError):
            store.compact()


_KEYS = st.text(alphabet="abcdef", min_size=1, max_size=3)
_STEPS = st.one_of(
    st.tuples(st.just("put"), _KEYS, st.binary(max_size=8)),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(
        st.just("batch"),
        st.lists(st.tuples(_KEYS, st.none() | st.binary(max_size=8)), max_size=12),
    ),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("restart")),
)


@settings(max_examples=25, deadline=None)
@given(st.booleans(), st.lists(_STEPS, max_size=60))
def test_lsm_store_matches_dict_model(persistent, script):
    """Property: the LSM store behaves exactly like a plain dict — through
    single writes, batches, a close/reopen and (on disk) a restart that finds
    the unflushed writes in the log."""
    config = LSMConfig(memtable_flush_bytes=64)
    with tempfile.TemporaryDirectory() as scratch:
        store = LSMStore(directory=scratch if persistent else None, config=config)
        model = {}
        for action, *args in script:
            if action == "put":
                store.put(*args)
                model[args[0]] = args[1]
            elif action == "delete":
                assert store.delete(*args) is (args[0] in model)
                model.pop(args[0], None)
            elif action == "batch":
                store.write_batch(args[0])
                model = apply_writes(model, args[0])
            elif action == "restart" and persistent:
                # No close(): the new store recovers from tables plus log.
                store = LSMStore(directory=scratch, config=config)
            else:
                store.close()
                store.reopen()
            assert dict(store.items()) == model
        assert len(store) == len(model)
        for key, value in model.items():
            assert store.get(key) == value
        store.close()
