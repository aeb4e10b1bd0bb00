"""Shared conformance suite for every ordered KV backend in the repo.

The paper claims GRuB works over "any off-chain storage service supporting KV
storage"; this suite makes that interchangeability a tested contract.  It is
parametrized over the dict-backed :class:`InMemoryKVStore`, the LSM tree
(:class:`LSMStore`) and the :class:`MemTable` write buffer (adapted to the
store interface), and covers roundtrip, overwrite, delete, the ``scan``
edge cases (empty range, ``limit=0``, unbounded end) and ``write_batch``.
A backend declares what it promises beyond that with :class:`KVCapabilities`
flags; the suite demands the restart checks only of backends that declare
``supports_persistence``.

Import :data:`BACKENDS` and decorate with ``@pytest.mark.parametrize`` (see
``test_kv_suite.py``), or subclass :class:`KVStoreContract` with a ``make``
classmethod for a new backend.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

from repro.storage.kvstore import InMemoryKVStore, KVStore
from repro.storage.lsm import LSMConfig, LSMStore
from repro.storage.memtable import TOMBSTONE, MemTable


class MemTableKVAdapter(KVStore):
    """Adapt the LSM write buffer to the :class:`KVStore` contract.

    The memtable is the mutable head of the LSM store; wrapping it lets the
    shared suite assert that its visible behaviour (tombstones shadowing
    earlier values, sorted iteration) matches the full stores.
    """

    def __init__(self) -> None:
        self.memtable = MemTable()

    def get(self, key: str) -> Optional[bytes]:
        found, value = self.memtable.get(key)
        return value if found else None

    def put(self, key: str, value: bytes) -> None:
        self.memtable.put(key, value)

    def delete(self, key: str) -> bool:
        existed = self.get(key) is not None
        self.memtable.delete(key)
        return existed

    def scan(
        self,
        start_key: str,
        end_key: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Tuple[str, bytes]]:
        if limit is not None and limit <= 0:
            return []
        result: List[Tuple[str, bytes]] = []
        for key, value in self.items():
            if key < start_key:
                continue
            if end_key is not None and key >= end_key:
                break
            result.append((key, value))
            if limit is not None and len(result) >= limit:
                break
        return result

    def items(self) -> Iterator[Tuple[str, bytes]]:
        for key, value in self.memtable.items():
            if value is not TOMBSTONE:
                yield key, value  # type: ignore[misc]

    def __len__(self) -> int:
        return sum(1 for _ in self.items())


def _small_lsm() -> LSMStore:
    """An in-memory LSM tuned to actually flush/compact under suite-sized data."""
    return LSMStore(config=LSMConfig(memtable_flush_bytes=256, write_ahead_log=False))


def _persistent_lsm_config() -> LSMConfig:
    """Persistent-mode tuning: small flushes so SSTables hit disk, WAL on so
    unflushed writes survive a close/reopen."""
    return LSMConfig(memtable_flush_bytes=256, write_ahead_log=True)


#: Scratch directories handed out by :func:`_persistent_lsm`, removed at
#: interpreter exit so repeated test runs do not litter the temp root.
_SCRATCH_DIRS: List[Path] = []


@atexit.register
def _cleanup_scratch_dirs() -> None:
    for directory in _SCRATCH_DIRS:
        shutil.rmtree(directory, ignore_errors=True)


def _persistent_lsm() -> LSMStore:
    """A disk-backed LSM in a fresh scratch directory.

    Each call gets its own directory (pytest's per-test ``tmp_path`` cannot
    reach a module-level factory), created under the system temp root and
    removed at process exit; the conformance tests only ever write a few
    hundred bytes per store.  Reopen the same directory with
    ``LSMStore(directory=store.directory)`` to exercise recovery — see
    ``TestLSMStorePersistence``.
    """
    directory = Path(tempfile.mkdtemp(prefix="grub-lsm-suite-"))
    _SCRATCH_DIRS.append(directory)
    return LSMStore(directory=directory, config=_persistent_lsm_config())


def reopen_lsm(store: LSMStore) -> LSMStore:
    """Simulate a process restart: a new store over the same directory."""
    assert store.directory is not None, "only persistent stores can be reopened"
    return LSMStore(directory=store.directory, config=store.config)


#: name → factory, the backends every conformance test runs against.
BACKENDS: List[Tuple[str, Callable[[], KVStore]]] = [
    ("inmemory", InMemoryKVStore),
    ("lsm", _small_lsm),
    ("lsm-persistent", _persistent_lsm),
    ("memtable", MemTableKVAdapter),
]

BACKEND_IDS = [name for name, _ in BACKENDS]
BACKEND_FACTORIES = [factory for _, factory in BACKENDS]


def populate(store: KVStore, count: int = 8, prefix: str = "key") -> List[str]:
    """Insert ``count`` records with deterministic keys; returns the keys."""
    keys = [f"{prefix}-{index:04d}" for index in range(count)]
    for index, key in enumerate(keys):
        store.put(key, f"value-{index}".encode())
    return keys


@dataclass(frozen=True)
class KVCapabilities:
    """What a backend guarantees beyond the basic contract."""

    #: Everything a returned call wrote is found again by a second store
    #: opened over the first one's files, without the first being closed.
    supports_persistence: bool = False


#: One batch with every case in it: overwrites inside the batch, a delete of
#: a key written earlier in the batch, of a pre-existing key and of a key
#: that never existed, and a re-insert after a delete.
MIXED_BATCH: List[Tuple[str, Optional[bytes]]] = [
    ("alpha", b"1"),
    ("bravo", b"2"),
    ("alpha", b"3"),
    ("bravo", None),
    ("key-0001", None),
    ("ghost", None),
    ("charlie", b"4"),
    ("bravo", b"5"),
    ("charlie", None),
    ("key-0002", b"rewritten"),
]


def step_writes(store: KVStore, writes) -> None:
    """The ``put``/``delete`` sequence a batch of ``writes`` must equal."""
    for key, value in writes:
        if value is None:
            store.delete(key)
        else:
            store.put(key, value)


def apply_writes(model: dict, writes) -> dict:
    """The dict a store that held ``model`` must equal after ``writes``."""
    model = dict(model)
    for key, value in writes:
        if value is None:
            model.pop(key, None)
        else:
            model[key] = value
    return model


class KVStoreContract:
    """The behavioural contract; ``make()`` is provided by parametrization."""

    make: Callable[[], KVStore]
    capabilities = KVCapabilities()
    #: Backends with ``supports_persistence``: a new store over ``store``'s
    #: files, as after a process restart.
    restart: Callable[[KVStore], KVStore]

    def check_survives_restart(self, store: KVStore) -> None:
        if self.capabilities.supports_persistence:
            assert list(self.restart(store).items()) == list(store.items())

    # -- roundtrip -----------------------------------------------------------

    def test_roundtrip(self):
        store = self.make()
        store.put("alpha", b"1")
        assert store.get("alpha") == b"1"
        assert store.contains("alpha")
        assert len(store) == 1

    def test_get_missing_returns_none(self):
        store = self.make()
        assert store.get("ghost") is None
        assert not store.contains("ghost")

    def test_iteration_is_key_sorted(self):
        store = self.make()
        for key in ("delta", "alpha", "charlie", "bravo"):
            store.put(key, key.encode())
        assert [key for key, _ in store.items()] == ["alpha", "bravo", "charlie", "delta"]

    # -- overwrite -----------------------------------------------------------

    def test_overwrite_replaces_value_without_duplicating_key(self):
        store = self.make()
        store.put("alpha", b"old")
        store.put("alpha", b"new")
        assert store.get("alpha") == b"new"
        assert len(store) == 1
        assert store.keys() == ["alpha"]

    # -- delete --------------------------------------------------------------

    def test_delete_existing_returns_true_and_removes(self):
        store = self.make()
        store.put("alpha", b"1")
        assert store.delete("alpha") is True
        assert store.get("alpha") is None
        assert len(store) == 0

    def test_delete_missing_returns_false(self):
        store = self.make()
        assert store.delete("ghost") is False

    def test_delete_then_reinsert(self):
        store = self.make()
        store.put("alpha", b"1")
        store.delete("alpha")
        store.put("alpha", b"2")
        assert store.get("alpha") == b"2"
        assert len(store) == 1

    # -- scan ----------------------------------------------------------------

    def test_scan_from_start_key_is_inclusive(self):
        store = self.make()
        keys = populate(store, 6)
        result = store.scan(keys[2])
        assert [key for key, _ in result] == keys[2:]

    def test_scan_end_key_is_exclusive(self):
        store = self.make()
        keys = populate(store, 6)
        result = store.scan(keys[1], end_key=keys[4])
        assert [key for key, _ in result] == keys[1:4]

    def test_scan_empty_range_returns_nothing(self):
        store = self.make()
        keys = populate(store, 4)
        assert store.scan(keys[2], end_key=keys[2]) == []
        assert store.scan("zzzz") == []

    def test_scan_limit_zero_returns_nothing(self):
        store = self.make()
        populate(store, 4)
        assert store.scan("key-0000", limit=0) == []

    def test_scan_limit_caps_results(self):
        store = self.make()
        keys = populate(store, 8)
        result = store.scan(keys[0], limit=3)
        assert [key for key, _ in result] == keys[:3]

    def test_scan_unbounded_end_reaches_last_key(self):
        store = self.make()
        keys = populate(store, 5)
        result = store.scan(keys[0], end_key=None)
        assert [key for key, _ in result] == keys

    def test_scan_skips_deleted_records(self):
        store = self.make()
        keys = populate(store, 5)
        store.delete(keys[2])
        result = store.scan(keys[0])
        assert keys[2] not in [key for key, _ in result]
        assert len(result) == 4

    def test_scan_start_before_first_key(self):
        store = self.make()
        keys = populate(store, 3)
        result = store.scan("")
        assert [key for key, _ in result] == keys

    # -- write_batch ---------------------------------------------------------

    def test_write_batch_equals_the_same_put_delete_sequence(self):
        batched, stepped = self.make(), self.make()
        populate(batched, 4)
        populate(stepped, 4)
        batched.write_batch(MIXED_BATCH)
        step_writes(stepped, MIXED_BATCH)
        assert list(batched.items()) == list(stepped.items())
        assert dict(batched.items()) == {
            "alpha": b"3",
            "bravo": b"5",
            "key-0000": b"value-0",
            "key-0002": b"rewritten",
            "key-0003": b"value-3",
        }
        self.check_survives_restart(batched)

    def test_write_batch_is_ordered_and_last_write_wins(self):
        store = self.make()
        store.write_batch([("k", b"1"), ("k", b"2"), ("k", b"3")])
        assert store.get("k") == b"3"
        assert len(store) == 1
        store.write_batch([("k", b"4"), ("k", None)])
        assert store.get("k") is None
        store.write_batch([("k", None), ("k", b"5")])
        assert store.get("k") == b"5"
        self.check_survives_restart(store)

    def test_write_batch_deletes_existing_and_missing_keys(self):
        store = self.make()
        keys = populate(store, 4)
        store.write_batch([(keys[1], None), ("ghost", None), (keys[3], None)])
        assert store.keys() == [keys[0], keys[2]]
        self.check_survives_restart(store)

    def test_write_batch_takes_any_iterable_and_an_empty_one(self):
        store = self.make()
        store.write_batch(iter(()))
        assert len(store) == 0
        store.write_batch((f"key-{index:04d}", b"x" * 16) for index in range(64))
        assert len(store) == 64
        assert store.get("key-0063") == b"x" * 16
        self.check_survives_restart(store)
