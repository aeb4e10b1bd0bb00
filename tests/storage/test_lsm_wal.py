"""The LSM store's write path: binary WAL, group commit, crash recovery.

What the log promises is small and is what these tests pin: every record of
a returned call has been handed to the OS, a crash (the file cut anywhere)
recovers to the state after some prefix of the write sequence and never to
part of a record, damage before the tail fails loudly, and batching changes
how often the log is written — never what the store holds or when it flushes.
"""

from __future__ import annotations

import itertools
import shutil
from pathlib import Path
from typing import List, Optional, Tuple

import pytest
from kv_suite import apply_writes as apply, step_writes as step

from repro.common.errors import StorageError
from repro.obs import Observability
from repro.storage import sstable
from repro.storage.lsm import LSMConfig, LSMStore

Write = Tuple[str, Optional[bytes]]

#: Never flushes on its own: everything written stays in the log.
NO_FLUSH = LSMConfig(memtable_flush_bytes=10**9)
#: Flushes every few records and compacts every third table.
SMALL = LSMConfig(memtable_flush_bytes=256, max_sstables_before_compaction=2)


@pytest.fixture
def open_store():
    """``LSMStore(directory, config)``; whatever is still open is closed (its
    log handle with it) when the test ends."""
    opened: List[LSMStore] = []

    def open_one(directory: Path, config: LSMConfig = NO_FLUSH, **kwargs) -> LSMStore:
        opened.append(LSMStore(directory=directory, config=config, **kwargs))
        return opened[-1]

    yield open_one
    for store in opened:
        store.close()


def write_sequence(count: int) -> List[Write]:
    """Overwrites and deletes over a few dozen keys, values of mixed length."""
    writes: List[Write] = []
    for index in range(count):
        key = f"key-{(index * 7) % 23:02d}"
        if index % 5 == 4:
            writes.append((key, None))
        else:
            writes.append((key, bytes([index % 251]) * (8 + index % 40)))
    return writes


def copy_with_log(source: Path, destination: Path, log: bytes) -> Path:
    """A copy of a store directory whose ``wal.log`` holds ``log``."""
    shutil.copytree(source, destination)
    (destination / "wal.log").write_bytes(log)
    return destination


class TestCrashRecovery:
    FIRST: List[Write] = [("alpha", b"1"), ("bravo", b"22"), ("charlie", b"333")]
    LAST: List[Write] = [
        ("alpha", b"new"),
        ("bravo", None),
        ("delta", b"\x00" * 20),
        ("alpha", b""),
        ("echo", b"5"),
    ]

    def test_log_cut_anywhere_in_the_last_batch_recovers_a_prefix(self, tmp_path, open_store):
        store = open_store(tmp_path / "db")
        store.put("flushed", b"in a table")
        store.flush()
        store.write_batch(self.FIRST)
        before = (tmp_path / "db" / "wal.log").stat().st_size
        store.write_batch(self.LAST)
        log = (tmp_path / "db" / "wal.log").read_bytes()

        base = apply({"flushed": b"in a table"}, self.FIRST)
        prefixes = [apply(base, self.LAST[:count]) for count in range(len(self.LAST) + 1)]
        recovered_counts = []
        for cut in range(before, len(log) + 1):
            directory = copy_with_log(tmp_path / "db", tmp_path / f"cut-{cut}", log[:cut])
            reopened = open_store(directory)
            state = dict(reopened.items())
            assert state in prefixes, f"cut at byte {cut}: not a prefix of the sequence"
            recovered_counts.append(prefixes.index(state))
            # The torn tail is gone from the file, so the log stays appendable.
            assert (directory / "wal.log").stat().st_size <= cut
            reopened.put("after", b"crash")
            again = open_store(directory)
            assert dict(again.items()) == {**state, "after": b"crash"}
        # More of the log never recovers less; nothing of the batch survives a
        # cut at its first byte, all of it survives the whole log.
        assert recovered_counts == sorted(recovered_counts)
        assert recovered_counts[0] == 0
        assert recovered_counts[-1] == len(self.LAST)
        assert set(recovered_counts) == set(range(len(self.LAST) + 1))

    def test_flipped_byte_before_the_tail_raises(self, tmp_path, open_store):
        store = open_store(tmp_path / "db")
        ends = []
        for key, value in self.FIRST + [("tail", b"last record")]:
            store.put(key, value)
            ends.append((tmp_path / "db" / "wal.log").stat().st_size)
        log = (tmp_path / "db" / "wal.log").read_bytes()
        start, end = ends[0], ends[1]  # the second record: mid-log
        for offset in range(start, end):
            damaged = bytearray(log)
            damaged[offset] ^= 0xFF
            directory = copy_with_log(
                tmp_path / "db", tmp_path / f"flip-{offset}", bytes(damaged)
            )
            # Every byte is covered — the op, both lengths, both checksums,
            # the key and the value: a damaged length fails the header's own
            # checksum instead of passing for a torn tail, which would cut
            # off every valid record after it.
            with pytest.raises(StorageError, match="fails its checksum"):
                open_store(directory)

    def test_non_bytes_value_ends_a_batch_after_logging_what_preceded_it(self, tmp_path, open_store):
        store = open_store(tmp_path / "db")
        with pytest.raises(StorageError):
            store.write_batch([("alpha", b"1"), ("bravo", "text"), ("charlie", b"3")])
        assert dict(store.items()) == {"alpha": b"1"}
        reopened = open_store(tmp_path / "db")
        assert dict(reopened.items()) == {"alpha": b"1"}


class TestGroupCommit:
    def test_batched_and_stepped_runs_leave_identical_files(self, tmp_path, open_store):
        writes = write_sequence(400)
        batched = open_store(tmp_path / "batched", SMALL)
        stepped = open_store(tmp_path / "stepped", SMALL)
        for start in range(0, len(writes), 37):
            batched.write_batch(writes[start : start + 37])
        step(stepped, writes)

        assert batched.flushes == stepped.flushes > 10
        assert batched.compactions == stepped.compactions > 3
        assert list(batched.items()) == list(stepped.items())

        def files(directory: Path) -> List[bytes]:
            # A table's first 8 bytes (and its file name) are its process-wide
            # sequence number, which the two stores draw from one counter.
            tables = sorted(directory.glob("sstable-*.sst"))
            return [path.read_bytes()[8:] for path in tables] + [
                (directory / "wal.log").read_bytes()
            ]

        assert files(tmp_path / "batched") == files(tmp_path / "stepped")
        assert len(files(tmp_path / "batched")[-1]) > 0

    def test_a_flush_inside_a_batch_drops_the_records_it_persisted(self, tmp_path, open_store):
        store = open_store(tmp_path / "db", SMALL)
        obs = store.obs = Observability()
        writes = write_sequence(60)
        store.write_batch(writes)
        assert store.flushes > 0
        # Only the records after the last flush reach the log, in one append.
        log = (tmp_path / "db" / "wal.log").read_bytes()
        assert log
        assert obs.counter("lsm_wal_appends_total").value == 1
        assert obs.counter("lsm_wal_bytes_total").value == len(log)
        assert obs.histogram("lsm_wal_append_seconds").count == 1
        reopened = open_store(tmp_path / "db", SMALL)
        assert dict(reopened.items()) == apply({}, writes)


class TestLogHandle:
    @pytest.fixture
    def opens(self, monkeypatch):
        """Every append handle opened on a ``wal.log`` while the test runs."""
        handles = []
        real_open = Path.open

        def counting_open(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            if path.name == "wal.log" and "a" in mode:
                handles.append(handle)
            return handle

        monkeypatch.setattr(Path, "open", counting_open)
        return handles

    def test_log_is_opened_once_per_flush_interval(self, tmp_path, open_store, opens):
        store = open_store(tmp_path / "db", SMALL)
        writes = write_sequence(200)
        step(store, writes[:100])
        for start in range(100, 200, 10):
            store.write_batch(writes[start : start + 10])
        assert store.flushes > 5
        assert 1 <= len(opens) <= store.flushes + 1
        assert sum(not handle.closed for handle in opens) <= 1

        quiet = open_store(tmp_path / "quiet")
        del opens[:]
        step(quiet, writes)
        quiet.write_batch(writes)
        assert len(opens) == 1

    def test_close_leaves_no_open_handle_and_reopen_logs_again(self, tmp_path, open_store, opens):
        store = open_store(tmp_path / "db", exclusive=True)
        store.put("alpha", b"1")
        assert [handle.closed for handle in opens] == [False]
        store.close()
        assert [handle.closed for handle in opens] == [True]
        # The next opener owns the directory, log included ...
        other = open_store(tmp_path / "db", exclusive=True)
        other.put("bravo", b"2")
        other.close()
        assert all(handle.closed for handle in opens)
        # ... and the first store, reopened, sees its writes and logs its own.
        store.reopen()
        store.put("charlie", b"3")
        assert len(opens) == 3 and not opens[-1].closed
        restarted = open_store(tmp_path / "db")
        assert dict(restarted.items()) == {"alpha": b"1", "bravo": b"2", "charlie": b"3"}
        store.close()
        assert all(handle.closed for handle in opens)


class TestTableOrder:
    def test_tables_written_by_another_process_stay_older(self, tmp_path, open_store, monkeypatch):
        store = open_store(tmp_path / "db")
        for index in range(3):
            store.put("key", b"old-%d" % index)
            store.flush()
        store.close()
        # A fresh process numbers its tables from zero again.
        monkeypatch.setattr(sstable, "_sstable_ids", itertools.count())
        reopened = open_store(tmp_path / "db")
        reopened.put("key", b"new")
        reopened.flush()
        sequences = [table.sequence for table in reopened.sstables]
        assert sequences == sorted(set(sequences))
        assert reopened.get("key") == b"new"
        reopened.compact()
        assert reopened.get("key") == b"new"
