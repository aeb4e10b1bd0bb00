"""The LSM-tree key-value store (LevelDB stand-in).

Writes land in a memtable (optionally mirrored into a write-ahead log);
when the memtable exceeds a threshold it is frozen into an immutable SSTable.
Reads consult the memtable first, then SSTables newest-to-oldest.  When the
number of tables exceeds a threshold a compaction merges them, discarding
shadowed versions and — on major compactions — tombstones.

The store can run purely in memory (``directory=None``) or persist its tables
and WAL under a directory so it can be reopened, which is what the storage
provider in the paper would use LevelDB for.  What the log guarantees: every
record of a ``put``, ``delete`` or ``write_batch`` call has been handed to the
OS before the call returns (no ``fsync``), and reopening the directory yields
the state after a prefix of the write sequence.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import StorageError
from repro.storage.kvstore import KVStore
from repro.storage.memtable import TOMBSTONE, MemTable
from repro.storage.sstable import SSTable, merge_tables

#: One WAL record is ``op, key length, value length, header CRC32, body
#: CRC32, key, value``: the three fixed fields, the checksum of those fields,
#: then the checksum of the key and value bytes that follow.  A delete carries
#: an empty value.  The header's own checksum tells a damaged length (which
#: could point past the end of the file) from a torn tail.
_WAL_FIELDS = struct.Struct(">BII")
_WAL_CRCS = struct.Struct(">II")
_WAL_HEADER_SIZE = _WAL_FIELDS.size + _WAL_CRCS.size
_WAL_PUT = 0
_WAL_DELETE = 1


def _wal_record(key: str, value: Optional[bytes]) -> bytes:
    """Encode one write (``value=None`` is a delete) as a WAL record."""
    key_bytes = key.encode("utf-8")
    if value is None:
        fields = _WAL_FIELDS.pack(_WAL_DELETE, len(key_bytes), 0)
        body = key_bytes
    else:
        fields = _WAL_FIELDS.pack(_WAL_PUT, len(key_bytes), len(value))
        body = key_bytes + value
    return fields + _WAL_CRCS.pack(zlib.crc32(fields), zlib.crc32(body)) + body


@dataclass(frozen=True)
class LSMConfig:
    """Tuning knobs of the LSM store."""

    memtable_flush_bytes: int = 64 * 1024
    max_sstables_before_compaction: int = 4
    write_ahead_log: bool = True


class LSMStore(KVStore):
    """A log-structured merge-tree store with the :class:`KVStore` interface."""

    #: Optional :class:`repro.obs.Observability` hook (set by the hosting
    #: runtime).  Observation-only: flush/compaction decisions depend solely
    #: on memtable size and table count, never on anything recorded here.
    obs = None

    def __init__(
        self,
        directory: Optional[Path] = None,
        config: Optional[LSMConfig] = None,
        *,
        exclusive: bool = False,
    ) -> None:
        self.config = config or LSMConfig()
        self.directory = Path(directory) if directory is not None else None
        #: Single-opener enforcement: an exclusive store holds a ``LOCK`` file
        #: (containing its PID) in the directory for as long as it is open.  A
        #: second exclusive opener fails loudly instead of interleaving WALs;
        #: a lock whose holder is dead is stolen (crash recovery).  The feed
        #: gateway opens every feed store exclusively, which is what makes
        #: cross-process feed migration safe: the source lane must ``close()``
        #: before the destination lane may open the same directory.
        self.exclusive = exclusive
        #: A closed store rejects mutations until :meth:`reopen`.
        self.closed = False
        self.memtable = MemTable()
        self.sstables: List[SSTable] = []
        self.flushes = 0
        self.compactions = 0
        self._wal_path = (
            self.directory / "wal.log" if self.directory is not None else None
        )
        #: Append handle on ``wal.log``: opened by the first logged write after
        #: an open, flush or :meth:`reopen`, held until the next flush or
        #: :meth:`close` (a closed store holds no handle, so the next opener of
        #: the directory owns the log alone).
        self._wal = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._acquire_lock()
            self._recover()

    # -- KVStore interface ----------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        found, value = self.memtable.get(key)
        if found:
            return value
        for table in reversed(self.sstables):
            found, value = table.get(key)
            if found:
                return value
        return None

    def put(self, key: str, value: bytes) -> None:
        if not isinstance(value, bytes):
            raise StorageError(f"values must be bytes, got {type(value).__name__}")
        self._check_open()
        self._log_wal(key, value)
        self.memtable.put(key, value)
        self._maybe_flush()

    def delete(self, key: str) -> bool:
        self._check_open()
        existed = self.get(key) is not None
        self._log_wal(key, None)
        self.memtable.delete(key)
        self._maybe_flush()
        return existed

    def write_batch(self, items: Iterable[Tuple[str, Optional[bytes]]]) -> None:
        """Group commit: the batch's WAL records go to the log in one write.

        Records reach the memtable one by one, with the flush check after
        each, exactly as the same :meth:`put`/:meth:`delete` sequence would —
        so tables, flush and compaction points are those of the sequence.  A
        flush inside the batch persists every record before it and truncates
        the log, so the writes it persisted are dropped from the pending list
        before they are ever encoded: a WAL record is built only for a write
        still pending when the batch ends.  Those are appended before the
        call returns, also when a bad value ends the batch early.
        """
        self._check_open()
        logged = self._wal_path is not None and self.config.write_ahead_log
        pending: List[Tuple[str, Optional[bytes]]] = []
        try:
            for key, value in items:
                if value is None:
                    self.memtable.delete(key)
                elif isinstance(value, bytes):
                    self.memtable.put(key, value)
                else:
                    raise StorageError(
                        f"values must be bytes, got {type(value).__name__}"
                    )
                if logged:
                    pending.append((key, value))
                self._maybe_flush()
                if self.memtable.is_empty:
                    # Flushed: every record so far is in a table.
                    pending.clear()
        finally:
            if pending:
                self._append_wal(
                    b"".join([_wal_record(key, value) for key, value in pending])
                )

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
        merged: dict = {}
        for table in self.sstables:
            for key, value in table.items():
                merged[key] = value
        for key, value in self.memtable.items():
            merged[key] = None if value is TOMBSTONE else value
        for key in sorted(merged):
            value = merged[key]
            if value is not None:
                yield key, value

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    # -- LSM mechanics ----------------------------------------------------------

    def flush(self) -> Optional[SSTable]:
        """Freeze the current memtable into a new SSTable (no-op when empty)."""
        if self.memtable.is_empty:
            return None
        obs = self.obs
        started = obs.tracer.clock() if obs is not None else 0.0
        table = SSTable.from_memtable_items(self.memtable.items(), TOMBSTONE)
        self.sstables.append(table)
        self.memtable = MemTable()
        self.flushes += 1
        if self.directory is not None:
            table.write_to(self.directory / f"sstable-{table.sequence:08d}.sst")
            self._truncate_wal()
        if obs is not None:
            obs.counter("lsm_flushes_total").inc()
            obs.histogram("lsm_flush_seconds").observe(obs.tracer.clock() - started)
        self._maybe_compact()
        return table

    def compact(self) -> SSTable:
        """Merge every SSTable into one (a major compaction)."""
        if not self.sstables:
            raise StorageError("nothing to compact")
        obs = self.obs
        started = obs.tracer.clock() if obs is not None else 0.0
        merged = merge_tables(self.sstables, drop_tombstones=True)
        if self.directory is not None:
            for table in self.sstables:
                candidate = self.directory / f"sstable-{table.sequence:08d}.sst"
                if candidate.exists():
                    candidate.unlink()
            merged.write_to(self.directory / f"sstable-{merged.sequence:08d}.sst")
        self.sstables = [merged]
        self.compactions += 1
        if obs is not None:
            obs.counter("lsm_compactions_total").inc()
            obs.histogram("lsm_compact_seconds").observe(obs.tracer.clock() - started)
        return merged

    def _maybe_flush(self) -> None:
        if self.memtable.approximate_size_bytes >= self.config.memtable_flush_bytes:
            self.flush()

    def _maybe_compact(self) -> None:
        if len(self.sstables) > self.config.max_sstables_before_compaction:
            self.compact()

    # -- open/close lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Flush, persist, and release this opener's claim on the directory.

        After ``close()`` the directory can be opened by another store (in
        this process or another one); this store rejects further mutations
        until :meth:`reopen`.  Closing an already-closed store is a no-op.
        """
        if self.closed:
            return
        if not self.memtable.is_empty:
            # Persists the memtable into an SSTable and truncates the WAL, so
            # the next opener recovers from tables alone.
            self.flush()
        self._close_wal()
        self._release_lock()
        self.closed = True

    def reopen(self) -> None:
        """Re-open a closed store, re-reading the directory state from disk.

        Used by the migration protocol: the main process closes a feed's LSM
        backing while a worker lane owns the directory, then reopens it at run
        end to fold the lane's final store contents back in.
        """
        if not self.closed:
            raise StorageError("reopen() is only valid on a closed LSM store")
        if self.directory is not None:
            self._acquire_lock()
            self.memtable = MemTable()
            self.sstables = []
            self._recover()
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise StorageError(
                f"LSM store {self.directory or '<memory>'} is closed; "
                "reopen() it before mutating"
            )

    def _lock_path(self) -> Optional[Path]:
        if self.directory is None or not self.exclusive:
            return None
        return self.directory / "LOCK"

    def _acquire_lock(self) -> None:
        lock = self._lock_path()
        if lock is None:
            return
        payload = str(os.getpid()).encode("ascii")
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    holder = int(lock.read_text().strip() or "0")
                except (OSError, ValueError):
                    holder = 0
                if holder and _pid_alive(holder):
                    raise StorageError(
                        f"LSM directory {self.directory} is exclusively locked "
                        f"by pid {holder}; close() the other opener first "
                        "(a feed store has exactly one opener at a time)"
                    )
                # The holder is gone — steal the stale lock and retry.
                try:
                    lock.unlink()
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            return

    def _release_lock(self) -> None:
        lock = self._lock_path()
        if lock is None:
            return
        try:
            if int(lock.read_text().strip() or "0") == os.getpid():
                lock.unlink()
        except (OSError, ValueError):
            pass

    # -- durability --------------------------------------------------------------

    def _log_wal(self, key: str, value: Optional[bytes]) -> None:
        if self._wal_path is not None and self.config.write_ahead_log:
            self._append_wal(_wal_record(key, value))

    def _append_wal(self, data: bytes) -> None:
        """Hand ``data`` (whole records) to the OS in one unbuffered write."""
        obs = self.obs
        started = obs.tracer.clock() if obs is not None else 0.0
        if self._wal is None:
            self._wal = self._wal_path.open("ab", buffering=0)
        if self._wal.write(data) != len(data):
            raise StorageError(f"short write to {self._wal_path}")
        if obs is not None:
            obs.counter("lsm_wal_appends_total").inc()
            obs.counter("lsm_wal_bytes_total").inc(len(data))
            obs.histogram("lsm_wal_append_seconds").observe(
                obs.tracer.clock() - started
            )

    def _close_wal(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def _truncate_wal(self) -> None:
        self._close_wal()
        if self._wal_path is not None and self._wal_path.exists():
            self._wal_path.unlink()

    def _recover(self) -> None:
        """Reload SSTables and replay the WAL after reopening a directory."""
        assert self.directory is not None
        for path in self.directory.glob("sstable-*.sst"):
            self.sstables.append(SSTable.read_from(path))
        self.sstables.sort(key=lambda table: table.sequence)
        if self._wal_path is not None and self._wal_path.exists():
            self._replay_wal()

    def _replay_wal(self) -> None:
        """Apply the log's records to the memtable, in order.

        A call's records reach the file in one write, so a crash leaves a
        prefix of the log: a record whose header or body runs past the end of
        the file is a torn tail and is cut off (the records before it are the
        recovered state).  A header that is all there but fails its checksum
        is damage, not a crash, and raises — a damaged length is never read
        as a tail — and so does a body that is all there but fails its own.
        """
        data = self._wal_path.read_bytes()
        offset = 0
        while offset + _WAL_HEADER_SIZE <= len(data):
            fields = data[offset : offset + _WAL_FIELDS.size]
            header_crc, body_crc = _WAL_CRCS.unpack_from(data, offset + _WAL_FIELDS.size)
            if zlib.crc32(fields) != header_crc:
                raise StorageError(
                    f"{self._wal_path}: record header at byte {offset} fails its checksum"
                )
            op, key_len, value_len = _WAL_FIELDS.unpack(fields)
            body = offset + _WAL_HEADER_SIZE
            end = body + key_len + value_len
            if end > len(data):
                break
            if zlib.crc32(data[body:end]) != body_crc:
                raise StorageError(
                    f"{self._wal_path}: record at byte {offset} fails its checksum"
                )
            key = data[body : body + key_len].decode("utf-8")
            if op == _WAL_PUT:
                self.memtable.put(key, data[body + key_len : end])
            else:
                self.memtable.delete(key)
            offset = end
        if offset < len(data):
            os.truncate(self._wal_path, offset)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM still means alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - depends on host privileges
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False
    return True
