"""The GRuB authenticated KV store maintained by the storage provider.

The storage provider keeps the primary copy of every record in its KV store,
under a key prefixed with the record's replication state, and maintains a
Merkle tree over the records.  The data owner mirrors the layout (it is
trusted and produces every update), so it can verify the SP's proofs against
its own root hash before publishing a new signed root.

Three flows are implemented here:

* **update** (write path, step w1) — the DO asks the SP for an update witness
  (the proof of the record's current leaf), verifies it, applies the update
  locally and recomputes the new root.
* **query** (read path, step r2) — the SP produces the matching records plus a
  proof for the storage-manager contract to verify (step r3).
* **state transition** — when the control plane flips a record's replication
  state the record's leaf hash changes (the R/NR prefix is part of the
  authenticated payload), which changes the root.

Deviation from the paper's physical layout: the paper
physically orders leaves by (replication-state group, key) and relocates a
record between groups on a state transition.  This implementation keeps a
*stable physical slot* per record and authenticates the replication state
inside the leaf hash instead, so a state transition is a single O(log n) leaf
update rather than a delete + insert.  The security argument is unchanged
(the state bit is still bound to the record under the signed root) and the
proof sizes — which are what the gas accounting depends on — are identical
(⌈log2 n⌉ sibling digests).  The logical key-sorted view used for range
queries is maintained separately.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ads.merkle import (
    MerkleProof,
    MerkleTree,
    MultiProof,
    expected_proof_length,
    verify_membership,
)
from repro.common.errors import IntegrityError, StorageError
from repro.common.hashing import hash_record, keccak
from repro.common.types import KVRecord, ReplicationState
from repro.storage.kvstore import InMemoryKVStore, KVStore

#: Leaf hash stored in slots whose record has been deleted.  Distinct from any
#: real record hash because record hashes are length-prefixed field hashes.
TOMBSTONE_LEAF = keccak(b"grub-tombstone-leaf")


@dataclass(frozen=True)
class QueryResult:
    """What the SP returns for a gGet on a non-replicated record.

    Contains the matching record (or ``None`` for a miss), its Merkle proof,
    and the root the proof was generated against (the contract ignores the
    claimed root and verifies against its own stored digest).
    """

    key: str
    record: Optional[KVRecord]
    proof: Optional[MerkleProof]
    root: bytes

    @property
    def proof_words(self) -> int:
        return self.proof.size_words if self.proof is not None else 0

    @property
    def payload_words(self) -> int:
        record_words = self.record.size_words if self.record is not None else 0
        return record_words + self.proof_words


@dataclass(frozen=True)
class BatchQueryResult:
    """What the SP returns for an epoch's gGets on one feed: every requested
    record that exists with the leaf it sits at, and one proof for all of
    those leaves together (a key asked for twice is still one leaf)."""

    #: key → ``(record, leaf index)``; a key the store does not hold is absent.
    found: Dict[str, Tuple[KVRecord, int]]
    proof: MultiProof


@dataclass(frozen=True)
class UpdateWitness:
    """Proof material the SP hands the DO before an update (write path w1)."""

    key: str
    existing: Optional[KVRecord]
    proof: Optional[MerkleProof]
    leaf_index: Optional[int]
    root: bytes


@dataclass(frozen=True)
class StoreBaseline:
    """What a store held at one moment (:meth:`AuthenticatedKVStore.baseline`),
    kept by whoever will later ask for everything that changed since."""

    records: Mapping[str, KVRecord]
    slot_of: Mapping[str, int]


#: The baseline of a store that never held anything: the delta against it is
#: the whole store.
EMPTY_BASELINE = StoreBaseline(records={}, slot_of={})


@dataclass(frozen=True)
class StoreDelta:
    """A store's divergence from a :class:`StoreBaseline`, as plain data: what
    :meth:`AuthenticatedKVStore.apply_delta` needs to bring a mirror standing
    at that baseline to the exporter's state — same root, same slot layout,
    same proofs — without hashing anything."""

    #: The baseline held no record: this is the whole store, and a mirror
    #: that holds anything is emptied before applying.
    from_empty: bool
    #: ``(key, value, state, version, slot, leaf)`` of every record that is
    #: new, rewritten or sitting in another slot than at the baseline.
    changed: List[Tuple[str, bytes, ReplicationState, int, int, bytes]]
    #: Baseline keys the store no longer holds.
    deleted: List[str]
    slot_count: int
    #: The free-slot stack, bottom first (the next insert pops the last).
    free_slots: List[int]
    #: :meth:`MerkleTree.interior` of the exporter's tree.
    interior: bytes


@dataclass
class AuthenticatedKVStore:
    """The SP-side store: primary KV copy plus the Merkle tree over it.

    The class is also reused by the DO as its trusted local mirror (the DO
    needs the same layout to recompute roots); the two instances stay in sync
    because every update flows through the DO.
    """

    backing: KVStore = field(default_factory=InMemoryKVStore)
    _records: Dict[str, KVRecord] = field(default_factory=dict)
    _slot_of: Dict[str, int] = field(default_factory=dict)
    _slots: List[Optional[str]] = field(default_factory=list)
    _free_slots: List[int] = field(default_factory=list)
    _sorted_keys: List[str] = field(default_factory=list)
    _tree: MerkleTree = field(default_factory=lambda: MerkleTree([]))
    #: Keys currently in the R state, maintained incrementally so the per-epoch
    #: control-plane run is O(replicated) instead of an O(n) scan of the store.
    _replicated_keys: set = field(default_factory=set)

    # -- bulk loading -------------------------------------------------------

    def load(self, records: Sequence[KVRecord]) -> bytes:
        """Replace the store's contents with ``records`` and return the new root."""
        self._records = {record.key: record for record in records}
        self._sorted_keys = sorted(self._records)
        self._slots = [record.key for record in records]
        self._slot_of = {record.key: index for index, record in enumerate(records)}
        self._free_slots = []
        self._replicated_keys = {
            record.key
            for record in records
            if record.state is ReplicationState.REPLICATED
        }
        self.backing.write_batch(
            [(record.prefixed_key, record.value) for record in records]
        )
        self._tree = MerkleTree([self._leaf_hash(record) for record in records])
        return self.root

    # -- lookups ------------------------------------------------------------

    @property
    def root(self) -> bytes:
        return self._tree.root

    def __len__(self) -> int:
        return len(self._records)

    def get_record(self, key: str) -> Optional[KVRecord]:
        return self._records.get(key)

    def records(self) -> List[KVRecord]:
        """All records sorted by data key."""
        return [self._records[key] for key in self._sorted_keys]

    def replicated_records(self) -> List[KVRecord]:
        """Records in the R state, key-sorted; O(replicated), not O(n)."""
        return [self._records[key] for key in sorted(self._replicated_keys)]

    def replicated_keys(self) -> List[str]:
        """Key-sorted keys currently in the R state (no record objects built)."""
        return sorted(self._replicated_keys)

    def keys(self) -> List[str]:
        return list(self._sorted_keys)

    def select_keys(self, start_key: str, count: int) -> List[str]:
        """Up to ``count`` consecutive keys starting at ``start_key``.

        A bisect into the maintained sorted-key view — scan drivers previously
        copied the entire key list per scan operation to do this.
        """
        start = bisect.bisect_left(self._sorted_keys, start_key)
        return self._sorted_keys[start : start + count]

    def proof_length(self) -> int:
        """Current proof length in digests (grows with the dataset size)."""
        return expected_proof_length(max(1, len(self._slots)))

    # -- write path (DO <-> SP) ------------------------------------------------

    def update_witness(self, key: str) -> UpdateWitness:
        """Produce the witness the DO verifies before applying an update (w1)."""
        record = self._records.get(key)
        if record is None:
            return UpdateWitness(
                key=key, existing=None, proof=None, leaf_index=None, root=self.root
            )
        index = self._slot_of[key]
        return UpdateWitness(
            key=key,
            existing=record,
            proof=self._tree.prove(index),
            leaf_index=index,
            root=self.root,
        )

    def verify_witness(self, witness: UpdateWitness, trusted_root: bytes) -> None:
        """DO-side check of an update witness against the DO's trusted root."""
        if witness.existing is None:
            # Nothing to verify for a fresh insert; the DO knows its own root.
            return
        if witness.proof is None:
            raise IntegrityError(f"witness for {witness.key!r} is missing its proof")
        leaf = self._leaf_hash(witness.existing)
        if not verify_membership(trusted_root, leaf, witness.proof):
            raise IntegrityError(
                f"update witness for key {witness.key!r} does not verify against the trusted root"
            )

    def apply_update(
        self,
        key: str,
        value: bytes,
        state: Optional[ReplicationState] = None,
    ) -> bytes:
        """Insert or update ``key`` (optionally moving it to ``state``) and return the new root."""
        existing = self._records.get(key)
        if existing is None:
            new_state = state or ReplicationState.NOT_REPLICATED
            record = KVRecord(key=key, value=value, state=new_state, version=0)
            self.backing.put(record.prefixed_key, record.value)
            self._insert_record(record)
        else:
            new_state = state or existing.state
            record = KVRecord(
                key=key, value=value, state=new_state, version=existing.version + 1
            )
            self._replace_record(existing, record)
        return self.root

    def apply_updates(
        self,
        updates: Sequence[Tuple[str, Optional[bytes], Optional[ReplicationState]]],
    ) -> bytes:
        """Apply a batch of ``(key, value, state)`` updates in one tree pass.

        Equivalent to calling :meth:`apply_update` per tuple in order — a
        ``value`` of ``None`` is a state-only transition: the record keeps its
        value and version and only moves to ``state`` — but leaf
        replacements are staged and their root paths recomputed once via
        :meth:`MerkleTree.recompute_paths`: a feed's epoch write batch
        typically clusters under shared subtrees, so the shared interior
        hashes are computed once per batch.  Fresh inserts take the normal
        incremental path (leaf storage stays current throughout, so the mix
        is safe).  The backing store gets the batch's writes, in the same
        order, as one :meth:`KVStore.write_batch`.  Returns the new root.
        """
        staged: List[int] = []
        writes: List[Tuple[str, Optional[bytes]]] = []
        for key, value, state in updates:
            existing = self._records.get(key)
            if value is None:
                if existing is None:
                    raise StorageError(f"cannot change state of unknown key {key!r}")
                if existing.state is state:
                    continue
                record = existing.with_state(state)
            elif existing is None:
                new_state = state or ReplicationState.NOT_REPLICATED
                record = KVRecord(key=key, value=value, state=new_state, version=0)
                writes.append((record.prefixed_key, record.value))
                self._insert_record(record)
                continue
            else:
                record = KVRecord(
                    key=key,
                    value=value,
                    state=state or existing.state,
                    version=existing.version + 1,
                )
            slot = self._slot_of[key]
            self._records[key] = record
            if record.state is ReplicationState.REPLICATED:
                self._replicated_keys.add(key)
            else:
                self._replicated_keys.discard(key)
            if existing.prefixed_key != record.prefixed_key:
                writes.append((existing.prefixed_key, None))
            writes.append((record.prefixed_key, record.value))
            self._tree.stage_leaf(slot, self._leaf_hash(record))
            staged.append(slot)
        self.backing.write_batch(writes)
        self._tree.recompute_paths(staged)
        return self.root

    def apply_state_transition(self, key: str, new_state: ReplicationState) -> bytes:
        """Re-authenticate ``key`` under ``new_state`` and return the new root."""
        return self.apply_updates([(key, None, new_state)])

    def delete(self, key: str) -> bytes:
        """Remove ``key`` entirely and return the new root."""
        existing = self._records.get(key)
        if existing is None:
            return self.root
        slot = self._slot_of.pop(key)
        self._slots[slot] = None
        self._free_slots.append(slot)
        del self._records[key]
        self._replicated_keys.discard(key)
        index = bisect.bisect_left(self._sorted_keys, key)
        if index < len(self._sorted_keys) and self._sorted_keys[index] == key:
            self._sorted_keys.pop(index)
        self.backing.delete(existing.prefixed_key)
        self._tree.update_leaf(slot, TOMBSTONE_LEAF)
        return self.root

    # -- read path (SP -> chain) ---------------------------------------------------

    def query(self, key: str) -> QueryResult:
        """Produce the record + proof for a gGet on a (typically NR) record."""
        record = self._records.get(key)
        if record is None:
            return QueryResult(key=key, record=None, proof=None, root=self.root)
        index = self._slot_of[key]
        return QueryResult(
            key=key, record=record, proof=self._tree.prove(index), root=self.root
        )

    def query_many(self, keys: Sequence[str]) -> BatchQueryResult:
        """Look up several keys and prove every one found with one multiproof.

        Used by the SP when answering an epoch's deliver batch: the records'
        leaves are authenticated together by :meth:`MerkleTree.prove_many`
        against the current root, instead of one root path per request.
        """
        records = self._records
        slot_of = self._slot_of
        found = {key: (records[key], slot_of[key]) for key in keys if key in records}
        return BatchQueryResult(
            found=found,
            proof=self._tree.prove_many([slot for _, slot in found.values()]),
        )

    def query_range(self, start_key: str, end_key: str) -> List[QueryResult]:
        """Per-record proofs for every NR record with key in ``[start_key, end_key]``."""
        start = bisect.bisect_left(self._sorted_keys, start_key)
        results: List[QueryResult] = []
        for key in self._sorted_keys[start:]:
            if key > end_key:
                break
            record = self._records[key]
            if record.state is not ReplicationState.NOT_REPLICATED:
                continue
            results.append(self.query(key))
        return results

    def scan(self, start_key: str, count: int) -> List[QueryResult]:
        """Proofs for ``count`` consecutive keys starting at ``start_key`` (YCSB E)."""
        start = bisect.bisect_left(self._sorted_keys, start_key)
        results: List[QueryResult] = []
        for key in self._sorted_keys[start : start + count]:
            results.append(self.query(key))
        return results

    # -- changing interpreter (one layout, known only here) -------------------------

    def baseline(self) -> StoreBaseline:
        """Mark the current contents as what a later :meth:`export_delta` is
        measured against (records are immutable, so this copies two dicts)."""
        return StoreBaseline(dict(self._records), dict(self._slot_of))

    def export_delta(self, baseline: StoreBaseline = EMPTY_BASELINE) -> StoreDelta:
        """Everything that diverged from ``baseline`` — the whole store against
        :data:`EMPTY_BASELINE`, next to nothing for a store barely touched."""
        records = self._records
        base_records = baseline.records
        base_slot_of = baseline.slot_of
        leaf = self._tree.leaf
        changed = []
        for key, slot in self._slot_of.items():
            record = records[key]
            if base_records.get(key) is not record or base_slot_of[key] != slot:
                changed.append(
                    (key, record.value, record.state, record.version, slot, leaf(slot))
                )
        return StoreDelta(
            from_empty=not base_records,
            changed=changed,
            deleted=[key for key in base_records if key not in records],
            slot_count=len(self._slots),
            free_slots=list(self._free_slots),
            interior=self._tree.interior(),
        )

    def apply_delta(self, delta: StoreDelta) -> bytes:
        """Bring this store — a mirror standing at the delta's baseline — to
        the exporter's state and return the new root.

        Reproduced exactly: records by key, slot layout, free-slot stack,
        leaves and interior levels (hence every proof), the sorted and
        replicated views, and the backing's contents, written as one batch.
        The records' dict order is not part of that state.
        """
        if delta.from_empty and self._slots:
            self.backing.write_batch(
                [(record.prefixed_key, None) for record in self._records.values()]
            )
            self.load([])
        records, slot_of, slots = self._records, self._slot_of, self._slots
        leaves = self._tree.leaves()
        writes: List[Tuple[str, Optional[bytes]]] = []
        # Vacate first — deleted keys, and changed ones that moved — so a
        # record that took over a vacated slot is not wiped after it lands.
        moved = [
            key for key, _, _, _, slot, _ in delta.changed if slot_of.get(key, slot) != slot
        ]
        for key in delta.deleted:
            writes.append((records.pop(key).prefixed_key, None))
            self._replicated_keys.discard(key)
        for key in delta.deleted + moved:
            slot = slot_of.pop(key)
            slots[slot] = None
            leaves[slot] = TOMBSTONE_LEAF
        # A slot past the mirror's end that no record lands in was filled and
        # freed again since the baseline.
        grow = delta.slot_count - len(slots)
        slots.extend([None] * grow)
        leaves.extend([TOMBSTONE_LEAF] * grow)
        del slots[delta.slot_count :], leaves[delta.slot_count :]
        membership_changed = bool(delta.deleted)
        for key, value, state, version, slot, leaf in delta.changed:
            record = KVRecord(key=key, value=value, state=state, version=version)
            old = records.get(key)
            if old is None:
                membership_changed = True
            elif old.prefixed_key != record.prefixed_key:
                writes.append((old.prefixed_key, None))
            writes.append((record.prefixed_key, value))
            records[key] = record
            slot_of[key] = slot
            slots[slot] = key
            leaves[slot] = leaf
            if state is ReplicationState.REPLICATED:
                self._replicated_keys.add(key)
            else:
                self._replicated_keys.discard(key)
        self._tree = MerkleTree.from_levels(leaves, delta.interior)
        self._free_slots = list(delta.free_slots)
        if membership_changed:
            self._sorted_keys = sorted(records)
        self.backing.write_batch(writes)
        return self.root

    @staticmethod
    def leaf_hash_for(record: KVRecord) -> bytes:
        """The leaf-hash convention shared with the on-chain verifier."""
        return hash_record(record.key, record.value, record.state.prefix)

    # -- internal layout maintenance -------------------------------------------------

    def _leaf_hash(self, record: KVRecord) -> bytes:
        return self.leaf_hash_for(record)

    def _insert_record(self, record: KVRecord) -> None:
        """Give a new record its slot and leaf (the caller writes the backing)."""
        bisect.insort(self._sorted_keys, record.key)
        self._records[record.key] = record
        if record.state is ReplicationState.REPLICATED:
            self._replicated_keys.add(record.key)
        if self._free_slots:
            slot = self._free_slots.pop()
            self._slots[slot] = record.key
            self._tree.update_leaf(slot, self._leaf_hash(record))
        else:
            slot = len(self._slots)
            self._slots.append(record.key)
            self._tree.append_leaf(self._leaf_hash(record))
        self._slot_of[record.key] = slot

    def _replace_record(self, old: KVRecord, new: KVRecord) -> None:
        slot = self._slot_of[old.key]
        self._records[new.key] = new
        if new.state is ReplicationState.REPLICATED:
            self._replicated_keys.add(new.key)
        else:
            self._replicated_keys.discard(new.key)
        if old.prefixed_key != new.prefixed_key:
            self.backing.delete(old.prefixed_key)
        self.backing.put(new.prefixed_key, new.value)
        self._tree.update_leaf(slot, self._leaf_hash(new))
