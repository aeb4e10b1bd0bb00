"""The GRuB authenticated KV store maintained by the storage provider.

The storage provider keeps every record, authenticated with its replication
state, and maintains a Merkle tree over the records.  A durable deployment
also writes each record to an off-chain KV store (the store's ``backing``,
an LSM tree), under a key prefixed with the record's replication state.  The
data owner is trusted and produces every update: it lays out its own mirror
the same way, so the root it computes there is the one it signs and
publishes.

Two flows run here:

* **epoch write** (write path, step w1) — the DO's buffered writes and the
  control plane's state-only transitions land as one :meth:`apply_updates`
  batch, whose root paths are recomputed in one tree pass.  A state
  transition changes the record's leaf hash (the R/NR prefix is part of the
  authenticated payload), and so the root.
* **deliver** (read path, step r2) — the SP answers one feed's epoch of gGets
  with the records and one multiproof for all of them (:meth:`query_many`),
  which the storage-manager contract verifies (step r3).

Deviation from the paper's physical layout: the paper
physically orders leaves by (replication-state group, key) and relocates a
record between groups on a state transition.  This implementation gives each
record the next *slot* when it is first written and keeps it there for good
(nothing deletes a record, so slots are append-only and never reused), and
authenticates the replication state inside the leaf hash instead, so a state
transition is a single O(log n) leaf update rather than a delete + insert.
The security argument is unchanged (the state bit is still bound to the
record under the signed root) and the proof sizes — which are what the gas
accounting depends on — are identical (⌈log2 n⌉ sibling digests).  A
key-sorted view for scans is kept beside the slots (:meth:`select_keys`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ads.merkle import MerkleProof, MerkleTree, MultiProof, changed_nodes
from repro.common.errors import StorageError
from repro.common.hashing import hash_record
from repro.common.types import KVRecord, ReplicationState
from repro.storage.kvstore import KVStore


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


@dataclass(frozen=True)
class BatchQueryResult:
    """What the SP returns for an epoch's gGets on one feed: every requested
    record that exists with the leaf it sits at, and one proof for all of
    those leaves together (a key asked for twice is still one leaf)."""

    #: key → ``(record, leaf index)``; a key the store does not hold is absent.
    found: Dict[str, Tuple[KVRecord, int]]
    proof: MultiProof


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
    #: ``(key, value, state, version, slot)`` of every record that is new,
    #: rewritten or sitting in another slot than at the baseline.
    changed: List[Tuple[str, bytes, ReplicationState, int, int]]
    #: Baseline keys the store no longer holds.
    deleted: List[str]
    slot_count: int
    #: The exporter's tree nodes that may differ from the baseline's — the
    #: changed records' leaves and the nodes above them
    #: (:func:`~repro.ads.merkle.changed_nodes`) — as one
    #: :meth:`MerkleTree.nodes` blob.  Against the empty baseline that is
    #: every node.
    nodes: bytes


@dataclass
class AuthenticatedKVStore:
    """The SP-side store: the records plus the Merkle tree over them.

    The DO holds the same object as its trusted local mirror
    (:class:`~repro.core.grub.GrubSystem` hands one store to both): every
    update flows through the DO, so there is no second copy to check against.
    A store with a ``backing`` (an LSM feed's) also writes every record to it
    under its prefixed key, in the store's own write batches; one without (a
    memory feed) holds each record once, in ``_records``.
    """

    backing: Optional[KVStore] = None
    _records: Dict[str, KVRecord] = field(default_factory=dict)
    _slot_of: Dict[str, int] = field(default_factory=dict)
    _sorted_keys: List[str] = field(default_factory=list)
    _tree: MerkleTree = field(default_factory=lambda: MerkleTree([]))
    #: Keys currently in the R state, maintained incrementally so the per-epoch
    #: control-plane run is O(replicated) instead of an O(n) scan of the store.
    _replicated_keys: set = field(default_factory=set)

    # -- bulk loading -------------------------------------------------------

    def load(self, records: Sequence[KVRecord]) -> bytes:
        """Replace the store's contents with ``records`` (slot ``i`` holds
        ``records[i]``) and return the new root.  A backing, when the store
        has one, gets the old records' deletes and the new records as one
        batch; without one, nothing is computed for it."""
        leaf_hash_for = self.leaf_hash_for
        leaves = [leaf_hash_for(record) for record in records]
        if self.backing is not None:
            writes = [(record.prefixed_key, None) for record in self._records.values()]
            writes.extend((record.prefixed_key, record.value) for record in records)
            self.backing.write_batch(writes)
        self._records = {record.key: record for record in records}
        self._sorted_keys = sorted(self._records)
        self._slot_of = {record.key: index for index, record in enumerate(records)}
        self._replicated_keys = {
            record.key
            for record in records
            if record.state is ReplicationState.REPLICATED
        }
        self._tree = MerkleTree(leaves)
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

    # -- write path (DO <-> SP) ------------------------------------------------

    def apply_update(
        self,
        key: str,
        value: bytes,
        state: Optional[ReplicationState] = None,
    ) -> bytes:
        """Insert or update ``key`` (optionally moving it to ``state``) and
        return the new root: a one-update :meth:`apply_updates`."""
        return self.apply_updates([(key, value, state)])

    def apply_updates(
        self,
        updates: Sequence[Tuple[str, Optional[bytes], Optional[ReplicationState]]],
    ) -> bytes:
        """Apply a batch of ``(key, value, state)`` updates in one tree pass.

        A ``value`` of ``None`` is a state-only transition: the record keeps
        its value and version and only moves to ``state``.  The result is that
        of the updates one at a time, in order, but leaf replacements are
        staged and their root paths recomputed once via
        :meth:`MerkleTree.recompute_paths`: a feed's epoch write batch
        typically clusters under shared subtrees, so the shared interior
        hashes are computed once per batch.  Fresh inserts take the normal
        incremental path (the leaf level stays current throughout, so the mix
        is safe).  A backing store gets the batch's writes, in the same
        order, as one :meth:`KVStore.write_batch`; without one no prefixed
        key is built.  Returns the new root.
        """
        staged: List[int] = []
        writes: Optional[List[Tuple[str, Optional[bytes]]]] = (
            [] if self.backing is not None else None
        )
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
                if writes is not None:
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
            if writes is not None:
                if existing.state is not record.state:
                    writes.append((existing.prefixed_key, None))
                writes.append((record.prefixed_key, record.value))
            self._tree.stage_leaf(slot, self.leaf_hash_for(record))
            staged.append(slot)
        self._write_backing(writes)
        self._tree.recompute_paths(staged)
        return self.root

    def apply_state_transition(self, key: str, new_state: ReplicationState) -> bytes:
        """Re-authenticate ``key`` under ``new_state`` and return the new root."""
        return self.apply_updates([(key, None, new_state)])

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

    # -- changing interpreter (one layout, known only here) -------------------------

    def baseline(self) -> StoreBaseline:
        """Mark the current contents as what a later :meth:`export_delta` is
        measured against (records are immutable, so this copies two dicts)."""
        return StoreBaseline(dict(self._records), dict(self._slot_of))

    def export_delta(self, baseline: StoreBaseline = EMPTY_BASELINE) -> StoreDelta:
        """Everything that diverged from ``baseline`` — the whole store against
        :data:`EMPTY_BASELINE`, next to nothing for a store barely touched:
        the changed records and only the tree nodes above them."""
        records = self._records
        base_records = baseline.records
        base_slot_of = baseline.slot_of
        changed = []
        for key, slot in self._slot_of.items():
            record = records[key]
            if base_records.get(key) is not record or base_slot_of[key] != slot:
                changed.append((key, record.value, record.state, record.version, slot))
        tree = self._tree
        positions = changed_nodes(
            [item[4] for item in changed], len(base_slot_of), tree.leaf_count
        )
        return StoreDelta(
            from_empty=not base_records,
            changed=changed,
            deleted=[key for key in base_records if key not in records],
            slot_count=tree.leaf_count,
            nodes=tree.nodes(positions),
        )

    def apply_delta(self, delta: StoreDelta) -> bytes:
        """Bring this store — a mirror standing at the delta's baseline — to
        the exporter's state and return the new root.

        Reproduced exactly: records by key, slot layout, leaves and interior
        levels (hence every proof), the sorted and replicated views, and —
        when this store has a backing (a memory feed's has none) — the
        backing's contents, written as one batch.  Only the tree nodes the
        delta carries are written; the mirror's others already match.
        The records' dict order is not part of that state.
        """
        if delta.from_empty and self._records:
            self.load([])
        base_count = self._tree.leaf_count
        records, slot_of = self._records, self._slot_of
        writes: Optional[List[Tuple[str, Optional[bytes]]]] = (
            [] if self.backing is not None else None
        )
        for key in delta.deleted:
            del slot_of[key]
            old = records.pop(key)
            if writes is not None:
                writes.append((old.prefixed_key, None))
            self._replicated_keys.discard(key)
        membership_changed = bool(delta.deleted)
        slots = []
        for key, value, state, version, slot in delta.changed:
            record = KVRecord(key=key, value=value, state=state, version=version)
            old = records.get(key)
            if old is None:
                membership_changed = True
            if writes is not None:
                if old is not None and old.state is not state:
                    writes.append((old.prefixed_key, None))
                writes.append((record.prefixed_key, value))
            records[key] = record
            slot_of[key] = slot
            slots.append(slot)
            if state is ReplicationState.REPLICATED:
                self._replicated_keys.add(key)
            else:
                self._replicated_keys.discard(key)
        self._tree.patch(
            delta.slot_count,
            changed_nodes(slots, base_count, delta.slot_count),
            delta.nodes,
        )
        if membership_changed:
            self._sorted_keys = sorted(records)
        self._write_backing(writes)
        return self.root

    @staticmethod
    def leaf_hash_for(record: KVRecord) -> bytes:
        """The leaf-hash convention shared with the on-chain verifier."""
        return hash_record(record.key, record.value, record.state.prefix)

    # -- internal layout maintenance -------------------------------------------------

    def _write_backing(self, writes: Optional[List[Tuple[str, Optional[bytes]]]]) -> None:
        """Hand ``writes`` to the backing as one batch (``None``: no backing)."""
        if writes is not None:
            self.backing.write_batch(writes)

    def _insert_record(self, record: KVRecord) -> None:
        """Give a new record the next slot and its leaf (the caller writes the
        backing)."""
        bisect.insort(self._sorted_keys, record.key)
        self._records[record.key] = record
        if record.state is ReplicationState.REPLICATED:
            self._replicated_keys.add(record.key)
        self._slot_of[record.key] = self._tree.leaf_count
        self._tree.append_leaf(self.leaf_hash_for(record))
