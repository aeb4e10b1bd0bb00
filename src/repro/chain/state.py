"""Gas-metered smart-contract storage.

Each contract owns a :class:`ContractStorage`: a mapping from string slots to
byte values where every access is charged according to the gas schedule —
inserts at the (expensive) ``SSTORE`` insert price, overwrites at the update
price and reads at the ``SLOAD`` price.  This is the component whose pricing
asymmetry drives the whole GRuB design: keeping a replica on chain makes reads
cheap and writes expensive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.chain.vm import GasMeter
from repro.common.encoding import encode_value, words_for_bytes, Value

#: Journal marker for "the slot did not exist before this transaction".
_ABSENT = object()


@dataclass
class ContractStorage:
    """Persistent key-value storage of one simulated contract."""

    slots: Dict[str, bytes] = field(default_factory=dict)
    writes: int = 0
    reads: int = 0
    #: Undo journal of the transaction currently executing: slot → its
    #: pre-transaction value, or ``_ABSENT``.  Allocated lazily on the first
    #: journalled write — the chain journals *every* deployed contract per
    #: transaction, and in a multi-tenant fleet most contracts are untouched
    #: by any given transaction, so they must not pay a dict allocation each.
    _journal: Optional[Dict[str, object]] = field(default=None, repr=False)
    _in_tx: bool = field(default=False, repr=False)
    #: Invoked after a rollback (or wholesale restore) mutates ``slots``
    #: behind the owning contract's back, so contracts keeping derived state
    #: (e.g. the storage manager's incremental replica counter) can resync.
    on_rollback: Optional[Callable[[], None]] = field(default=None, repr=False)

    # -- transaction revert bookkeeping -------------------------------------

    def begin_tx(self) -> None:
        """Start journalling writes so a failed transaction can roll back."""
        self._in_tx = True
        self._journal = None

    def commit_tx(self) -> None:
        """Discard the journal (the transaction succeeded)."""
        self._in_tx = False
        self._journal = None

    def rollback_tx(self) -> None:
        """Undo every write journalled since :meth:`begin_tx`."""
        if self._journal:
            for slot, previous in self._journal.items():
                if previous is _ABSENT:
                    self.slots.pop(slot, None)
                else:
                    self.slots[slot] = previous  # type: ignore[assignment]
            if self.on_rollback is not None:
                self.on_rollback()
        self._in_tx = False
        self._journal = None

    def _record(self, slot: str) -> None:
        if not self._in_tx:
            return
        journal = self._journal
        if journal is None:
            journal = self._journal = {}
        if slot not in journal:
            journal[slot] = self.slots.get(slot, _ABSENT)

    def store(self, meter: GasMeter, slot: str, value: Value) -> None:
        """Write ``value`` into ``slot`` charging insert or update pricing."""
        encoded = encode_value(value)
        words = max(1, words_for_bytes(len(encoded)))
        schedule = meter.schedule
        if slot in self.slots:
            meter.charge(schedule.storage_update_cost(words), "sstore_update")
        else:
            meter.charge(schedule.storage_insert_cost(words), "sstore_insert")
        self._record(slot)
        self.slots[slot] = encoded
        self.writes += 1

    def store_reusing(self, meter: GasMeter, slot: str, value: Value) -> None:
        """Write ``value`` into ``slot`` at storage-update pricing even if new.

        Models the "reusable storage" configuration of the paper's BtcRelay
        experiment: the contract keeps a pool of previously allocated replica
        slots and recycles one for each new replica, so the write touches an
        already-allocated slot (update price) rather than claiming a fresh one
        (insert price).  The caller is responsible for only using this when a
        recycled slot is actually available.
        """
        encoded = encode_value(value)
        words = max(1, words_for_bytes(len(encoded)))
        meter.charge(meter.schedule.storage_update_cost(words), "sstore_update")
        self._record(slot)
        self.slots[slot] = encoded
        self.writes += 1

    def load(self, meter: GasMeter, slot: str) -> Optional[bytes]:
        """Read ``slot``; a miss still charges a one-word ``SLOAD``.

        The word arithmetic is inlined: this is the single hottest storage
        path (every ``gGet`` of every feed lands here).
        """
        value = self.slots.get(slot)
        words = ((len(value) + 31) >> 5) or 1 if value is not None else 1
        meter.charge(meter.schedule.storage_read_per_word * words, "sload")
        self.reads += 1
        return value

    def contains(self, meter: GasMeter, slot: str) -> bool:
        """Existence check priced as a one-word read."""
        meter.charge(meter.schedule.storage_read_cost(1), "sload")
        self.reads += 1
        return slot in self.slots

    # -- unmetered helpers -------------------------------------------------
    #
    # The methods below read state without charging gas.  They are used by
    # off-chain components (the SP watchdog, experiment analysis) that inspect
    # contract state through their own full node, which costs no gas.

    def peek(self, slot: str) -> Optional[bytes]:
        """Unmetered read (off-chain observation of public contract state)."""
        return self.slots.get(slot)

    def has(self, slot: str) -> bool:
        """Unmetered existence check."""
        return slot in self.slots

    def size_words(self) -> int:
        """Total number of words currently occupied (for reports)."""
        return sum(max(1, words_for_bytes(len(v))) for v in self.slots.values())

    def snapshot(self) -> Dict[str, bytes]:
        """Copy of the slots, used by the chain to roll back reverted calls."""
        return dict(self.slots)

    def restore(self, snapshot: Dict[str, bytes]) -> None:
        """Restore a snapshot taken before a reverted call."""
        self.slots = dict(snapshot)
        if self.on_rollback is not None:
            self.on_rollback()
