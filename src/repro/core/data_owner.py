"""The data owner (DO): the trusted off-chain producer of the feed.

The DO implements the write path of the data plane (Section 3.3 / Appendix
B.2.1 of the paper):

* it buffers the data updates produced during the current epoch (``gPuts`` is
  an epoch-batched remote call),
* at the end of the epoch it runs the control plane to obtain replication
  decisions and state transitions (step w0),
* it lands the epoch's updates and state transitions on its trusted mirror of
  the ADS in one batch and recomputes the root (step w1); being trusted, it
  fetches no per-write witness from the SP,
* it signs the new root and sends a single ``update`` transaction to the
  storage-manager contract, carrying the digest, the new values of replicated
  records, and any replication-state transitions (step w2).

The DO is trusted, so its own computation costs no gas; only the ``update``
transaction it submits does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.ads.signer import RootSigner, SignedRoot
from repro.chain.chain import Blockchain
from repro.chain.gas import LAYER_FEED
from repro.chain.transaction import Transaction
from repro.common.types import KVRecord, Operation, ReplicationState
from repro.core.control_plane import ControlPlane
from repro.core.storage_manager import StorageManagerContract, UpdateEntry


@dataclass
class EpochUpdateResult:
    """What the DO submitted (or skipped) at the end of an epoch."""

    transaction: Optional[Transaction]
    entries: List[UpdateEntry]
    transitions: Dict[str, ReplicationState]
    signed_root: Optional[SignedRoot]
    buffered_writes: int


@dataclass
class PreparedEpochUpdate:
    """An epoch update that has been computed but not yet submitted on chain.

    Produced by :meth:`DataOwner.prepare_epoch_update` (control-plane run, ADS
    updates, root signing — steps w0/w1).  A single-feed deployment submits it
    straight away via :meth:`DataOwner.submit_prepared`; the multi-tenant
    gateway instead collects the prepared updates of every feed in a shard and
    lands them in one batched router transaction, amortising the transaction
    base cost across tenants.
    """

    entries: List[UpdateEntry]
    transitions: Dict[str, ReplicationState]
    signed_root: Optional[SignedRoot]
    buffered_writes: int

    @property
    def has_payload(self) -> bool:
        """Whether anything changed this epoch (an empty epoch sends no tx)."""
        return self.buffered_writes > 0 or bool(self.entries)

    @property
    def calldata_bytes(self) -> int:
        """Digest (2 words) plus the entries' encoded size."""
        if not self.has_payload:
            return 0
        return 64 + sum(entry.calldata_bytes for entry in self.entries)


@dataclass
class DataOwner:
    """Trusted producer: buffers writes, runs the control plane, updates the chain."""

    address: str
    chain: Blockchain
    storage_manager: StorageManagerContract
    sp_store: AuthenticatedKVStore
    control_plane: ControlPlane
    signer: RootSigner = field(default_factory=RootSigner)
    trusted_root: bytes = b""
    #: Gas-attribution scope stamped on the DO's transactions (the feed id
    #: when the DO is hosted by the multi-tenant gateway).
    scope: Optional[str] = None
    _write_buffer: List[Operation] = field(default_factory=list)
    epochs_submitted: int = 0

    # -- gPuts: the producer-facing API --------------------------------------------

    def gPuts(self, updates: List[Tuple[str, bytes]]) -> None:
        """Buffer a batch of key/value updates produced during this epoch."""
        for key, value in updates:
            operation = Operation.write(key, value)
            self._write_buffer.append(operation)
            self.control_plane.record_local_write(operation)

    def put(self, key: str, value: bytes) -> None:
        """Buffer a single update (convenience wrapper over :meth:`gPuts`)."""
        self.gPuts([(key, value)])

    # -- preloading -----------------------------------------------------------------

    def preload(self, records: List[KVRecord]) -> SignedRoot:
        """Initialise the SP store with ``records`` and publish the first digest.

        Preloading happens before the measured workload starts (the paper
        preloads 2^16 records for the YCSB experiments), so it uses a single
        bootstrap transaction whose gas is not attributed to any epoch.
        """
        root = self.sp_store.load(records)
        self.trusted_root = root
        signed = self.signer.sign(root)
        entries = [
            UpdateEntry(key=record.key, value=record.value, new_state=record.state, is_transition=False)
            for record in records
            if record.state is ReplicationState.REPLICATED
        ]
        calldata = 64 + sum(entry.calldata_bytes for entry in entries)
        transaction = Transaction(
            sender=self.address,
            contract=self.storage_manager.address,
            function="update",
            args={"entries": entries, "digest": signed.root},
            calldata_bytes=calldata,
            layer=LAYER_FEED,
            scope=self.scope,
        )
        self.chain.submit(transaction)
        self.chain.mine_block()
        return signed

    # -- epoch update (write path w0-w2) -----------------------------------------------

    def end_epoch(self) -> EpochUpdateResult:
        """Run the control plane and submit this epoch's ``update`` transaction."""
        prepared = self.prepare_epoch_update()
        return self.submit_prepared(prepared)

    def prepare_epoch_update(self) -> PreparedEpochUpdate:
        """Steps w0/w1: run the control plane, apply ADS updates, sign the root.

        Mutates the SP store and the DO's trusted root but submits nothing on
        chain; the caller decides how the prepared update reaches the contract
        (a standalone ``update`` transaction, or a gateway ``update_batch``
        grouped with other feeds).
        """
        transitions = self.control_plane.run_epoch(self.sp_store.replicated_keys())

        entries: List[UpdateEntry] = []
        written_keys: Dict[str, ReplicationState] = {}
        replicated_this_epoch: set = set()

        # Steps w1/w2 for the epoch's buffered writes: every write waits in
        # ``batched`` and lands with the epoch's state-only transitions in one
        # tree pass; writes whose record is (or becomes) replicated are also
        # carried by the ``update`` transaction so the on-chain replica tracks
        # every tick of the feed.
        batched: List[Tuple[str, Optional[bytes], ReplicationState]] = []
        for operation in self._write_buffer:
            decided = transitions.get(
                operation.key, self.control_plane.decision_for(operation.key)
            )
            batched.append((operation.key, operation.value or b"", decided))
            written_keys[operation.key] = decided
            if decided is ReplicationState.REPLICATED:
                already_on_chain = (
                    self.storage_manager.has_replica(operation.key)
                    or operation.key in replicated_this_epoch
                )
                entries.append(
                    UpdateEntry(
                        key=operation.key,
                        value=operation.value or b"",
                        new_state=ReplicationState.REPLICATED,
                        is_transition=not already_on_chain,
                    )
                )
                replicated_this_epoch.add(operation.key)

        # Materialise state transitions for keys that were not written this epoch.
        for key, new_state in transitions.items():
            if key in written_keys:
                # The write loop above already placed the record correctly;
                # still evict a stale replica when the final decision is NR.
                if (
                    new_state is ReplicationState.NOT_REPLICATED
                    and self.storage_manager.has_replica(key)
                    and key not in replicated_this_epoch
                ):
                    entries.append(
                        UpdateEntry(key=key, value=None, new_state=new_state, is_transition=True)
                    )
                continue
            record = self.sp_store.get_record(key)
            if record is None:
                continue
            if record.state is not new_state:
                batched.append((key, None, new_state))
            currently_on_chain = self.storage_manager.has_replica(key)
            if new_state is ReplicationState.REPLICATED and not currently_on_chain:
                entries.append(
                    UpdateEntry(
                        key=key,
                        value=record.value,
                        new_state=ReplicationState.REPLICATED,
                        is_transition=True,
                    )
                )
                replicated_this_epoch.add(key)
            elif new_state is ReplicationState.NOT_REPLICATED and currently_on_chain:
                entries.append(
                    UpdateEntry(key=key, value=None, new_state=new_state, is_transition=True)
                )

        if batched:
            self.sp_store.apply_updates(batched)

        buffered = len(self._write_buffer)
        self._write_buffer = []

        if buffered == 0 and not entries:
            # Nothing changed this epoch: no digest refresh is needed and no
            # transaction is sent (saves the base transaction cost).
            return PreparedEpochUpdate(
                entries=[],
                transitions=transitions,
                signed_root=None,
                buffered_writes=0,
            )

        new_root = self.sp_store.root
        self.trusted_root = new_root
        signed = self.signer.sign(new_root)
        return PreparedEpochUpdate(
            entries=entries,
            transitions=transitions,
            signed_root=signed,
            buffered_writes=buffered,
        )

    def note_epoch_submitted(self) -> None:
        """Count one epoch update landed on chain (standalone or batched)."""
        self.epochs_submitted += 1

    def submit_prepared(self, prepared: PreparedEpochUpdate) -> EpochUpdateResult:
        """Step w2: submit a prepared update as a standalone transaction."""
        if not prepared.has_payload:
            return EpochUpdateResult(
                transaction=None,
                entries=[],
                transitions=prepared.transitions,
                signed_root=None,
                buffered_writes=0,
            )
        assert prepared.signed_root is not None
        transaction = Transaction(
            sender=self.address,
            contract=self.storage_manager.address,
            function="update",
            args={"entries": prepared.entries, "digest": prepared.signed_root.root},
            calldata_bytes=prepared.calldata_bytes,
            layer=LAYER_FEED,
            scope=self.scope,
        )
        self.chain.submit(transaction)
        self.note_epoch_submitted()
        return EpochUpdateResult(
            transaction=transaction,
            entries=prepared.entries,
            transitions=prepared.transitions,
            signed_root=prepared.signed_root,
            buffered_writes=prepared.buffered_writes,
        )
