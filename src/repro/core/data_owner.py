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
* it sends a single ``update`` transaction to the storage-manager contract,
  carrying the new root, the new values of replicated records, and any
  replication-state transitions (step w2).  The root is authenticated by the
  transaction's sender: the contract takes a digest only from the data owner
  (or the gateway hosting it).

The DO is trusted, so its own computation costs no gas; only the ``update``
transaction it submits does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.chain.chain import Blockchain
from repro.chain.gas import LAYER_FEED
from repro.chain.transaction import Transaction
from repro.common.types import KVRecord, Operation, ReplicationState
from repro.core.control_plane import ControlPlane
from repro.core.storage_manager import StorageManagerContract, UpdateEntry


@dataclass
class PreparedEpochUpdate:
    """An epoch update as computed, before (and, standalone, after) it is
    submitted on chain.

    Produced by :meth:`DataOwner.prepare_epoch_update` (control-plane run and
    ADS updates — steps w0/w1).  A single-feed deployment submits it
    straight away via :meth:`DataOwner.submit_prepared`; the multi-tenant
    gateway instead collects the prepared updates of every feed in a shard and
    lands them in one batched router transaction, amortising the transaction
    base cost across tenants.
    """

    entries: List[UpdateEntry]
    transitions: Dict[str, ReplicationState]
    #: The store's new root (``None`` for an epoch with no payload).
    root: Optional[bytes]
    buffered_writes: int
    #: The standalone ``update`` transaction :meth:`DataOwner.submit_prepared`
    #: sent for it (``None`` before that, and for an epoch with no payload).
    transaction: Optional[Transaction] = None

    @property
    def has_payload(self) -> bool:
        """Whether anything changed this epoch (an empty epoch sends no tx)."""
        return self.buffered_writes > 0 or bool(self.entries)


@dataclass
class DataOwner:
    """Trusted producer: buffers writes, runs the control plane, updates the chain."""

    address: str
    chain: Blockchain
    storage_manager: StorageManagerContract
    sp_store: AuthenticatedKVStore
    control_plane: ControlPlane
    #: Gas-attribution scope stamped on the DO's transactions (the feed id
    #: when the DO is hosted by the multi-tenant gateway).
    scope: Optional[str] = None
    _write_buffer: List[Operation] = field(default_factory=list)

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

    def preload(self, records: List[KVRecord]) -> bytes:
        """Initialise the SP store with ``records`` and publish the first digest.

        Preloading happens before the measured workload starts (the paper
        preloads 2^16 records for the YCSB experiments), so it uses a single
        bootstrap transaction whose gas is not attributed to any epoch.
        Returns the published root.
        """
        root = self.sp_store.load(records)
        entries = [
            UpdateEntry(key=record.key, value=record.value, new_state=record.state, is_transition=False)
            for record in records
            if record.state is ReplicationState.REPLICATED
        ]
        self.chain.land(self._update_transaction(entries, root))
        return root

    # -- epoch update (write path w0-w2) -----------------------------------------------

    def end_epoch(self) -> PreparedEpochUpdate:
        """Run the control plane and submit this epoch's ``update`` transaction."""
        prepared = self.prepare_epoch_update()
        return self.submit_prepared(prepared)

    def prepare_epoch_update(self) -> PreparedEpochUpdate:
        """Steps w0/w1: run the control plane and apply the ADS updates.

        Mutates the SP store but submits nothing on chain; the caller decides
        how the prepared update reaches the contract (a standalone ``update``
        transaction, or a gateway ``update_batch`` grouped with other feeds).
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
                root=None,
                buffered_writes=0,
            )

        return PreparedEpochUpdate(
            entries=entries,
            transitions=transitions,
            root=self.sp_store.root,
            buffered_writes=buffered,
        )

    def submit_prepared(self, prepared: PreparedEpochUpdate) -> PreparedEpochUpdate:
        """Step w2: submit a prepared update as a standalone transaction,
        recorded on ``prepared``, which is returned."""
        if prepared.has_payload:
            assert prepared.root is not None
            prepared.transaction = self.chain.submit(
                self._update_transaction(prepared.entries, prepared.root)
            )
        return prepared

    def _update_transaction(
        self, entries: List[UpdateEntry], root: bytes
    ) -> Transaction:
        """The standalone ``update`` transaction carrying ``entries`` and the
        root: 2 words of digest plus the entries' encoded size."""
        return Transaction(
            sender=self.address,
            contract=self.storage_manager.address,
            function="update",
            args={"entries": entries, "digest": root},
            calldata_bytes=64 + sum(entry.calldata_bytes for entry in entries),
            layer=LAYER_FEED,
            scope=self.scope,
        )
