"""The on-chain storage-manager contract (the paper's Listing 2).

The contract holds:

* ``rootHash`` — the latest digest of the authenticated KV store, published
  by the data owner with every epoch's ``update`` transaction (the one
  sender, with the gateway hosting it, that ``update`` accepts),
* ``replica:<key>`` slots — the on-chain replicas of records whose current
  replication decision is R.

and exposes three functions:

* ``gGet(key, consumer, callback)`` — internal call from a DU contract.  If a
  replica exists the callback is invoked synchronously with the value;
  otherwise a ``request`` event is emitted for the SP's watchdog and the call
  returns ``None`` (the callback will be invoked later by ``deliver``).
* ``deliver(items, proof)`` — transaction from the SP answering outstanding
  requests.  The call's records are verified against ``rootHash`` together,
  by the one Merkle multiproof it carries; verified records optionally become
  replicas (when the record's replication decision is R) and the requesting
  DU's callback runs.
* ``update(entries, transitions, digest)`` — the DO's epoch transaction:
  refresh the digest, write the new values of replicated records, and
  actuate replication-state transitions (insert new replicas / evict old
  ones).

Every storage access, hash, log and internal call charges gas through the
execution context, so the experiments' gas numbers emerge from the same code
path the protocol actually takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.ads.merkle import (
    MultiProof,
    expected_proof_length,
    multiproof_shape,
    verify_multiproof,
)
from repro.chain.contract import Contract
from repro.chain.vm import ExecutionContext
from repro.chain.gas import LAYER_APPLICATION
from repro.common.encoding import words_for_bytes
from repro.common.errors import IntegrityError
from repro.common.hashing import hash_record
from repro.common.types import ReplicationState


@dataclass(frozen=True)
class CallbackRef:
    """Reference to the DU function to invoke once data is available."""

    consumer: str
    function: str = "on_data"
    context: Tuple[Tuple[str, Any], ...] = ()

    def context_dict(self) -> Dict[str, Any]:
        return dict(self.context)

    @staticmethod
    def make(consumer: str, function: str = "on_data", **context: Any) -> "CallbackRef":
        return CallbackRef(
            consumer=consumer, function=function, context=tuple(sorted(context.items()))
        )


@dataclass(frozen=True)
class DeliverItem:
    """One record the SP delivers in answer to a request event.  Its
    authentication is the call's: ``leaf_index`` says which leaf of the
    ``deliver``'s one multiproof the record claims to be."""

    key: str
    value: bytes
    replicate: bool
    leaf_index: int
    state_prefix: str
    callback: Optional[CallbackRef]

    @property
    def calldata_bytes(self) -> int:
        # key word + value + packed (replicate flag, callback selector); the
        # leaf index rides uncharged, as a path's index always has.
        return 32 + len(self.value) + 8


def deliver_calldata_bytes(items: Sequence[DeliverItem], proof: MultiProof) -> int:
    """Encoded size of one ``deliver`` call: its records plus one word per
    sibling digest of their shared proof."""
    return sum(item.calldata_bytes for item in items) + 32 * proof.size_words


@dataclass(frozen=True)
class UpdateEntry:
    """One replicated record (or state transition) carried by an epoch update."""

    key: str
    value: Optional[bytes]
    new_state: ReplicationState
    is_transition: bool = False

    @property
    def calldata_bytes(self) -> int:
        value_bytes = len(self.value) if self.value is not None else 0
        return 32 + value_bytes + (32 if self.is_transition else 0)


#: Marker stored in a replica slot when the replica is evicted.  The paper's
#: data plane "invalidates" an existing replica on an R→NR transition rather
#: than clearing the slot, so a later re-replication of the same key pays the
#: (cheaper) storage-update price instead of a fresh insert.
INVALID_REPLICA = b"\x00"


class StorageManagerContract(Contract):
    """GRuB's on-chain component: digest keeper, replica store, read router."""

    ROOT_SLOT = "rootHash"

    def __init__(
        self,
        address: str,
        data_owner: str,
        track_trace_on_chain: str = "off",
        reuse_replica_slots: bool = False,
        gateway: Optional[str] = None,
    ) -> None:
        """``track_trace_on_chain`` selects the BL3/BL4 behaviour:

        * ``"off"`` (GRuB and the static baselines) — the read/write trace is
          only available through native call logging, which is free;
        * ``"reads"`` (BL4) — every gGet also updates an on-chain read
          counter, paying storage gas;
        * ``"reads+writes"`` (BL3) — reads and writes both update on-chain
          counters.

        ``reuse_replica_slots`` enables the BtcRelay experiment's "reusable
        storage": new replicas recycle slots freed by earlier evictions, so
        they pay the storage-update price instead of the insert price.  A
        key holds a physical slot while ``replica:<key>`` exists; a recycled
        slot moves to its new key's name, so the key evicted from it holds
        none and pays an insert (or takes another freed slot) when it is
        replicated again.

        ``gateway`` optionally names a hosting-gateway router contract that is
        also authorised to call ``update`` (on behalf of the data owner it
        hosts), so a multi-tenant gateway can land several feeds' epoch
        updates inside one batched transaction.
        """
        super().__init__(address)
        self.data_owner = data_owner
        self.gateway = gateway
        self.track_trace_on_chain = track_trace_on_chain
        self.reuse_replica_slots = reuse_replica_slots
        #: With ``reuse_replica_slots``: the keys whose invalidated slot is
        #: free for a new replica, in the order they were freed (a dict used
        #: as an ordered set; the last freed is handed out first).
        self.free_replica_slots: Dict[str, None] = {}
        #: The key of every gGet since the workload monitor last took the
        #: log, mirrored from the chain's native call log (so it costs no
        #: gas).  The monitor is its one reader and takes it whole each time
        #: it looks, which keeps it at most an epoch long.
        self.call_history: List[str] = []
        #: Calldata the verified ``deliver`` calls carried, and what the same
        #: records would have carried with a root path each (the paper's
        #: ``deliver``); see :meth:`delivered_read_discount`.
        self.delivered_bytes = 0
        self.delivered_bytes_unshared = 0

    # -- read path ----------------------------------------------------------

    def gGet(
        self,
        ctx: ExecutionContext,
        key: str,
        consumer: str,
        callback: str = "on_data",
        callback_context: Optional[Dict[str, Any]] = None,
    ) -> Optional[bytes]:
        """Internal call from a DU contract: read ``key`` from the feed."""
        value = self.storage.load(ctx.meter, self._replica_slot(key))
        if value == INVALID_REPLICA:
            value = None
        self.call_history.append(key)
        if self.track_trace_on_chain != "off":
            self._maybe_track_trace(ctx, key, is_write=False)
        if value is not None:
            # Replica-hit fast path: invoke the callback directly, without
            # materialising a CallbackRef (one is allocated per read
            # otherwise, and replica hits dominate hot workloads).
            self._run_callback(ctx, consumer, callback, callback_context, key, value)
            return value
        if callback_context:
            self.emit(
                ctx,
                "request",
                key=key,
                consumer=consumer,
                callback=callback,
                context=callback_context,
            )
        else:
            # An empty context is left out rather than logged as ``{}``: it
            # costs no log gas either way, and the watchdog's decoder
            # (``PendingRequest.from_event``) defaults it.
            self.emit(ctx, "request", key=key, consumer=consumer, callback=callback)
        return None

    def gGetRange(
        self,
        ctx: ExecutionContext,
        start_key: str,
        keys: List[str],
        consumer: str,
        callback: str = "on_data",
    ) -> Dict[str, Optional[bytes]]:
        """Range/scan read: check each key's replica, request the misses as a group."""
        results: Dict[str, Optional[bytes]] = {}
        missing: List[str] = []
        for key in keys:
            value = self.storage.load(ctx.meter, self._replica_slot(key))
            if value == INVALID_REPLICA:
                value = None
            self.call_history.append(key)
            if self.track_trace_on_chain != "off":
                self._maybe_track_trace(ctx, key, is_write=False)
            results[key] = value
            if value is None:
                missing.append(key)
        if missing:
            self.emit(
                ctx,
                "request_range",
                start_key=start_key,
                keys=missing,
                consumer=consumer,
                callback=callback,
            )
        for key, value in results.items():
            if value is not None:
                self._run_callback(ctx, consumer, callback, None, key, value)
        return results

    def deliver(
        self, ctx: ExecutionContext, items: List[DeliverItem], proof: MultiProof
    ) -> int:
        """SP transaction answering requests: verify every record of the call
        against the one multiproof it carries, then replicate and call back.

        Nothing is applied until the whole call has verified: a consumer's
        Python-side state is not contract storage, so a callback that ran
        before a later item failed could not be rolled back with the revert.
        The gateway router runs the two halves itself, every group's
        verification before any group's application.
        """
        self.verify_delivery(ctx, items, proof)
        return self._apply_delivery(ctx, items, proof)

    def verify_delivery(
        self, ctx: ExecutionContext, items: List[DeliverItem], proof: MultiProof
    ) -> None:
        """The metered half of :meth:`deliver` that reverts on a forged
        record or proof and changes nothing."""
        meter = ctx.meter
        root = self.storage.load(meter, self.ROOT_SLOT)
        self.require(root is not None, "no root hash published yet")
        if not items:
            return
        obs = getattr(self.chain, "obs", None)
        verify_started = obs.tracer.clock() if obs is not None else 0.0
        # Requests of one key are one leaf: every item pays its own leaf hash
        # (each carries its own value), the leaf is proved once.
        leaves: Dict[int, bytes] = {}
        for item in items:
            leaf = self._leaf_hash(ctx, item)
            if leaves.setdefault(item.leaf_index, leaf) != leaf:
                self.revert(f"integrity check failed for delivered key {item.key!r}")
        indices = sorted(leaves)
        # The proof is the SP's word until it verifies, and sizing its walk is
        # not charged for: a tree of the depth it names needs at least
        # ``depth - log2(leaves)`` siblings, so a depth beyond what the call
        # shipped (and paid calldata for) is refused before it is walked.
        self.require(
            isinstance(proof, MultiProof)
            and type(proof.leaf_count) is int
            and isinstance(proof.siblings, tuple),
            "missing proof",
        )
        depth = expected_proof_length(proof.leaf_count)
        if not depth - len(indices) <= len(proof.siblings) <= depth * len(indices):
            self.revert(
                "integrity check failed for the delivered records: "
                f"{len(proof.siblings)} sibling digests cannot prove {len(indices)} "
                f"leaves of a depth-{depth} tree"
            )
        # Gas is paid before the work, as on the EVM: once the proof is seen to
        # fit the leaves it is for (which hashes nothing) its whole walk is
        # charged as one amount, whether or not it reaches the root.
        try:
            needed, pair_hashes = multiproof_shape(indices, proof.leaf_count)
        except IntegrityError as error:
            self.revert(f"integrity check failed for the delivered records: {error}")
        if needed != len(proof.siblings):
            self.revert(
                "integrity check failed for the delivered records: "
                f"{len(proof.siblings)} sibling digests where {needed} are needed"
            )
        meter.charge(pair_hashes * meter.schedule.hash_cost(2), "hash")
        if not verify_multiproof(root, indices, [leaves[i] for i in indices], proof):
            self.revert("integrity check failed for the delivered records")
        if obs is not None:
            obs.counter("chain_verify_total").inc(len(items))
            obs.counter("chain_proof_leaves_total").inc(len(indices))
            obs.counter("chain_proof_siblings_total").inc(len(proof.siblings))
            obs.histogram("chain_verify_seconds").observe(
                obs.tracer.clock() - verify_started
            )

    def apply_delivery(
        self, ctx: ExecutionContext, items: List[DeliverItem], proof: MultiProof
    ) -> int:
        """The half of :meth:`deliver` that replicates and calls back, for
        records :meth:`verify_delivery` accepted.

        It checks no proof, so only the hosting gateway, which verifies every
        group of its batch first, may call it; anyone else delivers through
        :meth:`deliver`.
        """
        self.require(
            self.gateway is not None and ctx.sender == self.gateway,
            "only the hosting gateway may apply a delivery it verified",
        )
        return self._apply_delivery(ctx, items, proof)

    def _apply_delivery(
        self, ctx: ExecutionContext, items: List[DeliverItem], proof: MultiProof
    ) -> int:
        if not items:
            return 0
        for item in items:
            if item.replicate:
                self._store_replica(ctx, item.key, item.value)
            if item.callback is not None:
                self._invoke_callback(ctx, item.callback, item.key, item.value)
        record_bytes = sum(item.calldata_bytes for item in items)
        depth = expected_proof_length(proof.leaf_count)
        self.delivered_bytes += record_bytes + 32 * len(proof.siblings)
        self.delivered_bytes_unshared += record_bytes + 32 * depth * len(items)
        return len(items)

    # -- write path -----------------------------------------------------------

    def update(
        self,
        ctx: ExecutionContext,
        entries: List[UpdateEntry],
        digest: bytes,
    ) -> int:
        """The DO's epoch transaction: refresh digest, apply replicated writes/transitions."""
        self.require(
            ctx.sender == self.data_owner or (self.gateway is not None and ctx.sender == self.gateway),
            "only the data owner (or its hosting gateway) may update",
        )
        self.storage.store(ctx.meter, self.ROOT_SLOT, digest)
        applied = 0
        for entry in entries:
            self._maybe_track_trace(ctx, entry.key, is_write=True)
            if entry.new_state is ReplicationState.REPLICATED:
                self.require(
                    entry.value is not None,
                    f"replicated entry {entry.key!r} must carry its value",
                )
                self._store_replica(ctx, entry.key, entry.value)
            else:
                slot = self._replica_slot(entry.key)
                if entry.is_transition and self.storage.contains(ctx.meter, slot):
                    # Invalidate (do not delete) so a later re-replication of
                    # the same key is a storage update rather than an insert.
                    live = self.storage.peek(slot) != INVALID_REPLICA
                    if live and self.reuse_replica_slots:
                        self.free_replica_slots[entry.key] = None
                    self.storage.store(ctx.meter, slot, INVALID_REPLICA)
            applied += 1
        return applied

    def _store_replica(self, ctx: ExecutionContext, key: str, value: bytes) -> None:
        """Write a replica, recycling a freed slot when the pool allows it.

        A key that refills its own invalidated slot takes that slot off the
        pool.  A key with no slot takes the last freed one, whose old key
        then holds no slot.  A reverted eviction can leave a key on the pool
        whose slot is live again; such an entry is skipped, never recycled.
        """
        slot = self._replica_slot(key)
        storage = self.storage
        prior = storage.peek(slot)
        if self.reuse_replica_slots:
            free = self.free_replica_slots
            if prior == INVALID_REPLICA:
                free.pop(key, None)
            while prior is None and free:
                freed = self._replica_slot(free.popitem()[0])
                if storage.peek(freed) == INVALID_REPLICA:
                    storage.release(freed)
                    storage.store_reusing(ctx.meter, slot, value)
                    return
        storage.store(ctx.meter, slot, value)

    # -- views (no global gas; used by off-chain components via their full node) --

    def delivered_read_discount(self) -> float:
        """What a read off chain has cost here as a share of the paper's, which
        ships every record with its own root path: 1.0 before any delivery and
        while every call holds one record, lower the more of their proof the
        records of a call share.  The DO's control plane reads it (off the
        ``deliver`` calls its full node sees) to keep Equation 1's
        ``C_read_off`` at what a delivered word measurably costs."""
        if not self.delivered_bytes_unshared:
            return 1.0
        return self.delivered_bytes / self.delivered_bytes_unshared

    def replica_of(self, key: str) -> Optional[bytes]:
        """Unmetered view of a replica slot (off-chain observation)."""
        value = self.storage.peek(self._replica_slot(key))
        return None if value == INVALID_REPLICA else value

    def has_replica(self, key: str) -> bool:
        return self.replica_of(key) is not None

    def root_hash(self) -> Optional[bytes]:
        return self.storage.peek(self.ROOT_SLOT)

    def replica_count(self) -> int:
        """Number of live on-chain replicas: a scan of the replica slots
        (off-chain observation, read at run end)."""
        return sum(
            1
            for slot, value in self.storage.slots.items()
            if slot.startswith("replica:") and value != INVALID_REPLICA
        )

    # -- internals ---------------------------------------------------------------

    def _replica_slot(self, key: str) -> str:
        return f"replica:{key}"

    def _leaf_hash(self, ctx: ExecutionContext, item: DeliverItem) -> bytes:
        # The item is the SP's word: a field of another type than the leaf
        # encoding and the proof's index order read is refused before it is
        # charged for or hashed.
        if not (
            isinstance(item.key, str)
            and isinstance(item.value, bytes)
            and isinstance(item.state_prefix, str)
            and type(item.leaf_index) is int
        ):
            self.revert(f"integrity check failed for delivered key {item.key!r}")
        words = max(1, words_for_bytes(len(item.value))) + 2
        ctx.meter.charge(ctx.meter.schedule.hash_cost(words), "hash")
        return hash_record(item.key, item.value, item.state_prefix)

    def _invoke_callback(
        self, ctx: ExecutionContext, callback: CallbackRef, key: str, value: bytes
    ) -> None:
        self._run_callback(
            ctx, callback.consumer, callback.function, callback.context_dict(), key, value
        )

    def _run_callback(
        self,
        ctx: ExecutionContext,
        consumer: str,
        function: str,
        context: Optional[Dict[str, Any]],
        key: str,
        value: bytes,
    ) -> None:
        chain = self.chain
        if chain is None:
            return
        contract = chain.contracts.get(consumer)
        if contract is None:
            return
        self.call_contract(
            ctx,
            contract,
            function,
            layer=LAYER_APPLICATION,
            key=key,
            value=value,
            **(context or {}),
        )

    def _maybe_track_trace(self, ctx: ExecutionContext, key: str, is_write: bool) -> None:
        """BL3/BL4 behaviour: pay storage gas to keep the trace on chain."""
        if self.track_trace_on_chain == "off":
            return
        if is_write and self.track_trace_on_chain != "reads+writes":
            return
        suffix = "w" if is_write else "r"
        slot = f"trace:{suffix}:{key}"
        current = self.storage.peek(slot)
        count = int.from_bytes(current, "big") if current else 0
        self.storage.store(ctx.meter, slot, (count + 1).to_bytes(32, "big"))
