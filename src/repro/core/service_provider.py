"""The storage provider (SP): untrusted off-chain cloud storage + watchdog.

The SP holds the primary copy of the feed in its authenticated KV store and
runs a watchdog daemon that tails the blockchain event log.  When the
storage-manager contract emits a ``request`` event (a DU asked for a record
that has no on-chain replica), the watchdog looks the record up and answers
with a ``deliver`` transaction; every ``deliver`` carries one Merkle
multiproof for all the records in it.

Two delivery modes are supported:

* **epoch-batched** (default, matching the paper's epoch-batched transaction
  accounting): pending requests accumulate and are answered in one ``deliver``
  transaction per epoch, amortising the transaction base cost;
* **immediate**: one ``deliver`` transaction per request, used by the
  ablation benchmark that quantifies the value of batching.

The SP is the protocol's adversary.  :class:`TamperingServiceProvider` wraps
the honest behaviour with configurable corruptions (forge a value, replay a
stale record's proof, omit a requested record, serve a forked root) so tests
can show the on-chain verification rejects each of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.ads.merkle import MultiProof
from repro.chain.chain import Blockchain
from repro.chain.gas import LAYER_FEED
from repro.chain.transaction import Transaction
from repro.common.types import ReplicationState
from repro.core.storage_manager import (
    CallbackRef,
    DeliverItem,
    StorageManagerContract,
    deliver_calldata_bytes,
)


@dataclass
class PendingRequest:
    """One request event the watchdog has seen but not yet answered."""

    key: str
    consumer: str
    callback: str
    context: Dict[str, object] = field(default_factory=dict)

    @staticmethod
    def from_event(event) -> List["PendingRequest"]:
        """Decode a ``request``/``request_range`` log event into requests.

        The single source of the event wire format, shared by the per-feed
        watchdog (:meth:`ServiceProvider.poll_requests`) and the gateway's
        :class:`~repro.gateway.watchdog.SharedWatchdog`; other event names
        decode to an empty list.
        """
        if event.name == "request":
            return [
                PendingRequest(
                    key=event.payload["key"],
                    consumer=event.payload["consumer"],
                    callback=event.payload.get("callback", "on_data"),
                    context=dict(event.payload.get("context", {})),
                )
            ]
        if event.name == "request_range":
            return [
                PendingRequest(
                    key=key,
                    consumer=event.payload["consumer"],
                    callback=event.payload.get("callback", "on_data"),
                )
                for key in event.payload["keys"]
            ]
        return []


@dataclass
class ServiceProvider:
    """Honest SP: serves requests with correct records and proofs."""

    address: str
    chain: Blockchain
    storage_manager: StorageManagerContract
    store: AuthenticatedKVStore
    batch_deliver: bool = True
    #: Optional callable mapping a key to the DO's current replication
    #: decision; when set, delivers carry ``replicate=True`` for keys the DO
    #: wants replicated even before the next epoch update lands (the paper's
    #: deliver-time ``replicate`` flag).
    decision_lookup: Optional[Callable[[str], ReplicationState]] = None
    #: Gas-attribution scope stamped on the SP's transactions (the feed id
    #: when the feed is hosted by the multi-tenant gateway).
    scope: Optional[str] = None
    _log_cursor: int = 0
    pending: List[PendingRequest] = field(default_factory=list)

    # -- watchdog ------------------------------------------------------------

    def poll_requests(self) -> int:
        """Scan the event log for new request events; returns how many were found."""
        events = self.chain.event_log.filter(
            contract=self.storage_manager.address, since=self._log_cursor
        )
        self._log_cursor = len(self.chain.event_log)
        found = 0
        for event in events:
            requests = PendingRequest.from_event(event)
            self.pending.extend(requests)
            found += len(requests)
        return found

    # -- deliver -------------------------------------------------------------------

    def build_deliver_items(
        self, requests: List[PendingRequest]
    ) -> Tuple[List[DeliverItem], MultiProof]:
        """Look up requested records and prove them (honest behaviour).

        One item per request that finds its record, in request order, and one
        multiproof for the whole call (:meth:`AuthenticatedKVStore.query_many`):
        requests of the same key point at the same leaf, which is proved once.
        """
        items: List[DeliverItem] = []
        seen_keys: set = set()
        result = self.store.query_many([request.key for request in requests])
        found = result.found
        for request in requests:
            if request.key not in found:
                # Honest SP answers misses by omitting the record; the DU's
                # callback simply never fires for an unknown key.
                continue
            record, leaf_index = found[request.key]
            replicate = record.state is ReplicationState.REPLICATED
            if self.decision_lookup is not None:
                replicate = self.decision_lookup(request.key) is ReplicationState.REPLICATED
            if replicate and request.key in seen_keys:
                # The first delivery of an epoch already inserts the replica;
                # later duplicates only need to trigger the callback.
                replicate = False
            seen_keys.add(request.key)
            items.append(
                DeliverItem(
                    key=request.key,
                    value=record.value,
                    replicate=replicate,
                    leaf_index=leaf_index,
                    state_prefix=record.state.prefix,
                    callback=CallbackRef.make(
                        request.consumer, request.callback, **request.context
                    ),
                )
            )
        return items, result.proof

    def drain_pending_items(self) -> Tuple[List[DeliverItem], Optional[MultiProof]]:
        """Drain pending requests into one ``deliver`` call's arguments
        without submitting a transaction (no items: nothing to land).

        Used by the multi-tenant gateway, which lands the call inside a
        batched router transaction shared with other feeds.
        """
        if not self.pending:
            return [], None
        requests, self.pending = self.pending, []
        return self.build_deliver_items(requests)

    def flush_deliveries(self) -> List[Transaction]:
        """Answer pending requests, either in one batched transaction or one each."""
        if not self.pending:
            return []
        requests, self.pending = self.pending, []
        groups: List[List[PendingRequest]]
        if self.batch_deliver:
            groups = [requests]
        else:
            groups = [[request] for request in requests]
        transactions: List[Transaction] = []
        for group in groups:
            items, proof = self.build_deliver_items(group)
            if not items:
                continue
            transaction = Transaction(
                sender=self.address,
                contract=self.storage_manager.address,
                function="deliver",
                args={"items": items, "proof": proof},
                calldata_bytes=deliver_calldata_bytes(items, proof),
                layer=LAYER_FEED,
                scope=self.scope,
            )
            self.chain.submit(transaction)
            transactions.append(transaction)
        return transactions

    def service_epoch(self) -> List[Transaction]:
        """One watchdog cycle: poll the log, then answer what was found."""
        self.poll_requests()
        return self.flush_deliveries()


@dataclass
class TamperingServiceProvider(ServiceProvider):
    """Adversarial SP used by the security tests.

    ``attack`` selects the corruption applied to delivered records:

    * ``"forge"`` — deliver a different value under the correct key,
    * ``"replay"`` — deliver a stale value captured before the latest update,
    * ``"omit"`` — silently drop a fraction of requested records,
    * ``"fork"`` — generate proofs against a private fork of the store.

    The only stochastic choice (which requests an ``omit`` attack drops) is
    driven by ``seed`` — or an explicitly injected ``rng`` — so adversarial
    runs are reproducible like every other component.
    """

    attack: str = "forge"
    stale_snapshot: Dict[str, bytes] = field(default_factory=dict)
    omit_probability: float = 1.0
    seed: int = 7
    rng: Optional[random.Random] = None
    attacks_attempted: int = 0

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = random.Random(self.seed)

    def capture_snapshot(self) -> None:
        """Remember current values so a later ``replay`` can serve stale data."""
        self.stale_snapshot = {
            record.key: record.value for record in self.store.records()
        }

    def build_deliver_items(
        self, requests: List[PendingRequest]
    ) -> Tuple[List[DeliverItem], MultiProof]:
        if self.attack == "omit":
            # Drop requests before proving, so what is left still verifies:
            # omission is the one attack the contract cannot see.
            kept = []
            for request in requests:
                if self.store.get_record(request.key) is None:
                    continue
                self.attacks_attempted += 1
                if self.rng.random() >= self.omit_probability:
                    kept.append(request)
            return super().build_deliver_items(kept)
        items, proof = super().build_deliver_items(requests)
        self.attacks_attempted += len(items)
        if self.attack == "forge":
            items = [replace(item, value=item.value + b"-forged") for item in items]
        elif self.attack == "replay":
            items = [
                replace(
                    item,
                    value=self.stale_snapshot.get(item.key, item.value + b"-missing"),
                )
                for item in items
            ]
        elif self.attack == "fork":
            forked_store = AuthenticatedKVStore()
            forked_store.load(
                [record.with_value(record.value + b"-fork") for record in self.store.records()]
            )
            forked = forked_store.query_many([item.key for item in items])
            proof = forked.proof
            items = [
                replace(
                    item,
                    value=record.value,
                    leaf_index=leaf_index,
                    state_prefix=record.state.prefix,
                )
                for item, (record, leaf_index) in zip(
                    items, [forked.found[item.key] for item in items]
                )
            ]
        return items, proof
