"""The gateway's on-chain router: one transaction, many feeds.

In a single-feed deployment every end-of-epoch transaction (the SP's
``deliver``, the DO's ``update``) pays the full 21k transaction base cost for
one feed.  The router is the on-chain half of the multi-tenant gateway: it
accepts *batched* transactions whose calldata is grouped per feed and fans
each group out to that feed's storage-manager contract with an internal call,
so N feeds sharing an epoch boundary pay one base cost instead of N.

Gas attribution stays exact: the chain splits the batched transaction's
intrinsic cost across the feeds it serves (see
:func:`repro.chain.gas.split_transaction_cost`) and the router executes each
group under the feed's own gas scope, so per-feed reports add up to the fleet
total with no double-counting.

Authorisation mirrors the single-feed contract: each storage manager still
verifies delivered records against its own root hash, and ``update`` groups
are only accepted because the hosted feeds name the router as their gateway
(the gateway operates the DOs, so it is their on-chain agent).  The router
in turn forwards an update batch only from the gateway's operator, so no
other account can replace a hosted feed's root or replicas through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ads.merkle import MultiProof
from repro.chain.contract import Contract
from repro.chain.vm import ExecutionContext
from repro.core.storage_manager import DeliverItem, UpdateEntry, deliver_calldata_bytes

#: Externally-owned account the gateway runtime sends every batched
#: transaction from, and the one sender :meth:`GatewayRouterContract.update_batch`
#: accepts.
GATEWAY_OPERATOR = "gateway-operator"

@dataclass(frozen=True)
class DeliverGroup:
    """One feed's slice of a batched cross-feed ``deliver`` transaction: the
    records it answers with and the one multiproof that authenticates them."""

    feed_id: str
    manager: str
    items: List[DeliverItem]
    proof: MultiProof

    @property
    def calldata_bytes(self) -> int:
        # Manager address word + the feed's deliver call (records and proof).
        return 32 + deliver_calldata_bytes(self.items, self.proof)


@dataclass(frozen=True)
class UpdateGroup:
    """One feed's slice of a batched cross-feed ``update`` transaction."""

    feed_id: str
    manager: str
    entries: List[UpdateEntry]
    digest: bytes

    @property
    def calldata_bytes(self) -> int:
        # Manager address word + digest (2 words) + the entries' encoded size.
        return 32 + 64 + sum(entry.calldata_bytes for entry in self.entries)


class GatewayRouterContract(Contract):
    """Fans batched gateway transactions out to per-feed storage managers."""

    def deliver_batch(self, ctx: ExecutionContext, groups: List[DeliverGroup]) -> int:
        """Answer outstanding requests of several feeds in one transaction.

        Each group is executed under its feed's gas scope and charged one
        call: first every group's storage manager verifies its records
        against its one multiproof, then every group replicates and calls
        its consumers back.  A forged group therefore reverts the batch
        before any consumer's Python-side state has moved.  Any sender may
        deliver: a group lands only if its records verify against the root
        its feed's manager stores, which only the feed's data owner or this
        router's operator can set.
        """
        self.require(bool(groups), "empty deliver batch")
        managers = [self.chain.get_contract(group.manager) for group in groups]
        for manager, group in zip(managers, groups):
            self.call_contract(
                ctx,
                manager,
                "verify_delivery",
                scope=group.feed_id,
                items=group.items,
                proof=group.proof,
            )
        applied = 0
        for manager, group in zip(managers, groups):
            child = ctx.child(sender=self.address, scope=group.feed_id)
            applied += manager.apply_delivery(child, group.items, group.proof)
        return applied

    def update_batch(self, ctx: ExecutionContext, groups: List[UpdateGroup]) -> int:
        """Land several feeds' epoch updates in one transaction.

        The storage managers accept the router as sender because the hosted
        feeds were deployed with this router as their ``gateway``, so the
        router takes the batch only from the gateway's operator.
        """
        self.require(
            ctx.sender == GATEWAY_OPERATOR, "only the gateway operator may update hosted feeds"
        )
        self.require(bool(groups), "empty update batch")
        applied = 0
        for group in groups:
            manager = self.chain.get_contract(group.manager)
            applied += self.call_contract(
                ctx,
                manager,
                "update",
                scope=group.feed_id,
                entries=group.entries,
                digest=group.digest,
            )
        return applied


def scope_weights_for_deliver(groups: List[DeliverGroup]) -> Dict[str, int]:
    """Per-feed calldata weights used to split a deliver batch's base cost."""
    return {group.feed_id: group.calldata_bytes for group in groups}


def scope_weights_for_update(groups: List[UpdateGroup]) -> Dict[str, int]:
    """Per-feed calldata weights used to split an update batch's base cost."""
    return {group.feed_id: group.calldata_bytes for group in groups}
