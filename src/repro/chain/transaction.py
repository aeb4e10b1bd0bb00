"""Transactions and receipts for the simulated blockchain.

A transaction names a target contract and function, carries decoded arguments
plus an explicit calldata size (in bytes) used for intrinsic gas.  The
calldata size is supplied by the sender-side protocol code (the DO's epoch
batcher, the SP's deliver path) because that is where the paper's accounting
happens: a ``gPuts`` batching ten one-word records pays
``21000 + 2176 * (10 + digest words)`` before any execution gas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.chain.events import LogEvent
from repro.common.encoding import words_for_bytes

#: A fresh transaction id from this process's counter.
next_txid = itertools.count().__next__


@dataclass
class Transaction:
    """A signed message from an externally-owned account to a contract."""

    sender: str
    contract: str
    function: str
    args: Dict[str, Any] = field(default_factory=dict)
    calldata_bytes: int = 0
    value: int = 0
    gas_limit: Optional[int] = None
    layer: str = "feed"
    #: Tenant the transaction's gas is billed to (a feed id in the gateway);
    #: ``None`` leaves the gas unscoped, as in single-feed deployments.
    scope: Optional[str] = None
    #: For batched gateway transactions serving several tenants: scope →
    #: calldata bytes of that tenant's group.  When set, the intrinsic cost is
    #: split across the scopes (see ``split_transaction_cost``) instead of
    #: being billed to ``scope``.
    scopes: Optional[Dict[str, int]] = None
    txid: int = field(default_factory=next_txid)
    submitted_at: float = 0.0

    @property
    def calldata_words(self) -> int:
        return words_for_bytes(self.calldata_bytes)


@dataclass
class TransactionReceipt:
    """Outcome of executing a transaction inside a block."""

    transaction: Transaction
    success: bool
    gas_used: int
    block_number: int
    transaction_index: int
    return_value: Any = None
    error: Optional[str] = None
    events: List[LogEvent] = field(default_factory=list)
    finalized_at: Optional[float] = None

    @property
    def txid(self) -> int:
        return self.transaction.txid
