"""Blocks for the simulated blockchain."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.chain.transaction import TransactionReceipt
from repro.common.hashing import hash_words


@dataclass
class Block:
    """A produced block: ordered receipts plus chain metadata."""

    number: int
    timestamp: float
    parent_hash: bytes
    receipts: List[TransactionReceipt] = field(default_factory=list)

    @property
    def gas_used(self) -> int:
        return sum(receipt.gas_used for receipt in self.receipts)

    @property
    def block_hash(self) -> bytes:
        """Digest over the block header fields and included transaction ids."""
        txids = b"".join(
            receipt.txid.to_bytes(8, "big") for receipt in self.receipts
        )
        return hash_words(self.number, self.parent_hash, int(self.timestamp * 1000), txids)
