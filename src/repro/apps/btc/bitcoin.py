"""A simulated Bitcoin network producing headers, transactions and SPV proofs.

The BtcRelay case study needs a source chain whose blocks are fed onto the
simulated Ethereum chain.  This module provides exactly the pieces the
pegged-token application consumes:

* block headers (height, previous-hash link, transaction Merkle root,
  timestamp, difficulty field) produced at a configurable cadence,
* deposit and redeem transactions included in blocks, and
* SPV proofs — the Merkle inclusion path of a transaction inside a block —
  which the pegged token verifies against headers obtained from the feed.

No proof-of-work is modelled (the paper's trust model already assumes the
source chain is secure); the properties the experiment depends on are the
header chain structure, header sizes and verifiable transaction inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ads.merkle import MerkleProof, MerkleTree, verify_membership
from repro.common.errors import ReproError
from repro.common.hashing import hash_words, keccak

SATOSHI_PER_BTC = 100_000_000


@dataclass(frozen=True)
class BitcoinTransaction:
    """A simplified Bitcoin transaction (deposit into or redeem from the peg)."""

    txid: bytes
    kind: str  # "deposit" | "redeem" | "transfer"
    amount_satoshi: int
    ethereum_recipient: Optional[str] = None
    bitcoin_recipient: Optional[str] = None

    @staticmethod
    def deposit(amount_satoshi: int, ethereum_recipient: str, nonce: int) -> "BitcoinTransaction":
        txid = hash_words("deposit", ethereum_recipient, amount_satoshi, nonce)
        return BitcoinTransaction(
            txid=txid,
            kind="deposit",
            amount_satoshi=amount_satoshi,
            ethereum_recipient=ethereum_recipient,
        )

    @staticmethod
    def redeem(amount_satoshi: int, bitcoin_recipient: str, nonce: int) -> "BitcoinTransaction":
        txid = hash_words("redeem", bitcoin_recipient, amount_satoshi, nonce)
        return BitcoinTransaction(
            txid=txid,
            kind="redeem",
            amount_satoshi=amount_satoshi,
            bitcoin_recipient=bitcoin_recipient,
        )


@dataclass(frozen=True)
class SPVProof:
    """Merkle inclusion proof of a transaction inside a block."""

    txid: bytes
    block_hash: bytes
    merkle_root: bytes
    proof: MerkleProof

    def verify(self, expected_merkle_root: bytes) -> bool:
        """Check the transaction is committed under ``expected_merkle_root``."""
        if expected_merkle_root != self.merkle_root:
            return False
        return verify_membership(expected_merkle_root, keccak(self.txid), self.proof)


@dataclass
class BitcoinBlock:
    """A produced Bitcoin block: header fields plus its transactions."""

    height: int
    previous_hash: bytes
    merkle_root: bytes
    timestamp: float
    difficulty_bits: int
    transactions: List[BitcoinTransaction] = field(default_factory=list)

    @property
    def block_hash(self) -> bytes:
        return hash_words(
            self.height, self.previous_hash, self.merkle_root, int(self.timestamp), self.difficulty_bits
        )

    def header_bytes(self) -> bytes:
        """Serialised header, 80 bytes like a real Bitcoin header (padded)."""
        header = (
            self.height.to_bytes(8, "big")
            + self.previous_hash[:32]
            + self.merkle_root[:32]
            + int(self.timestamp).to_bytes(4, "big")
            + self.difficulty_bits.to_bytes(4, "big")
        )
        return header[:80].ljust(80, b"\x00")

    @staticmethod
    def parse_header(data: bytes) -> Dict[str, int]:
        """Decode the fields written by :meth:`header_bytes`."""
        return {
            "height": int.from_bytes(data[0:8], "big"),
            "timestamp": int.from_bytes(data[72:76], "big"),
            "difficulty_bits": int.from_bytes(data[76:80], "big"),
        }


class BitcoinSimulator:
    """Produces a linear Bitcoin chain and answers SPV proof requests."""

    def __init__(self, block_interval_seconds: float = 600.0, difficulty_bits: int = 0x1D00FFFF) -> None:
        self.block_interval_seconds = block_interval_seconds
        self.difficulty_bits = difficulty_bits
        self.blocks: List[BitcoinBlock] = []
        self._pending: List[BitcoinTransaction] = []
        self._tx_index: Dict[bytes, int] = {}
        self._nonce = 0
        self._mine_genesis()

    # -- producing the chain ------------------------------------------------------

    def _mine_genesis(self) -> None:
        genesis = BitcoinBlock(
            height=0,
            previous_hash=b"\x00" * 32,
            merkle_root=MerkleTree([]).root,
            timestamp=0.0,
            difficulty_bits=self.difficulty_bits,
        )
        self.blocks.append(genesis)

    def submit_transaction(self, transaction: BitcoinTransaction) -> BitcoinTransaction:
        self._pending.append(transaction)
        return transaction

    def deposit(self, amount_btc: float, ethereum_recipient: str) -> BitcoinTransaction:
        """Create and queue a deposit transaction paying the peg's vault."""
        self._nonce += 1
        tx = BitcoinTransaction.deposit(
            int(amount_btc * SATOSHI_PER_BTC), ethereum_recipient, self._nonce
        )
        return self.submit_transaction(tx)

    def redeem(self, amount_btc: float, bitcoin_recipient: str) -> BitcoinTransaction:
        """Create and queue a redeem transaction releasing BTC from the vault."""
        self._nonce += 1
        tx = BitcoinTransaction.redeem(
            int(amount_btc * SATOSHI_PER_BTC), bitcoin_recipient, self._nonce
        )
        return self.submit_transaction(tx)

    def mine_block(self) -> BitcoinBlock:
        """Produce the next block containing every pending transaction."""
        transactions, self._pending = self._pending, []
        tree = MerkleTree([keccak(tx.txid) for tx in transactions])
        previous = self.blocks[-1]
        block = BitcoinBlock(
            height=previous.height + 1,
            previous_hash=previous.block_hash,
            merkle_root=tree.root,
            timestamp=previous.timestamp + self.block_interval_seconds,
            difficulty_bits=self.difficulty_bits,
            transactions=transactions,
        )
        self.blocks.append(block)
        for tx in transactions:
            self._tx_index[tx.txid] = block.height
        return block

    # -- querying the chain -----------------------------------------------------------

    @property
    def tip(self) -> BitcoinBlock:
        return self.blocks[-1]

    def block_at(self, height: int) -> BitcoinBlock:
        if not 0 <= height < len(self.blocks):
            raise ReproError(f"no Bitcoin block at height {height}")
        return self.blocks[height]

    def confirmation_depth(self, txid: bytes) -> int:
        """Number of blocks mined on top of the transaction's block."""
        height = self._tx_index.get(txid)
        if height is None:
            return 0
        return self.tip.height - height

    def spv_proof(self, txid: bytes) -> SPVProof:
        """Produce the SPV inclusion proof for a confirmed transaction."""
        height = self._tx_index.get(txid)
        if height is None:
            raise ReproError("transaction is not included in any block")
        block = self.blocks[height]
        leaves = [keccak(tx.txid) for tx in block.transactions]
        tree = MerkleTree(leaves)
        index = next(i for i, tx in enumerate(block.transactions) if tx.txid == txid)
        return SPVProof(
            txid=txid,
            block_hash=block.block_hash,
            merkle_root=block.merkle_root,
            proof=tree.prove(index),
        )

    def verify_header_chain(self) -> bool:
        """Sanity check: every header links to its predecessor's hash."""
        for previous, current in zip(self.blocks, self.blocks[1:]):
            if current.previous_hash != previous.block_hash:
                return False
        return True
