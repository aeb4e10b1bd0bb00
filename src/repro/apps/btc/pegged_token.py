"""A Bitcoin-pegged ERC20 token verifying mint/burn against the BtcRelay feed.

This is the paper's second case study (Section 4.2): a DU contract
implementing a simple pegged token whose supply operations consume Bitcoin
blocks from the side-chain feed:

* ``request_mint`` — a user presents a Bitcoin deposit transaction plus its
  SPV proof; the contract reads the corresponding block header (and the
  required number of confirmation headers) from the feed, verifies the
  inclusion proof against the header's transaction Merkle root, and mints the
  pegged amount,
* ``request_burn`` — symmetric: a redeem transaction on Bitcoin is verified
  before the pegged tokens are burned.

Every verification reads several recent block headers through ``gGet``, which
is exactly the read pressure the BtcRelay benchmark (Figure 6) places on the
feed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.btc.bitcoin import BitcoinBlock, BitcoinSimulator, SPVProof
from repro.apps.btc.btcrelay import BtcRelayFeed, block_key
from repro.apps.erc20 import ERC20Token
from repro.chain.vm import ExecutionContext
from repro.core.data_consumer import DataConsumerContract
from repro.core.grub import GrubSystem

CONFIRMATIONS_REQUIRED = 6
"""Number of Bitcoin confirmations a mint/burn verification consumes."""


class PeggedTokenContract(DataConsumerContract):
    """DU contract: mints/burns pegged tokens after SPV verification."""

    def __init__(
        self,
        address: str,
        storage_manager: str,
        token: ERC20Token,
        confirmations: int = CONFIRMATIONS_REQUIRED,
    ) -> None:
        super().__init__(address, storage_manager)
        self.token = token
        self.confirmations = confirmations
        self.header_cache: Dict[str, bytes] = {}
        self.mints = 0
        self.burns = 0
        self.rejected = 0
        self._pending_mints: List[dict] = []
        self._pending_burns: List[dict] = []

    # -- public entry points -------------------------------------------------------

    def request_mint(
        self,
        ctx: ExecutionContext,
        recipient: str,
        amount_satoshi: int,
        proof: SPVProof,
        block_height: int,
    ) -> None:
        """Verify a Bitcoin deposit and mint pegged tokens to ``recipient``."""
        self._pending_mints.append(
            {
                "recipient": recipient,
                "amount": amount_satoshi,
                "proof": proof,
                "block_height": block_height,
                "headers": {},
            }
        )
        self._request_headers(ctx, block_height, purpose="mint", index=len(self._pending_mints) - 1)

    def request_burn(
        self,
        ctx: ExecutionContext,
        holder: str,
        amount_satoshi: int,
        proof: SPVProof,
        block_height: int,
    ) -> None:
        """Verify a Bitcoin redeem and burn ``holder``'s pegged tokens."""
        self._pending_burns.append(
            {
                "holder": holder,
                "amount": amount_satoshi,
                "proof": proof,
                "block_height": block_height,
                "headers": {},
            }
        )
        self._request_headers(ctx, block_height, purpose="burn", index=len(self._pending_burns) - 1)

    # -- feed callbacks ------------------------------------------------------------------

    def on_header(
        self,
        ctx: ExecutionContext,
        key: str,
        value: bytes,
        purpose: str,
        index: int,
        **_: object,
    ) -> None:
        """Callback receiving one verified block header from the feed."""
        ctx.meter.charge(ctx.meter.schedule.memory_cost(3), "callback")
        self.header_cache[key] = value
        pending = self._pending_mints if purpose == "mint" else self._pending_burns
        if index >= len(pending) or pending[index] is None:
            return
        request = pending[index]
        request["headers"][key] = value
        needed = self._header_keys(request["block_height"])
        if all(k in request["headers"] for k in needed):
            self._finalise(ctx, purpose, index, request)

    def on_data(self, ctx: ExecutionContext, key: str, value: bytes, **context) -> None:
        if "purpose" in context and "index" in context:
            self.on_header(ctx, key, value, **context)
        else:
            self._keep_delivery(ctx, key, value)
            self.header_cache[key] = value

    # -- internals ---------------------------------------------------------------------------

    def _request_headers(self, ctx: ExecutionContext, block_height: int, purpose: str, index: int) -> None:
        for key in self._header_keys(block_height):
            self.query_feed(
                ctx,
                key,
                callback="on_header",
                callback_context={"purpose": purpose, "index": index},
            )

    def _header_keys(self, block_height: int) -> List[str]:
        return [block_key(block_height + offset) for offset in range(self.confirmations)]

    def _finalise(self, ctx: ExecutionContext, purpose: str, index: int, request: dict) -> None:
        header = request["headers"][block_key(request["block_height"])]
        proof: SPVProof = request["proof"]
        # The header's Merkle root occupies bytes 40..72 of the serialised header.
        merkle_root = header[40:72]
        # Gas is paid before the work: a proof that names this header's root and
        # fits its index (neither check hashes anything) is charged its whole
        # walk as one amount, then walked.
        ok = proof.merkle_root == merkle_root and proof.proof.is_bound
        if ok:
            ctx.meter.charge(
                proof.proof.num_nodes * ctx.meter.schedule.hash_cost(2), "hash"
            )
            ok = proof.verify(merkle_root)
        if not ok:
            self.rejected += 1
            self.emit(ctx, "VerificationFailed", purpose=purpose, block_height=request["block_height"])
            return
        if purpose == "mint":
            self.token.mint(ctx.child(self.address, layer=ctx.meter.layer), request["recipient"], request["amount"])
            self.mints += 1
            self.emit(ctx, "Minted", recipient=request["recipient"], amount=request["amount"])
            self._pending_mints[index] = None
        else:
            self.token.burn(ctx.child(self.address, layer=ctx.meter.layer), request["holder"], request["amount"])
            self.burns += 1
            self.emit(ctx, "Burned", holder=request["holder"], amount=request["amount"])
            self._pending_burns[index] = None


@dataclass
class PeggedTokenDeployment:
    """Everything needed to run the BtcRelay case study on one GRuB system."""

    system: GrubSystem
    bitcoin: BitcoinSimulator
    relay: BtcRelayFeed
    token: ERC20Token
    pegged: PeggedTokenContract


def build_pegged_token_deployment(
    system: GrubSystem,
    bitcoin: Optional[BitcoinSimulator] = None,
    confirmations: int = CONFIRMATIONS_REQUIRED,
) -> PeggedTokenDeployment:
    """Deploy the pegged token + relay feed on an existing GRuB (or baseline) system."""
    bitcoin = bitcoin or BitcoinSimulator()
    token = ERC20Token("pegged-btc", name="Pegged BTC", symbol="pBTC", minter="pegged-btc-gateway")
    system.chain.deploy(token)
    pegged = PeggedTokenContract(
        "pegged-btc-gateway",
        system.storage_manager.address,
        token=token,
        confirmations=confirmations,
    )
    system.chain.deploy(pegged)
    system.consumer = pegged
    relay = BtcRelayFeed(data_owner=system.data_owner, bitcoin=bitcoin)
    return PeggedTokenDeployment(
        system=system, bitcoin=bitcoin, relay=relay, token=token, pegged=pegged
    )
