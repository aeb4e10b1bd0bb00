"""SCoin: an Ether-collateralised stablecoin backed by a GRuB price feed.

This is the paper's first case study (Section 4.1): a simplified MakerDAO.
``SCoinIssuer`` controls the supply of an ERC20 token (SCoin) that is pegged
to one USD and indirectly backed by Ether:

* ``issue`` — a buyer sends Ether; the issuer reads the current ETH/USD price
  from the feed and mints ``ether * price / collateral_ratio`` SCoin (the
  remainder stays locked as over-collateralisation),
* ``redeem`` — a holder returns SCoin; the issuer reads the price again and
  releases one USD worth of Ether per SCoin before burning them.

Both operations *require* a fresh price, so every issue/redeem drives a read
through the data feed with a callback into the issuer; the gas of that read
is feed-layer gas and the minting/burning/escrow bookkeeping is
application-layer gas — the two columns of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.chain.accounts import WEI_PER_ETHER, AccountRegistry
from repro.chain.vm import ExecutionContext
from repro.apps.erc20 import ERC20Token
from repro.apps.price_feed import PriceFeed, decode_price
from repro.core.data_consumer import DataConsumerContract
from repro.core.grub import GrubSystem

ETH_ASSET_KEY = "ETH-USD"
SCOIN_DECIMALS = 100
"""SCoin amounts are tracked in integer cents of a coin."""


class SCoinIssuer(DataConsumerContract):
    """Controls SCoin supply against Ether collateral using the price feed."""

    def __init__(
        self,
        address: str,
        storage_manager: str,
        token: ERC20Token,
        accounts: AccountRegistry,
        collateral_ratio: float = 1.5,
        asset_key: str = ETH_ASSET_KEY,
    ) -> None:
        super().__init__(address, storage_manager)
        self.token = token
        self.accounts = accounts
        self.collateral_ratio = collateral_ratio
        self.asset_key = asset_key
        self.issues = 0
        self.redeems = 0
        self.locked_collateral_wei = 0

    # -- public entry points ---------------------------------------------------

    def issue(self, ctx: ExecutionContext, buyer: str, ether_amount: float) -> None:
        """Buy SCoin with Ether; minting happens in the price callback."""
        wei = int(ether_amount * WEI_PER_ETHER)
        self.require(wei > 0, "must send Ether to issue SCoin")
        self.accounts.transfer(buyer, self.address, wei)
        self.locked_collateral_wei += wei
        self.query_feed(
            ctx,
            self.asset_key,
            callback="on_price_for_issue",
            callback_context={"buyer": buyer, "wei": wei},
        )

    def redeem(self, ctx: ExecutionContext, seller: str, scoin_cents: int) -> None:
        """Return SCoin for one USD worth of Ether each; settled in the callback."""
        self.require(scoin_cents > 0, "redeem amount must be positive")
        self.require(
            self.token.peek_balance(seller) >= scoin_cents, "seller holds too few SCoin"
        )
        self.query_feed(
            ctx,
            self.asset_key,
            callback="on_price_for_redeem",
            callback_context={"seller": seller, "scoin_cents": scoin_cents},
        )

    # -- price callbacks ------------------------------------------------------------

    def on_price_for_issue(
        self, ctx: ExecutionContext, key: str, value: bytes, buyer: str, wei: int, **_: object
    ) -> None:
        price = decode_price(value)
        self.require(price > 0, "price feed returned a non-positive price")
        usd_value = (wei / WEI_PER_ETHER) * price
        scoin_cents = int(usd_value / self.collateral_ratio * SCOIN_DECIMALS)
        self.require(scoin_cents > 0, "collateral too small to issue any SCoin")
        self.token.mint(ctx.child(self.address, layer=ctx.meter.layer), buyer, scoin_cents)
        self.storage.store(ctx.meter, f"issued:{buyer}", scoin_cents.to_bytes(32, "big"))
        self.issues += 1
        self.emit(ctx, "Issued", buyer=buyer, scoin_cents=scoin_cents, price=price)

    def on_price_for_redeem(
        self,
        ctx: ExecutionContext,
        key: str,
        value: bytes,
        seller: str,
        scoin_cents: int,
        **_: object,
    ) -> None:
        price = decode_price(value)
        self.require(price > 0, "price feed returned a non-positive price")
        usd_value = scoin_cents / SCOIN_DECIMALS
        wei_owed = int(usd_value / price * WEI_PER_ETHER)
        wei_owed = min(wei_owed, self.locked_collateral_wei)
        self.token.burn(ctx.child(self.address, layer=ctx.meter.layer), seller, scoin_cents)
        if wei_owed > 0:
            self.accounts.transfer(self.address, seller, wei_owed)
            self.locked_collateral_wei -= wei_owed
        self.storage.store(ctx.meter, f"redeemed:{seller}", scoin_cents.to_bytes(32, "big"))
        self.redeems += 1
        self.emit(ctx, "Redeemed", seller=seller, scoin_cents=scoin_cents, price=price)

    # -- generic feed callback (reads not tied to issue/redeem) ------------------------

    def on_data(self, ctx: ExecutionContext, key: str, value: bytes, **context) -> None:
        if "buyer" in context:
            self.on_price_for_issue(ctx, key, value, **context)
        elif "seller" in context:
            self.on_price_for_redeem(ctx, key, value, **context)
        else:
            self._keep_delivery(ctx, key, value)

    # -- inspection -----------------------------------------------------------------------

    def collateralisation(self, current_price: float) -> Optional[float]:
        """Collateral value divided by outstanding SCoin value (off-chain view)."""
        outstanding = self.token.total_supply / SCOIN_DECIMALS
        if outstanding == 0:
            return None
        collateral_usd = self.locked_collateral_wei / WEI_PER_ETHER * current_price
        return collateral_usd / outstanding


@dataclass
class StablecoinDeployment:
    """Everything needed to run the stablecoin case study on one GRuB system."""

    system: GrubSystem
    feed: PriceFeed
    issuer: SCoinIssuer
    token: ERC20Token
    accounts: AccountRegistry


def build_stablecoin_deployment(
    system: GrubSystem,
    collateral_ratio: float = 1.5,
    asset_key: str = ETH_ASSET_KEY,
) -> StablecoinDeployment:
    """Deploy the SCoin token and issuer on an existing GRuB (or baseline) system.

    The issuer replaces the system's default data consumer so that feed reads
    driven by the workload invoke the stablecoin's callbacks, exactly like the
    paper's experiment that routes each ``peek()`` into ``issue()`` or
    ``redeem()``.
    """
    accounts = AccountRegistry()
    token = ERC20Token("scoin-token", name="SCoin", symbol="SCN", minter="scoin-issuer")
    system.chain.deploy(token)
    issuer = SCoinIssuer(
        "scoin-issuer",
        system.storage_manager.address,
        token=token,
        accounts=accounts,
        collateral_ratio=collateral_ratio,
        asset_key=asset_key,
    )
    system.chain.deploy(issuer)
    accounts.create(issuer.address)
    system.consumer = issuer
    feed = PriceFeed(data_owner=system.data_owner, record_size_bytes=system.config.record_size_bytes)
    return StablecoinDeployment(
        system=system, feed=feed, issuer=issuer, token=token, accounts=accounts
    )
