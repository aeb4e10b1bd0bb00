"""A GRuB-backed price feed exposing the ethPriceOracle-style interface.

The MakerDAO price oracle the paper measures exposes two functions: ``poke()``
updates the price and ``peek()`` reads it.  Mapped onto GRuB, ``poke`` becomes
a ``gPuts`` from the off-chain data owner and ``peek`` becomes a ``gGet`` from
a consumer contract with a callback.  :class:`PriceFeed` is the off-chain
producer half (owned by the DO); the stablecoin issuer
(:class:`~repro.apps.stablecoin.SCoinIssuer`) is the consumer half.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.data_owner import DataOwner

PRICE_SCALE = 100
"""Prices are stored in integer cents to avoid floats on chain."""


def encode_price(price_usd: float, record_size_bytes: int = 32) -> bytes:
    """Encode a USD price into a fixed-size record payload."""
    cents = int(round(price_usd * PRICE_SCALE))
    payload = cents.to_bytes(16, "big")
    if len(payload) < record_size_bytes:
        payload = payload + b"\x00" * (record_size_bytes - len(payload))
    return payload[:record_size_bytes]


def decode_price(value: bytes) -> float:
    """Decode a record payload back into a USD price."""
    cents = int.from_bytes(value[:16], "big")
    return cents / PRICE_SCALE


@dataclass
class PriceFeed:
    """Off-chain producer half of the price feed (drives gPuts via the DO)."""

    data_owner: DataOwner
    record_size_bytes: int = 32
    pokes: int = 0

    def poke(self, asset: str, price_usd: float) -> None:
        """Publish a new price for ``asset`` (buffered until the epoch ends)."""
        self.data_owner.put(asset, encode_price(price_usd, self.record_size_bytes))
        self.pokes += 1
