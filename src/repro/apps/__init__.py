"""Case-study applications built on the GRuB data feed (Section 4 of the paper).

* :mod:`repro.apps.erc20` — a minimal ERC20 token contract used by both case
  studies,
* :mod:`repro.apps.price_feed` — a GRuB-backed price feed exposing the
  ``poke()`` / ``peek()`` interface of MakerDAO's ethPriceOracle,
* :mod:`repro.apps.stablecoin` — SCoin, an Ether-collateralised stablecoin
  whose issuer contract reads the price feed on every issue/redeem,
* :mod:`repro.apps.btc` — a simulated Bitcoin chain, a BtcRelay-style
  side-chain feed, and a Bitcoin-pegged ERC20 token whose mint/burn verifies
  SPV proofs against block headers from the feed.
"""

from repro.apps.erc20 import ERC20Token
from repro.apps.price_feed import PriceFeed
from repro.apps.stablecoin import SCoinIssuer, StablecoinDeployment, build_stablecoin_deployment
from repro.apps.btc.bitcoin import BitcoinSimulator, BitcoinBlock, BitcoinTransaction
from repro.apps.btc.btcrelay import BtcRelayFeed
from repro.apps.btc.pegged_token import PeggedTokenContract, PeggedTokenDeployment, build_pegged_token_deployment

__all__ = [
    "ERC20Token",
    "PriceFeed",
    "SCoinIssuer",
    "StablecoinDeployment",
    "build_stablecoin_deployment",
    "BitcoinSimulator",
    "BitcoinBlock",
    "BitcoinTransaction",
    "BtcRelayFeed",
    "PeggedTokenContract",
    "PeggedTokenDeployment",
    "build_pegged_token_deployment",
]
