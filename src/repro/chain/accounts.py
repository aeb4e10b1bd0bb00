"""Externally-owned accounts with Ether balances.

The stablecoin case study (Section 4.1 of the paper) needs buyers and sellers
that pay Ether into the SCoinIssuer contract and receive Ether back on
redemption.  This module provides a minimal account registry with balances in
wei, transfers and simple escrow into/out of contract addresses.  It is not a
consensus component; it exists so the application contracts can express their
collateral logic realistically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.common.errors import ContractError

WEI_PER_ETHER = 10**18


@dataclass
class AccountRegistry:
    """Balances of externally-owned accounts and contract escrow accounts."""

    balances: Dict[str, int] = field(default_factory=dict)

    def create(self, address: str, ether: float = 0.0) -> str:
        """Register an account, optionally funding it with ``ether``."""
        self.balances.setdefault(address, 0)
        if ether:
            self.balances[address] += int(ether * WEI_PER_ETHER)
        return address

    def balance_of(self, address: str) -> int:
        """Balance in wei (0 for unknown accounts)."""
        return self.balances.get(address, 0)

    def balance_in_ether(self, address: str) -> float:
        return self.balance_of(address) / WEI_PER_ETHER

    def transfer(self, sender: str, recipient: str, amount_wei: int) -> None:
        """Move ``amount_wei`` from ``sender`` to ``recipient``.

        Raises :class:`ContractError` on insufficient funds, mirroring a
        reverted value transfer.
        """
        if amount_wei < 0:
            raise ContractError("transfer amount must be non-negative")
        if self.balance_of(sender) < amount_wei:
            raise ContractError(
                f"insufficient balance: {sender} has {self.balance_of(sender)} wei, "
                f"needs {amount_wei}"
            )
        self.balances[sender] = self.balance_of(sender) - amount_wei
        self.balances[recipient] = self.balance_of(recipient) + amount_wei

    def total_supply(self) -> int:
        return sum(self.balances.values())
