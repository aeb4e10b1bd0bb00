"""A minimal ERC20-style token contract for the case-study applications.

The stablecoin (SCoin) and the Bitcoin-pegged token are both ERC20 tokens
whose supply is controlled by an issuer contract.  Balances live in contract
storage and every balance change pays the corresponding storage gas, so the
application-layer gas reported alongside the feed-layer gas (Table 3) is
produced by real contract work rather than a constant.
"""

from __future__ import annotations

from typing import Optional

from repro.chain.contract import Contract
from repro.chain.vm import ExecutionContext


class ERC20Token(Contract):
    """Balances, allowances, mint and burn — enough ERC20 for the case studies."""

    def __init__(self, address: str, name: str, symbol: str, minter: Optional[str] = None) -> None:
        super().__init__(address)
        self.token_name = name
        self.symbol = symbol
        self.minter = minter or address
        self.total_supply = 0

    # -- views -----------------------------------------------------------------

    def balance_of(self, ctx: ExecutionContext, owner: str) -> int:
        raw = self.storage.load(ctx.meter, self._balance_slot(owner))
        return int.from_bytes(raw, "big") if raw else 0

    def allowance(self, ctx: ExecutionContext, owner: str, spender: str) -> int:
        raw = self.storage.load(ctx.meter, self._allowance_slot(owner, spender))
        return int.from_bytes(raw, "big") if raw else 0

    # -- transfers ---------------------------------------------------------------

    def transfer(self, ctx: ExecutionContext, recipient: str, amount: int) -> bool:
        self._move(ctx, ctx.sender, recipient, amount)
        self.emit(ctx, "Transfer", sender=ctx.sender, recipient=recipient, amount=amount)
        return True

    def approve(self, ctx: ExecutionContext, spender: str, amount: int) -> bool:
        self.require(amount >= 0, "allowance must be non-negative")
        self.storage.store(
            ctx.meter, self._allowance_slot(ctx.sender, spender), amount.to_bytes(32, "big")
        )
        self.emit(ctx, "Approval", owner=ctx.sender, spender=spender, amount=amount)
        return True

    def transfer_from(
        self, ctx: ExecutionContext, owner: str, recipient: str, amount: int
    ) -> bool:
        allowance = self.allowance(ctx, owner, ctx.sender)
        self.require(allowance >= amount, "allowance exceeded")
        self.storage.store(
            ctx.meter,
            self._allowance_slot(owner, ctx.sender),
            (allowance - amount).to_bytes(32, "big"),
        )
        self._move(ctx, owner, recipient, amount)
        self.emit(ctx, "Transfer", sender=owner, recipient=recipient, amount=amount)
        return True

    # -- supply management ----------------------------------------------------------

    def mint(self, ctx: ExecutionContext, recipient: str, amount: int) -> bool:
        self.require(ctx.sender in (self.minter, self.address), "only the minter may mint")
        self.require(amount > 0, "mint amount must be positive")
        balance = self.balance_of(ctx, recipient)
        self.storage.store(
            ctx.meter, self._balance_slot(recipient), (balance + amount).to_bytes(32, "big")
        )
        self.total_supply += amount
        self.emit(ctx, "Transfer", sender="0x0", recipient=recipient, amount=amount)
        return True

    def burn(self, ctx: ExecutionContext, owner: str, amount: int) -> bool:
        self.require(ctx.sender in (self.minter, self.address, owner), "not authorised to burn")
        balance = self.balance_of(ctx, owner)
        self.require(balance >= amount, "burn exceeds balance")
        self.storage.store(
            ctx.meter, self._balance_slot(owner), (balance - amount).to_bytes(32, "big")
        )
        self.total_supply -= amount
        self.emit(ctx, "Transfer", sender=owner, recipient="0x0", amount=amount)
        return True

    # -- unmetered inspection -----------------------------------------------------------

    def peek_balance(self, owner: str) -> int:
        raw = self.storage.peek(self._balance_slot(owner))
        return int.from_bytes(raw, "big") if raw else 0

    # -- internals -----------------------------------------------------------------------

    def _move(self, ctx: ExecutionContext, sender: str, recipient: str, amount: int) -> None:
        self.require(amount > 0, "transfer amount must be positive")
        sender_balance = self.balance_of(ctx, sender)
        self.require(sender_balance >= amount, "insufficient balance")
        recipient_balance = self.balance_of(ctx, recipient)
        self.storage.store(
            ctx.meter, self._balance_slot(sender), (sender_balance - amount).to_bytes(32, "big")
        )
        self.storage.store(
            ctx.meter,
            self._balance_slot(recipient),
            (recipient_balance + amount).to_bytes(32, "big"),
        )

    def _balance_slot(self, owner: str) -> str:
        return f"balance:{owner}"

    def _allowance_slot(self, owner: str, spender: str) -> str:
        return f"allowance:{owner}:{spender}"
