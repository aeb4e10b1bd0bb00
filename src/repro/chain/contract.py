"""Base class for simulated smart contracts.

Contracts in the reproduction are Python classes deployed to a
:class:`~repro.chain.chain.Blockchain`.  A contract exposes public functions
as ordinary methods whose first parameter is the :class:`ExecutionContext`
carrying the gas meter; the chain invokes the method named by the incoming
transaction.  Internal (contract-to-contract) calls are plain method calls on
the callee's Python object, passed a child context so the gas accounting stays
within the same transaction, mirroring EVM internal calls.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.chain.events import LogEvent
from repro.chain.state import ContractStorage
from repro.chain.vm import ExecutionContext
from repro.common.errors import ContractError


class Contract:
    """A deployed contract with its own address and gas-metered storage."""

    def __init__(self, address: str) -> None:
        self.address = address
        self.storage = ContractStorage()
        self.chain: Optional["Blockchain"] = None  # noqa: F821 - set at deploy time

    # -- lifecycle ---------------------------------------------------------

    def on_deploy(self, chain: "Blockchain") -> None:  # noqa: F821
        """Hook invoked when the contract is registered with a chain."""
        self.chain = chain

    # -- EVM-style helpers -------------------------------------------------

    def emit(self, ctx: ExecutionContext, name: str, **payload: Any) -> None:
        """Emit a log event, charging LOG gas.

        The event is buffered in the execution context and flushed into the
        global event log when the enclosing transaction is included in a
        block, so off-chain watchdogs only ever observe events of committed
        transactions.
        """
        # Inlined fast path of _payload_size for the dominant argument types
        # (request events fire once per replica miss, the hot read path).
        data_bytes = 0
        for value in payload.values():
            kind = type(value)
            if kind is str:
                data_bytes += len(value.encode("utf-8"))
            elif kind is bytes:
                data_bytes += len(value)
            else:
                data_bytes += _payload_size(value)
        ctx.meter.charge(ctx.meter.schedule.log_cost(1, data_bytes), "log")
        ctx.emitted.append(
            LogEvent(
                contract=self.address,
                name=name,
                # ``payload`` is this call's own fresh kwargs dict: nothing
                # else holds it, so the event keeps it without a copy.
                payload=payload,
                block_number=ctx.block_number,
                transaction_index=-1,
                log_index=-1,
            )
        )

    def require(self, condition: bool, message: str) -> None:
        """Solidity-style ``require``: revert the call when ``condition`` fails."""
        if not condition:
            self.revert(message)

    def revert(self, message: str) -> None:
        """Solidity-style ``revert``, for a check in a loop: unlike
        :meth:`require` it builds its message only when the check fails."""
        raise ContractError(f"{type(self).__name__}: {message}")

    def call_contract(
        self,
        ctx: ExecutionContext,
        callee: "Contract",
        function: str,
        layer: Optional[str] = None,
        scope: Optional[str] = None,
        **kwargs: Any,
    ) -> Any:
        """Perform an internal call to another deployed contract.

        ``layer`` and ``scope`` override the gas attribution of the nested
        call (application callbacks bill the application layer; a gateway
        router bills each tenant's group to that tenant's scope).
        """
        child = ctx.child(sender=self.address, layer=layer, scope=scope)
        child.meter.charge(child.meter.schedule.call_base, "call")
        method = getattr(callee, function, None)
        if method is None:
            raise ContractError(f"{callee.address} has no function {function!r}")
        return method(child, **kwargs)


def _payload_size(value: Any) -> int:
    """Approximate ABI-encoded size of one event argument in bytes.

    Checked most-common-type first: event payloads are dominated by string
    keys/addresses, then byte values (request/deliver events fire per miss).
    """
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, bool):
        return 32
    if isinstance(value, int):
        return 32
    if isinstance(value, (list, tuple)):
        return sum(_payload_size(item) for item in value)
    if isinstance(value, dict):
        return sum(_payload_size(item) for item in value.values())
    if value is None:
        return 0
    return 32
