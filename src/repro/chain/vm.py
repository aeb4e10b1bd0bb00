"""Gas metering and execution contexts for the simulated EVM.

The simulator does not interpret bytecode; contracts are Python classes whose
methods charge gas explicitly through the :class:`GasMeter` carried by the
:class:`ExecutionContext` of the transaction (or internal call) being
executed.  This keeps the gas accounting faithful to the schedule while
leaving contract logic readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.chain.gas import GasLedger, GasSchedule, LAYER_FEED
from repro.common.errors import OutOfGasError


@dataclass(slots=True)
class GasMeter:
    """Meters gas for a single execution (transaction or internal call).

    The meter both enforces a limit (raising :class:`OutOfGasError` when the
    limit would be exceeded) and attributes every charge to the blockchain's
    global :class:`GasLedger` so experiments can aggregate by category/layer.

    ``charge`` is the innermost call of every benchmark (every storage access,
    hash, log and internal call goes through it), so the class is slotted and
    the common case — no limit, no parent meter, default attribution — takes
    the shortest possible path.
    """

    schedule: GasSchedule
    ledger: GasLedger
    limit: Optional[int] = None
    used: int = 0
    layer: str = LAYER_FEED
    #: Tenant identifier the charges are billed to (a feed id in the
    #: multi-tenant gateway); ``None`` leaves charges unscoped.
    scope: Optional[str] = None
    #: The meter this one was forked from (layer/scope-override internal
    #: calls).  Charges propagate up so the enclosing transaction's
    #: ``gas_used`` and gas limit still cover the nested execution.
    parent: Optional["GasMeter"] = None

    def charge(
        self,
        amount: int,
        category: str,
        layer: Optional[str] = None,
        scope: Optional[str] = None,
    ) -> int:
        """Consume ``amount`` gas, attributing it to ``category``.

        ``layer`` and ``scope`` override the meter's own attribution for this
        one charge (``scope`` is used when splitting a batched transaction's
        intrinsic cost across the tenants it serves).
        """
        if amount < 0:
            raise ValueError("gas charges must be non-negative")
        if self.limit is not None and self.used + amount > self.limit:
            raise OutOfGasError(requested=amount, remaining=self.limit - self.used)
        if self.parent is not None:
            self._propagate(amount)
        self.used += amount
        # Inlined GasLedger.charge: this is the innermost call of every
        # benchmark, and the extra frame showed up in profiles.
        layer = layer or self.layer
        scope = scope or self.scope
        ledger = self.ledger
        ledger.total += amount
        ledger.by_category[category] += amount
        ledger.by_layer[layer] += amount
        if scope is not None:
            ledger.by_scope[(scope, layer)] += amount
        return amount

    def _propagate(self, amount: int) -> None:
        """Fold a charge into every ancestor meter (enforcing their limits)."""
        meter = self.parent
        while meter is not None:
            if meter.limit is not None and meter.used + amount > meter.limit:
                raise OutOfGasError(requested=amount, remaining=meter.limit - meter.used)
            meter.used += amount
            meter = meter.parent

    @property
    def remaining(self) -> Optional[int]:
        if self.limit is None:
            return None
        return self.limit - self.used


@dataclass(slots=True)
class ExecutionContext:
    """Context threaded through contract calls within one transaction.

    Mirrors the pieces of the EVM environment GRuB's contracts need:
    ``msg.sender``, the gas meter, the block number/timestamp at execution
    time, and the list of log events emitted so far (flushed into the block's
    receipts when the transaction completes).
    """

    sender: str
    meter: GasMeter
    block_number: int = 0
    timestamp: float = 0.0
    value: int = 0
    call_depth: int = 0
    emitted: List["LogEvent"] = field(default_factory=list)  # noqa: F821 - forward ref

    def child(
        self,
        sender: str,
        layer: Optional[str] = None,
        scope: Optional[str] = None,
    ) -> "ExecutionContext":
        """Create the context for an internal call made by ``sender``.

        Internal calls share the same gas meter (the EVM model of a nested
        call within the same transaction) and inherit block metadata.  The
        attribution layer can be overridden so application callbacks charge to
        the application layer while the feed protocol charges to the feed
        layer; the attribution scope can be overridden so a gateway router
        dispatching a batched transaction bills each tenant's group to that
        tenant.
        """
        meter = self.meter
        new_layer = layer if layer is not None and layer != meter.layer else None
        new_scope = scope if scope is not None and scope != meter.scope else None
        if new_layer is not None or new_scope is not None:
            meter = GasMeter(
                schedule=self.meter.schedule,
                ledger=self.meter.ledger,
                limit=None,
                layer=layer if layer is not None else self.meter.layer,
                scope=scope if scope is not None else self.meter.scope,
                parent=self.meter,
            )
        return ExecutionContext(
            sender=sender,
            meter=meter,
            block_number=self.block_number,
            timestamp=self.timestamp,
            call_depth=self.call_depth + 1,
            emitted=self.emitted,
        )
