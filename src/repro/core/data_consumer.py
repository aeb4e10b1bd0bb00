"""Data-consumer (DU) contracts.

A DU is an application smart contract that reads the data feed.  The base
class wires the two halves of the paper's read path: ``query_feed`` issues the
``gGet`` internal call to the storage manager, and ``on_data`` is the callback
the storage manager (or a later ``deliver`` transaction) invokes with the
verified record.  Applications subclass it and put their query-processing
logic in ``on_data`` (the stablecoin issuer and the pegged-token contract in
:mod:`repro.apps` do exactly that).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.chain.contract import Contract
from repro.chain.vm import ExecutionContext


class DataConsumerContract(Contract):
    """Base DU contract: queries the feed and receives callbacks."""

    def __init__(self, address: str, storage_manager: str) -> None:
        super().__init__(address)
        self.storage_manager_address = storage_manager
        #: The most recent value delivered for each key, and how many
        #: callbacks delivered one: all off-chain inspection reads, so a
        #: consumer holds one value a key however long it runs.
        self.latest: Dict[str, bytes] = {}
        self.delivery_count = 0
        self.pending_queries = 0

    # -- public API ----------------------------------------------------------

    def query_feed(
        self,
        ctx: ExecutionContext,
        key: str,
        callback: str = "on_data",
        callback_context: Optional[Dict[str, Any]] = None,
    ) -> Optional[bytes]:
        """Read ``key`` from the feed via the storage manager's gGet."""
        manager = self.chain.get_contract(self.storage_manager_address)
        self.pending_queries += 1
        return self.call_contract(
            ctx,
            manager,
            "gGet",
            key=key,
            consumer=self.address,
            callback=callback,
            callback_context=callback_context,
        )

    def scan_feed(
        self,
        ctx: ExecutionContext,
        start_key: str,
        keys: List[str],
        callback: str = "on_data",
    ) -> Dict[str, Optional[bytes]]:
        """Range read used by scan workloads (YCSB E)."""
        manager = self.chain.get_contract(self.storage_manager_address)
        self.pending_queries += 1
        return self.call_contract(
            ctx,
            manager,
            "gGetRange",
            start_key=start_key,
            keys=keys,
            consumer=self.address,
            callback=callback,
        )

    # -- callback ---------------------------------------------------------------

    def on_data(self, ctx: ExecutionContext, key: str, value: bytes, **context: Any) -> None:
        """Default query processor: keep the delivery (see :meth:`_keep_delivery`).

        Application subclasses override this with real logic (and real gas).
        """
        self._keep_delivery(ctx, key, value)
        if self.pending_queries > 0:
            self.pending_queries -= 1

    def _keep_delivery(self, ctx: ExecutionContext, key: str, value: bytes) -> None:
        """Charge a token amount of application gas (one memory word),
        standing in for app logic, and keep ``value`` as ``key``'s latest.

        The one bookkeeping every consumer's plain ``on_data`` shares."""
        ctx.meter.charge(ctx.meter.schedule.memory_cost(1), "callback")
        self.latest[key] = value
        self.delivery_count += 1

    # -- inspection ---------------------------------------------------------------

    def last_value(self, key: str) -> Optional[bytes]:
        """Most recent value received for ``key`` (off-chain inspection)."""
        return self.latest.get(key)

    def deliveries(self) -> int:
        return self.delivery_count
