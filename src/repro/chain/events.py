"""EVM-style event log.

GRuB's read path relies on contract events: when a DU asks for a record that
is not replicated on chain, the storage-manager contract emits a ``request``
event; the storage provider runs an off-chain watchdog that tails the event
log and answers with a ``deliver`` transaction.  The simulator therefore keeps
an append-only, globally ordered event log that off-chain components can read
(without gas) and contracts can append to (with LOG gas pricing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True, slots=True)
class LogEvent:
    """One emitted event.

    Attributes:
        contract: address of the emitting contract.
        name: event name (the first topic in real EVM terms).
        payload: decoded event arguments.
        block_number: block the emitting transaction was included in.
        transaction_index: position of the transaction within the block.
        log_index: global position in the event log.
    """

    contract: str
    name: str
    payload: Dict[str, Any]
    block_number: int
    transaction_index: int
    log_index: int


class EventLog:
    """Append-only, globally ordered log of contract events."""

    def __init__(self) -> None:
        self._events: List[LogEvent] = []

    def append_event(
        self, event: LogEvent, block_number: int, transaction_index: int
    ) -> LogEvent:
        """Append a context-buffered event, re-stamped with its block position.

        The payload dict is *shared* with the buffered event, not copied: it
        was built privately by :meth:`~repro.chain.contract.Contract.emit` and
        every reader treats it as immutable.
        """
        stamped = LogEvent(
            contract=event.contract,
            name=event.name,
            payload=event.payload,
            block_number=block_number,
            transaction_index=transaction_index,
            log_index=len(self._events),
        )
        self._events.append(stamped)
        return stamped

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[LogEvent]:
        return iter(self._events)

    def since(self, log_index: int) -> List[LogEvent]:
        """Events with ``log_index >= log_index`` (what a watchdog polls)."""
        return self._events[log_index:]

    def filter(
        self,
        *,
        contract: Optional[str] = None,
        name: Optional[str] = None,
        since: int = 0,
    ) -> List[LogEvent]:
        """Filter events by contract and/or name, starting at ``since``."""
        result = []
        for event in self._events[since:]:
            if contract is not None and event.contract != contract:
                continue
            if name is not None and event.name != name:
                continue
            result.append(event)
        return result

    def latest(self, name: Optional[str] = None) -> Optional[LogEvent]:
        """Most recent event, optionally restricted to a name."""
        for event in reversed(self._events):
            if name is None or event.name == name:
                return event
        return None
