"""EVM-style event log.

GRuB's read path relies on contract events: when a DU asks for a record that
is not replicated on chain, the storage-manager contract emits a ``request``
event; the storage provider runs an off-chain watchdog that tails the event
log and answers with a ``deliver`` transaction.  The simulator therefore keeps
an append-only, globally ordered event log that off-chain components can read
(without gas) and contracts can append to (with LOG gas pricing).

The log keeps the events of the chain's finality window only: when a block
leaves the window, :meth:`EventLog.forget_through` drops every event stamped at
or below it.  Log indices and ``len`` stay absolute, so a reader's cursor never
shifts; a cursor below the kept events is a :class:`ReproError`, never a
silently shorter answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.common.errors import ReproError


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
    """Append-only, globally ordered log of contract events; iterating it
    yields the kept events, ``len`` counts every event ever appended."""

    def __init__(self) -> None:
        self._events: List[LogEvent] = []
        #: Log index of ``_events[0]``: how many events were forgotten.
        self._first = 0

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
            log_index=self._first + len(self._events),
        )
        self._events.append(stamped)
        return stamped

    def forget_through(self, block_number: int) -> None:
        """Drop the events stamped at or below ``block_number`` (stamps never
        decrease along the log, so they are a prefix of it)."""
        events = self._events
        count = 0
        for event in events:
            if event.block_number > block_number:
                break
            count += 1
        del events[:count]
        self._first += count

    def __len__(self) -> int:
        return self._first + len(self._events)

    def __iter__(self) -> Iterator[LogEvent]:
        return iter(self._events)

    def _position(self, log_index: int) -> int:
        """Where ``log_index`` sits in the kept events."""
        if log_index < self._first:
            raise ReproError(
                f"log index {log_index} is below the finality window: events "
                f"before {self._first} were forgotten with their blocks"
            )
        return log_index - self._first

    def since(self, log_index: int) -> List[LogEvent]:
        """Events with ``log_index >= log_index`` (what a watchdog polls)."""
        return self._events[self._position(log_index) :]

    def filter(
        self,
        *,
        contract: Optional[str] = None,
        name: Optional[str] = None,
        since: int,
    ) -> List[LogEvent]:
        """Filter events by contract and/or name, starting at the log index
        ``since`` (a reader's cursor; there is no default, because once the
        window has moved a cursor of 0 is below it)."""
        result = []
        for event in self._events[self._position(since) :]:
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
