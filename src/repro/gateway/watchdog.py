"""One watchdog for the whole fleet.

In a single-feed deployment the SP's watchdog tails the event log with its own
cursor.  Hosting N feeds that way would scan the shared log N times per cycle
(each SP filtering for its own contract).  The shared watchdog keeps *one*
cursor over the shared chain's event log, scans each new event exactly once,
and routes ``request`` / ``request_range`` events to the feed that owns the
emitting storage-manager contract — the per-feed
:class:`~repro.core.service_provider.ServiceProvider` objects then only do
what is genuinely per-feed work: looking records up in their own store and
attaching proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from repro.chain.chain import Blockchain
from repro.core.service_provider import PendingRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.gateway.registry import FeedHandle


@dataclass
class SharedWatchdog:
    """Single-cursor event-log tail shared by every hosted feed."""

    chain: Blockchain
    _cursor: int = 0
    #: storage-manager address → the handle of the feed it belongs to.
    _routes: Dict[str, "FeedHandle"] = field(default_factory=dict)

    def register(self, handle: "FeedHandle") -> None:
        self._routes[handle.storage_manager.address] = handle

    def deregister(self, handle: "FeedHandle") -> None:
        self._routes.pop(handle.storage_manager.address, None)

    def cancel_pending(self, handle: "FeedHandle") -> int:
        """Explicitly cancel a departing feed's undelivered requests.

        The fleet controller calls this (after a final :meth:`poll`) before a
        feed is removed: any request the watchdog routed to the feed's SP but
        the scheduler has not yet settled is dropped *visibly* — the number
        returned is added to the feed's bill (``cancelled_requests``) —
        instead of being silently routed to a dead handle once the feed's
        contracts are undeployed.
        """
        cancelled = len(handle.service_provider.pending)
        handle.service_provider.pending.clear()
        return cancelled

    def poll(self) -> int:
        """Scan new events once, routing requests to their feeds' SPs.

        Returns how many pending requests were enqueued across the fleet.
        """
        events = self.chain.event_log.since(self._cursor)
        self.skip_to_end()
        routed = 0
        for event in events:
            handle = self._routes.get(event.contract)
            if handle is None:
                continue
            requests = PendingRequest.from_event(event)
            handle.service_provider.pending.extend(requests)
            routed += len(requests)
        return routed

    def skip_to_end(self) -> None:
        """Count everything logged so far as scanned.  The per-feed SPs' own
        log cursors follow, so a feed later driven standalone does not
        re-answer old requests.  Called on its own after a process-mode run,
        whose lanes routed the run's events on their own chains."""
        self._cursor = len(self.chain.event_log)
        for handle in self._routes.values():
            handle.service_provider._log_cursor = self._cursor
