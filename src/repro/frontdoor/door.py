"""The gateway's live front door: asyncio requests in, settled epochs out.

:class:`FrontDoor` is the canonical :class:`~repro.gateway.scheduler.RequestSource`:
clients ``await door.submit(request)`` on the event loop, the epoch scheduler
runs on a dedicated thread and drains the door at every epoch boundary, and
each request's future resolves when its epoch settles — carrying the settled
epoch, the request's even share of its feed's epoch gas bill, and how many
boundaries it sat deferred under its tenant's quota.

The two halves meet through a condition variable, not a wall clock:

* loop thread — ``submit`` runs the middleware stack; an admitted request
  joins the pending list (FIFO, stamped with a global admission sequence)
  and notifies the scheduler if it is blocked idle.
* scheduler thread — ``poll`` takes every *eligible* pending request
  (``not_before_epoch <= epoch``) at each boundary; ``settled`` pops the
  executed head of each feed's in-flight queue and resolves the futures via
  ``loop.call_soon_threadsafe``.

Determinism: epoch membership is driven purely by admission order and
``not_before_epoch`` eligibility.  A client that stamps its whole request
sequence before the fleet drains it (the seeded benchmark client, tests)
produces **bit-identical** fingerprints, gas bills and chain state to the
equivalent batch run — in serial and process modes alike.  Requests
racing the epoch clock in real time are serviced correctly, but *which*
boundary catches them is scheduling weather, not physics, and is the one
thing a replay cannot pin.

Observability: the run's span tree grows a ``frontdoor`` root above
``run → epoch``, each request gets a detached ``frontdoor.request`` span
(admission → resolution) adopted under the root in admission order, and
end-to-end latency lands in the ``request_latency_seconds`` histograms via
:class:`~repro.frontdoor.middleware.RequestMetricsMiddleware`.  The door
additionally keeps its own raw latency samples so p50/p95/p99 reporting
works even with the obs plane disabled.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from collections import deque
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigurationError
from repro.common.types import Operation
from repro.gateway.metrics import FleetTelemetry
from repro.gateway.scheduler import EpochScheduler, RequestSource
from repro.obs import REPORT_PERCENTILES
from repro.frontdoor.middleware import (
    Handler,
    Middleware,
    Request,
    RequestMetricsMiddleware,
    Response,
    SecurityHeadersMiddleware,
    RateLimitMiddleware,
    AuthTokenMiddleware,
    STATUS_CANCELLED,
    STATUS_REJECTED,
    STATUS_SETTLED,
    REJECT_DOOR_CLOSED,
    REJECT_UNKNOWN_TENANT,
    build_stack,
)

__all__ = [
    "FrontDoor",
    "FrontDoorTelemetry",
    "TenantRequestStats",
    "latency_percentile",
    "latency_percentiles",
]


def latency_percentile(samples: Iterable[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of raw latency samples.

    Same definition as :meth:`repro.obs.metrics.Histogram.percentile` — the
    smallest sample with at least ``q``% of samples at or below it — so the
    door's report agrees with the obs plane's to the last ulp.  ``q`` in
    (0, 100]; ``None`` when there are no samples.
    """
    if not 0.0 < q <= 100.0:
        raise ConfigurationError("percentile q must be in (0, 100]")
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def latency_percentiles(
    samples: Iterable[float], qs: Sequence[float] = REPORT_PERCENTILES
) -> Dict[str, Optional[float]]:
    """The ``{"p50": ..., "p95": ..., "p99": ...}`` dict reports use."""
    ordered = sorted(samples)
    return {f"p{q:g}": latency_percentile(ordered, q) for q in qs}


@dataclass
class TenantRequestStats:
    """One tenant's front-door counters (all epoch-driven, all fingerprinted)."""

    accepted: int = 0
    settled: int = 0
    cancelled: int = 0
    deferrals: int = 0
    gas_attributed: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "accepted": self.accepted,
            "settled": self.settled,
            "cancelled": self.cancelled,
            "deferrals": self.deferrals,
            "gas_attributed": self.gas_attributed,
            "rejected": dict(sorted(self.rejected.items())),
        }


@dataclass
class FrontDoorTelemetry:
    """Fleet-wide front-door counters, one row per hosted tenant — plus one
    shared row for every request naming a tenant the fleet does not host.

    Everything here is a function of the admitted request sequence and the
    epoch clock — never of wall time — so the fingerprint is replayable and
    the live-vs-batch equivalence suite can assert on it.
    """

    tenants: Dict[str, TenantRequestStats] = field(default_factory=dict)

    def tenant(self, tenant: str) -> TenantRequestStats:
        stats = self.tenants.get(tenant)
        if stats is None:
            stats = self.tenants[tenant] = TenantRequestStats()
        return stats

    @property
    def accepted(self) -> int:
        return sum(stats.accepted for stats in self.tenants.values())

    @property
    def rejected(self) -> int:
        return sum(stats.rejected_total for stats in self.tenants.values())

    @property
    def settled(self) -> int:
        return sum(stats.settled for stats in self.tenants.values())

    def fingerprint(self) -> Dict[str, Any]:
        return {
            tenant: self.tenants[tenant].fingerprint()
            for tenant in sorted(self.tenants)
        }


@dataclass
class _Pending:
    """One admitted request waiting for (or riding through) the epoch engine."""

    sequence: int
    request: Request
    future: "asyncio.Future[Response]"
    admitted_at: float
    span: Optional[Any] = None
    deferred_epochs: int = 0


class FrontDoor(RequestSource):
    """Live request layer in front of an :class:`EpochScheduler`.

    ``middleware`` defaults to the canonical stack — auth (when ``tokens``
    given), security headers, per-tenant rate limiting fed by the fleet's
    ``FeedSpec`` op quotas, request metrics — composed in that order around
    the epoch-queue endpoint.  Pass an explicit sequence (possibly empty) to
    override; layers with an ``on_epoch_settled`` hook get the epoch clock
    either way.
    """

    def __init__(
        self,
        scheduler: EpochScheduler,
        *,
        tokens: Optional[Mapping[str, str]] = None,
        middleware: Optional[Sequence[Middleware]] = None,
        burst_epochs: int = 2,
        held: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.obs = scheduler.obs
        self.telemetry = FrontDoorTelemetry()
        self._tenants = frozenset(scheduler.registry.feed_ids)
        #: Tenants evicted mid-run: their queued requests were cancelled and
        #: new submissions are turned away at admission.
        self._departed: set = set()
        if middleware is None:
            quotas = {
                feed_id: scheduler.registry.get(feed_id).spec.max_ops_per_epoch
                for feed_id in self._tenants
            }
            middleware = [
                *(
                    [AuthTokenMiddleware(tokens)]
                    if tokens is not None
                    else []
                ),
                SecurityHeadersMiddleware(),
                RateLimitMiddleware(quotas, burst_epochs=burst_epochs),
                RequestMetricsMiddleware(self.obs),
            ]
        self.middleware: Tuple[Middleware, ...] = tuple(middleware)
        self._app: Handler = build_stack(self.middleware, self._enqueue)

        self._cond = threading.Condition()
        #: Admitted, not yet taken by a boundary (admission order).
        self._pending: List[_Pending] = []
        #: Taken by a boundary, riding the epoch engine (FIFO per feed).
        self._inflight: Dict[str, Deque[_Pending]] = {}
        #: Head-of-queue operations that came from the pre-seeded batch
        #: ``workloads`` map rather than live requests; they execute first
        #: and own no futures.
        self._seeded: Dict[str, int] = {}
        self._sequence = 0
        self._closed = False
        #: While held, boundaries take nothing: admissions accumulate in the
        #: pending list and the idle scheduler blocks in ``poll``.  This is
        #: the determinism latch — a seeded client admits its whole request
        #: sequence, then :meth:`release`\ s, so epoch membership depends
        #: only on the sequence (and eligibility stamps), never on how
        #: admission raced the epoch clock.
        self._held = held
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self._fleet: Optional[FleetTelemetry] = None
        self._latencies: List[float] = []
        self._finished_spans: List[Any] = []

    # -- client side (event loop) ---------------------------------------------

    async def submit(self, request: Request) -> Response:
        """Run one request through the middleware stack and the fleet.

        Resolves when the request's epoch settles (or immediately on
        rejection).  Must be awaited inside :meth:`serving`.
        """
        response = await self._app(request)
        if response.status == STATUS_REJECTED:
            # A tenant the fleet does not host is a name the client chose:
            # whatever turned it away (no such tenant, or no token for one),
            # it shares one row, so clients cannot grow the door's telemetry.
            hosted = request.tenant in self._tenants
            stats = self.telemetry.tenant(
                request.tenant if hosted else RequestMetricsMiddleware.UNKNOWN_TENANT
            )
            reason = response.reason or "rejected"
            stats.rejected[reason] = stats.rejected.get(reason, 0) + 1
        return response

    async def _enqueue(self, request: Request) -> Response:
        """The stack's endpoint: admit the request into the epoch queue and
        await its settlement future."""
        if request.tenant not in self._tenants or request.tenant in self._departed:
            return Response.rejected(request.tenant, REJECT_UNKNOWN_TENANT)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Response]" = loop.create_future()
        tracer = self.obs.tracer
        with self._cond:
            if self._closed:
                return Response.rejected(request.tenant, REJECT_DOOR_CLOSED)
            self._sequence += 1
            pending = _Pending(
                sequence=self._sequence,
                request=request,
                future=future,
                admitted_at=time.perf_counter(),
                span=tracer.detached(
                    "frontdoor.request",
                    tenant=request.tenant,
                    kind=request.operation.kind.name.lower(),
                ),
            )
            self._pending.append(pending)
            self.telemetry.tenant(request.tenant).accepted += 1
            self._cond.notify_all()
        return await future

    def hold(self) -> None:
        """Stop boundaries from taking pending requests (see ``held``)."""
        with self._cond:
            self._held = True

    def release(self) -> None:
        """Let boundaries take pending requests again.

        The deterministic client recipe: create the submit tasks, yield the
        loop once (``await asyncio.sleep(0)`` — every task runs straight to
        admission, there is no suspension point before the settlement
        future), then ``release()``.  Everything lands on the next boundary
        in admission order.
        """
        with self._cond:
            self._held = False
            self._cond.notify_all()

    def close(self) -> None:
        """Close the door: new submissions are rejected, the scheduler runs
        the fleet dry and the run ends.  Releases a held door — whatever was
        already admitted still executes.  Idempotent, thread-safe."""
        with self._cond:
            self._closed = True
            self._held = False
            self._cond.notify_all()

    @asynccontextmanager
    async def serving(
        self, workloads: Optional[Mapping[str, Sequence[Operation]]] = None
    ):
        """Serve the fleet for the duration of the ``async with`` block.

        Starts the scheduler on a dedicated thread (every registered feed is
        live from epoch 0); the optional ``workloads`` map pre-seeds feed
        queues exactly as a batch run would, ahead of any live request.  On
        exit the door closes, the run is drained to completion, and
        :attr:`fleet` carries the run's telemetry.  Scheduler errors re-raise
        here, after every outstanding future has been failed with them.
        """
        if self._thread is not None:
            raise ConfigurationError("front door is already serving")
        self._loop = asyncio.get_running_loop()
        self._seeded = {
            feed_id: len(operations)
            for feed_id, operations in (workloads or {}).items()
        }
        self._thread = threading.Thread(
            target=self._drive, args=(workloads,), name="frontdoor-gateway"
        )
        self._thread.start()
        try:
            yield self
        finally:
            self.close()
            await asyncio.get_running_loop().run_in_executor(
                None, self._thread.join
            )
            if self._error is not None:
                raise self._error

    @property
    def fleet(self) -> FleetTelemetry:
        """The finished run's fleet telemetry (after :meth:`serving` exits)."""
        if self._fleet is None:
            raise ConfigurationError("the front door has not finished a run")
        return self._fleet

    @property
    def latencies(self) -> List[float]:
        """Raw end-to-end latency samples (seconds), resolution order."""
        return list(self._latencies)

    def percentiles(self) -> Dict[str, Optional[float]]:
        """End-to-end p50/p95/p99 over every resolved request."""
        return latency_percentiles(self._latencies)

    # -- gateway side (scheduler thread) --------------------------------------

    def _drive(self, workloads: Optional[Mapping[str, Sequence[Operation]]]) -> None:
        """Thread body: run the fleet under the ``frontdoor`` root span."""
        tracer = self.obs.tracer
        try:
            with self.obs.span(
                "frontdoor", mode=self.scheduler.execution_mode
            ) as root:
                fleet = self.scheduler.run(workloads, source=self)
                # Adopt the per-request spans under the root in admission
                # order — deterministic whatever the settlement interleaving.
                for span in sorted(
                    self._finished_spans, key=lambda item: item[0]
                ):
                    tracer.adopt(root, span[1])
            self._fleet = fleet
        except BaseException as exc:  # noqa: BLE001 - relayed to the loop
            self._error = exc
            # The scheduler says so itself on its way out of the epoch loop; a
            # run that fails before reaching it (a workload naming a feed the
            # registry does not host) has not.
            self.run_finished(None, error=exc)

    def poll(
        self, epoch: int, *, wait: bool
    ) -> Mapping[str, Sequence[Operation]]:
        """Take every eligible pending request for this boundary.

        Blocks (``wait=True``, the idle gateway) until a request arrives or
        the door closes; returns immediately when the fleet has queued work,
        or when everything pending is scheduled for a later epoch — the run
        loop fast-forwards to it via :meth:`next_epoch`.

        A held door blocks *unconditionally* — even a scheduler with seeded
        queues or pending churn parks at its first boundary until
        :meth:`release`.  That is the whole point of the latch: nothing about
        the run (not even batch work) advances until the client has stamped
        its request sequence.
        """
        with self._cond:
            while not self._closed and self._held:
                self._cond.wait()
            if wait:
                while not self._closed and not self._pending:
                    self._cond.wait()
            eligible: List[_Pending] = []
            kept: List[_Pending] = []
            for pending in self._pending:
                if pending.request.not_before_epoch <= epoch:
                    eligible.append(pending)
                else:
                    kept.append(pending)
            self._pending = kept
            arrivals: Dict[str, List[Operation]] = {}
            for pending in eligible:
                feed_id = pending.request.tenant
                self._inflight.setdefault(feed_id, deque()).append(pending)
                arrivals.setdefault(feed_id, []).append(pending.request.operation)
            return arrivals

    @property
    def exhausted(self) -> bool:
        with self._cond:
            return self._closed and not self._pending

    def next_epoch(self, after: int) -> Optional[int]:
        with self._cond:
            if self._held or not self._pending:
                return None
            return min(
                pending.request.not_before_epoch for pending in self._pending
            )

    def settled(
        self, epoch: int, feed_id: str, *, executed: int, deferred: int, gas: int
    ) -> None:
        """Resolve the executed head of one feed's in-flight queue.

        The scheduler executes strictly from the queue head, so the first
        ``executed`` in-flight entries (after any pre-seeded batch
        operations) are exactly the requests that ran this epoch.  The
        epoch's per-feed gas bill splits evenly across all ``executed``
        operations — the batched-cost idiom the router already applies —
        and each request carries its share; a remainder spreads one unit at
        a time from the front, so the split is exact and deterministic.
        Deferred head-of-queue requests get their deferral stamped.
        """
        with self._cond:
            for layer in self.middleware:
                layer.on_epoch_settled(epoch)
            queue = self._inflight.get(feed_id)
            seeded = self._seeded.get(feed_id, 0)
            consumed_seeded = min(seeded, executed)
            if consumed_seeded:
                self._seeded[feed_id] = seeded - consumed_seeded
            live_executed = executed - consumed_seeded
            share, remainder = (
                divmod(gas, executed) if executed else (0, 0)
            )
            resolved: List[Tuple[_Pending, Response]] = []
            for index in range(live_executed):
                if not queue:
                    break
                pending = queue.popleft()
                # Seeded operations occupy gas shares [0, consumed_seeded).
                position = consumed_seeded + index
                attributed = share + (1 if position < remainder else 0)
                stats = self.telemetry.tenant(feed_id)
                stats.settled += 1
                stats.gas_attributed += attributed
                resolved.append(
                    (
                        pending,
                        Response(
                            status=STATUS_SETTLED,
                            tenant=feed_id,
                            epoch=epoch,
                            gas=attributed,
                            deferred_epochs=pending.deferred_epochs,
                        ),
                    )
                )
            # The next `deferred` head-of-queue operations were planned but
            # pushed to the next epoch by the tenant's quota; stamp the live
            # ones (seeded leftovers defer silently).
            seeded_left = self._seeded.get(feed_id, 0)
            live_deferred = max(0, deferred - seeded_left)
            if queue is not None:
                for pending in list(queue)[:live_deferred]:
                    pending.deferred_epochs += 1
                    self.telemetry.tenant(feed_id).deferrals += 1
        for pending, response in resolved:
            self._resolve(pending, response)

    def evicted(self, epoch: int, feed_id: str) -> None:
        """The gateway evicted a tenant mid-run: cancel its queued requests.

        Fires from the churn boundary, before the epoch's poll.  Everything
        the tenant had in flight (its operations were dropped from the feed
        queue with the eviction) or still pending resolves as cancelled *now*
        — a client awaiting those futures must not deadlock the run by
        keeping the door open for responses that can never settle.  Later
        submissions for the tenant are rejected at admission.
        """
        with self._cond:
            self._departed.add(feed_id)
            leftovers = self._take(feed_id)
        self._cancel(leftovers, f"tenant evicted at epoch {epoch}")

    def run_finished(
        self, fleet: Optional[FleetTelemetry], error: Optional[BaseException] = None
    ) -> None:
        """Run over, normally or not: close the door and resolve whatever
        never executed, so that no future is left hanging and no later
        submission queues behind a scheduler that is gone.  Leftovers get the
        ``error`` the run is unwinding when there is one; otherwise they are
        cancelled (a safety net — a run only ends normally once the door is
        closed and drained, and departures cancel eagerly via :meth:`evicted`).
        """
        self.close()
        leftovers = self._take()
        if error is None:
            self._cancel(leftovers, "run finished before the request executed")
        else:
            for pending in leftovers:
                self._post(self._set_exception, pending.future, error)

    # -- resolution plumbing ---------------------------------------------------

    def _take(self, tenant: Optional[str] = None) -> List[_Pending]:
        """Remove every unresolved request — pending or in flight — of one
        tenant, or of all of them, and return them in admission order."""
        with self._cond:
            taken: List[_Pending] = []
            kept: List[_Pending] = []
            for pending in self._pending:
                mine = tenant is None or pending.request.tenant == tenant
                (taken if mine else kept).append(pending)
            self._pending = kept
            for feed_id in list(self._inflight) if tenant is None else [tenant]:
                taken.extend(self._inflight.pop(feed_id, ()))
        return sorted(taken, key=lambda item: item.sequence)

    def _cancel(self, leftovers: List[_Pending], reason: str) -> None:
        for pending in leftovers:
            tenant = pending.request.tenant
            self.telemetry.tenant(tenant).cancelled += 1
            self._resolve(
                pending,
                Response(
                    status=STATUS_CANCELLED,
                    tenant=tenant,
                    deferred_epochs=pending.deferred_epochs,
                    reason=reason,
                ),
            )

    def _resolve(self, pending: _Pending, response: Response) -> None:
        """Resolve one request's future from the scheduler thread."""
        self._latencies.append(time.perf_counter() - pending.admitted_at)
        if pending.span is not None:
            pending.span.attrs["status"] = response.status
            self.obs.tracer.finish(pending.span)
            self._finished_spans.append((pending.sequence, pending.span))
        self._post(self._set_result, pending.future, response)

    def _post(self, setter, future: "asyncio.Future[Response]", outcome) -> None:
        """Hand a future its outcome on the client's loop, from this thread."""
        loop = self._loop
        if loop is None or loop.is_closed():  # pragma: no cover - shutdown race
            return
        loop.call_soon_threadsafe(setter, future, outcome)

    @staticmethod
    def _set_result(future: "asyncio.Future[Response]", response: Response) -> None:
        if not future.done():
            future.set_result(response)

    @staticmethod
    def _set_exception(
        future: "asyncio.Future[Response]", error: BaseException
    ) -> None:
        if not future.done():
            future.set_exception(error)
