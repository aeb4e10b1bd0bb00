"""The gateway's live front door: asyncio requests in, settled epochs out.

:class:`FrontDoor` is the canonical :class:`~repro.gateway.scheduler.RequestSource`:
clients ``await door.submit(request)`` on the event loop, the epoch scheduler
runs on a dedicated thread and drains the door at every epoch boundary, and
each request's future resolves when its epoch settles — carrying the settled
epoch, the request's even share of its feed's epoch gas bill, and how many
boundaries it sat deferred under its tenant's quota.

The two halves meet through a condition variable and, at the idle boundary
only, a deadline:

* loop thread — ``submit`` runs the middleware stack; an admitted request
  joins the pending list (FIFO, stamped with a global admission sequence and
  its admission time) and wakes the scheduler only when a waiting scheduler
  could act on it: the list was empty, or the arrival may have filled a slice.
* scheduler thread — ``poll`` takes every *eligible* pending request
  (``not_before_epoch <= epoch``) at each boundary; ``settled`` pops the
  executed head of each feed's in-flight queue and resolves the futures via
  ``loop.call_soon_threadsafe``.

Group commit: an epoch costs its transactions whatever it carries, so an idle
fleet does not start one for the first arrival.  ``poll(wait=True)`` keeps
gathering until :func:`gather_rule` says the arrivals are worth an epoch — some
tenant's next slice is full, the oldest request has waited
:data:`GATHER_LIMIT_S` since its *admission*, nothing has arrived for
:data:`GATHER_QUIET_FRACTION` of that limit, or the door closed / was
released.  The deadline touches nothing but *when* an idle boundary happens.
A fleet with queued or deferred work (``wait=False``) never gathers, so
overload keeps its natural batching, and requests that piled up while an epoch
ran are not made to wait again.

Determinism: epoch membership is driven purely by admission order and
``not_before_epoch`` eligibility.  A client that stamps its whole request
sequence before the fleet drains it (the seeded benchmark client, tests: a
held door, then :meth:`FrontDoor.release`, which ends the gather at once)
produces **bit-identical** fingerprints, gas bills and chain state to the
equivalent batch run — in serial and process modes alike.  Requests
racing the epoch clock in real time are serviced correctly, but *which*
boundary catches them is scheduling weather, not physics — the gather
deadline is part of that weather — and is the one thing a replay cannot pin.

Observability: the run's span tree grows a ``frontdoor`` root above
``run → epoch``, each request gets a detached ``frontdoor.request`` span
(admission → resolution) adopted under the root in admission order — a
settled request's span says which ``epoch`` served it and splits its time into
``queue_wait_s`` (admission → taken by a boundary, the gather included) and
``exec_s`` (taken → settled) — and end-to-end latency lands in the
``request_latency_seconds`` histograms via
:class:`~repro.frontdoor.middleware.RequestMetricsMiddleware`.  Every epoch
that began at an idle boundary counts in ``frontdoor_gather_total{ended=…}``
(what ended its gather) and ``frontdoor_gather_seconds`` (how long the fleet
held it back).  The door additionally keeps its own raw latency samples so
p50/p95/p99 reporting works even with the obs plane disabled.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigurationError
from repro.common.types import Operation
from repro.gateway.metrics import FleetTelemetry
from repro.gateway.scheduler import EpochScheduler, RequestSource
from repro.obs.metrics import (
    percentile as latency_percentile,
    percentiles as latency_percentiles,
)
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
    "GATHER_LIMIT_S",
    "GATHER_QUIET_FRACTION",
    "Gather",
    "gather_rule",
    "latency_percentile",
    "latency_percentiles",
]

#: The longest an idle fleet holds back an epoch it could start, counted from
#: the oldest eligible request's admission (seconds).  Two orders under the
#: chain's own ``propagation_delay``, 1/25 of the benchmark's latency limit.
#:
#: Measured, not tuned by hand — ``door_open`` steps of 3 s, seeds 21 / 22,
#: ``gas_per_op`` over the 3 000 and 4 500 req/s steps and p50 at 3 000 req/s
#: (before the gather: 22 728 / 22 545 gas, 2.2 / 1.6 ms), quiet fraction 0.25:
#:
#: ======  =================  ==========  ==============
#: limit   gas_per_op         vs. before  p50 @ 3 000/s
#: ======  =================  ==========  ==============
#:  5 ms   17 899 / 17 632    −21.5 %      7.5 /  8.0 ms
#: 10 ms   15 894 / 15 764    −30.1 %     12.6 / 12.0 ms
#: 20 ms   14 760 / 14 544    −35.3 %     17.7 / 23.4 ms
#: ======  =================  ==========  ==============
#:
#: 10 ms is the knee: the first 5 ms buy 21 points of Gas, the next 5 buy 9,
#: the next 10 buy 5 — by then a tenant's 16-operation slice fills first at
#: 4 500 req/s and the limit stops mattering.
GATHER_LIMIT_S = 0.010
#: The gather also ends once nothing has arrived for this share of the limit,
#: so a lone caller, or a few closed-loop clients, wait 2.5 ms, not the limit.
#: Same steps, limit 10 ms: 0.10 → 19 387 / 17 689 gas (a 1 ms window is the
#: granularity of an asyncio timer, so any asyncio-paced client looks quiet
#: between two sends: epochs carried 14–18 operations at 3 000 req/s, not
#: 41–43, and in a probe with obs attached, seed 12, "quiet" ended 543 of 546
#: gathers there); 0.15 → 15 759 (seed 22); 0.25 → 15 894 / 15 764; 0.50 →
#: 15 826 / 15 631.  Flat from 0.15 up: 0.25 keeps a margin over the timer
#: without making the lone caller pay for it.
GATHER_QUIET_FRACTION = 0.25

#: Time an idle fleet held back an epoch it could have started (seconds).
GATHER_HISTOGRAM = "frontdoor_gather_seconds"
#: Epochs that began at an idle boundary, labelled by what ended the gather.
GATHER_COUNTER = "frontdoor_gather_total"


class Gather(NamedTuple):
    """One reading of :func:`gather_rule`: start the epoch, or keep waiting."""

    #: Why the boundary happens now — ``"fill"``, ``"limit"``, ``"quiet"`` or
    #: ``"closed"``, or ``"nothing"`` when there is nothing eligible to gather
    #: and no reason to wait for it.  ``None`` while the gather goes on.
    ended: Optional[str]
    #: Seconds until the rule can next change its mind by itself (``None``:
    #: never — only an arrival, ``close()`` or ``release()`` can).
    wait_s: Optional[float] = None
    #: Arrivals after which it may change its mind sooner: the fewest that
    #: could fill some tenant's slice.
    wake_after: int = 0


def gather_rule(
    eligible: Sequence[Tuple[str, float]],
    slices: Mapping[str, int],
    now: float,
    *,
    scheduled: bool = False,
    flush: bool = False,
) -> Gather:
    """Are the arrivals at an idle boundary worth an epoch yet?

    ``eligible`` is ``(tenant, admitted_at)`` of every pending request this
    epoch may take, in admission order; ``slices`` is how many operations of
    each tenant one epoch runs (more would only defer); ``scheduled`` says
    requests are pending for a later epoch; ``flush`` that the door is closed,
    or was released with its sequence already stamped.  A pure function of its
    arguments — the lock, the clock and the waiting are :meth:`FrontDoor.poll`'s.
    """
    if not eligible:
        if flush or scheduled:
            # Run dry, or fast-forward to the scheduled epoch: no gather.
            return Gather("nothing")
        return Gather(None, None, 1)
    if flush:
        return Gather("closed")
    counts: Dict[str, int] = {}
    for tenant, _ in eligible:
        counts[tenant] = counts.get(tenant, 0) + 1
    missing = min(size - counts.get(tenant, 0) for tenant, size in slices.items())
    if missing <= 0:
        return Gather("fill")
    limit_in = eligible[0][1] + GATHER_LIMIT_S - now
    if limit_in <= 0.0:
        return Gather("limit")
    quiet_in = eligible[-1][1] + GATHER_LIMIT_S * GATHER_QUIET_FRACTION - now
    if quiet_in <= 0.0:
        return Gather("quiet")
    return Gather(None, min(limit_in, quiet_in), missing)


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
    def rejected(self) -> int:
        return sum(stats.rejected_total for stats in self.tenants.values())

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
    #: When a boundary took it, and when its epoch settled (``perf_counter``).
    taken_at: float = 0.0
    settled_at: float = 0.0


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
        #: Each tenant's per-epoch operation quota (``None``: uncapped) — the
        #: rate limiter's refill and the cap on the tenant's epoch slice.
        quotas = {
            feed_id: scheduler.registry.get(feed_id).spec.max_ops_per_epoch
            for feed_id in self._tenants
        }
        if middleware is None:
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
        #: Operations of each tenant one epoch runs: the lockstep epoch size,
        #: capped by the tenant's quota.  What :func:`gather_rule` fills.
        epoch_size = scheduler.epoch_size_for(sorted(self._tenants))
        self._slices: Dict[str, int] = {
            feed_id: min(epoch_size, quota or epoch_size)
            for feed_id, quota in quotas.items()
        }

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
        #: Arrivals until the gathering scheduler is woken early (0: it is not
        #: waiting on arrivals, nobody is notified).
        self._wake_after = 0
        #: The last epoch the middleware's ``on_epoch_settled`` hooks saw.
        self._settled_epoch: Optional[int] = None
        self._closed = False
        #: While held, boundaries take nothing: admissions accumulate in the
        #: pending list and the idle scheduler blocks in ``poll``.  This is
        #: the determinism latch — a seeded client admits its whole request
        #: sequence, then :meth:`release`\ s, so epoch membership depends
        #: only on the sequence (and eligibility stamps), never on how
        #: admission raced the epoch clock.
        self._held = held
        #: Set by :meth:`release`: what is pending was stamped under the hold,
        #: so the next boundary takes it without gathering.
        self._flush = False
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
            # Wake the gathering scheduler only when it could act: the list
            # was empty, or enough has arrived that a slice may be full.
            if self._wake_after:
                self._wake_after -= 1
                if not self._wake_after:
                    self._cond.notify_all()
        return await future

    def release(self) -> None:
        """Let boundaries take pending requests again.

        The deterministic client recipe: create the submit tasks, yield the
        loop once (``await asyncio.sleep(0)`` — every task runs straight to
        admission, there is no suspension point before the settlement
        future), then ``release()``.  Everything lands on the next boundary
        in admission order.
        """
        with self._cond:
            if self._held:
                self._held = False
                self._flush = bool(self._pending)
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

        With ``wait=True`` (the idle gateway) this is the group commit: block
        until :func:`gather_rule` says the arrivals are worth an epoch, the
        door closes, or everything pending is scheduled for a later epoch —
        the run loop fast-forwards to it via :meth:`next_epoch`.  One timed
        wait at a time, re-read when it expires or when :meth:`_enqueue`
        counts enough arrivals to matter.  With ``wait=False`` the fleet has
        queued work: take what there is and return at once.

        A held door blocks *unconditionally* — even a scheduler with seeded
        queues or pending churn parks at its first boundary until
        :meth:`release`.  That is the whole point of the latch: nothing about
        the run (not even batch work) advances until the client has stamped
        its request sequence.
        """
        with self._cond:
            entered: Optional[float] = None
            while True:
                if self._held and not self._closed:
                    self._cond.wait()
                    continue
                eligible: List[_Pending] = []
                later: List[_Pending] = []
                for pending in self._pending:
                    ready = pending.request.not_before_epoch <= epoch
                    (eligible if ready else later).append(pending)
                now = time.perf_counter()
                if not wait:
                    break
                if entered is None:
                    entered = now
                verdict = gather_rule(
                    [(p.request.tenant, p.admitted_at) for p in eligible],
                    self._slices,
                    now,
                    scheduled=bool(later),
                    flush=self._closed or self._flush,
                )
                if verdict.ended is not None:
                    break
                self._wake_after = verdict.wake_after
                self._cond.wait(verdict.wait_s)
            self._pending = later
            self._wake_after = 0
            self._flush = False
            if wait and eligible:
                # An epoch begins at an idle boundary: say why, and how long
                # the fleet held it back once it had something to run.
                held_back = now - max(entered, eligible[0].admitted_at)
                self.obs.counter(GATHER_COUNTER, ended=verdict.ended).inc()
                self.obs.histogram(GATHER_HISTOGRAM).observe(held_back)
            arrivals: Dict[str, List[Operation]] = {}
            for pending in eligible:
                pending.taken_at = now
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
        now = time.perf_counter()
        with self._cond:
            if epoch != self._settled_epoch:
                # The scheduler reports an epoch feed by feed; the layers'
                # clock ticks once for all of them.
                self._settled_epoch = epoch
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
                pending.settled_at = now
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
            attrs = pending.span.attrs
            attrs["status"] = response.status
            if response.status == STATUS_SETTLED:
                # Where the request's time went, and which epoch served it.
                attrs["epoch"] = response.epoch
                attrs["queue_wait_s"] = pending.taken_at - pending.admitted_at
                attrs["exec_s"] = pending.settled_at - pending.taken_at
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
