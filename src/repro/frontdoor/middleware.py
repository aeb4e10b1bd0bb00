"""Composable ASGI-style middleware for the gateway's live front door.

A request travels through a stack of middleware before it reaches the epoch
queue: each layer either passes it down (possibly annotating it), or
short-circuits with a rejection response that never touches the scheduler.
The shape is deliberately the web-framework one — ``await call_next(request)``
— so layers compose in declaration order and each sees exactly the responses
of the layers below it:

    stack = build_stack(
        [AuthTokenMiddleware(tokens),
         SecurityHeadersMiddleware(),
         RateLimitMiddleware(quotas),
         RequestMetricsMiddleware(obs)],
        endpoint,
    )

Order matters and the default order is security-first: authentication before
anything spends budget, rate limiting before the queue (a rejected request
must not consume an epoch slot), metrics innermost so latency measurements
cover queueing and settlement but not the rejection fast-path of the layers
above it.

Determinism: middleware decisions depend only on the request sequence and the
epoch-boundary refill schedule, never on wall-clock time — the same seeded
client replayed against the same fleet makes identical admission decisions,
which is what keeps a live run fingerprint-identical to its batch twin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Awaitable,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
)

from repro.common.types import Operation, Value
from repro.obs import Observability

#: The innermost handler type: takes the request to the epoch queue and
#: resolves when its epoch settles (or immediately, for a rejection).
Handler = Callable[["Request"], Awaitable["Response"]]

#: Response status values.
STATUS_SETTLED = "settled"
STATUS_REJECTED = "rejected"
STATUS_CANCELLED = "cancelled"

#: Rejection reasons the stock middleware emits.
REJECT_UNAUTHORIZED = "unauthorized"
REJECT_RATE_LIMITED = "rate_limited"
REJECT_UNKNOWN_TENANT = "unknown_tenant"
REJECT_DOOR_CLOSED = "door_closed"


@dataclass
class Request:
    """One live request: a tenant's operation plus its transport envelope.

    ``not_before_epoch`` is the request's *eligibility*: the earliest epoch
    boundary it may join.  It is the determinism lever — a seeded client
    stamps eligibilities instead of sleeping, so the same request sequence
    lands on the same epochs in every execution mode and every replay.
    """

    tenant: str
    operation: Operation
    token: Optional[str] = None
    headers: Dict[str, str] = field(default_factory=dict)
    not_before_epoch: int = 0

    @staticmethod
    def read(
        tenant: str,
        key: str,
        *,
        token: Optional[str] = None,
        size_bytes: int = 32,
        sequence: int = 0,
        not_before_epoch: int = 0,
    ) -> "Request":
        """A consumer read of one key."""
        return Request(
            tenant=tenant,
            operation=Operation.read(key, size_bytes=size_bytes, sequence=sequence),
            token=token,
            not_before_epoch=not_before_epoch,
        )

    @staticmethod
    def write(
        tenant: str,
        key: str,
        value: Value,
        *,
        token: Optional[str] = None,
        sequence: int = 0,
        not_before_epoch: int = 0,
    ) -> "Request":
        """A data-owner write of one key."""
        return Request(
            tenant=tenant,
            operation=Operation.write(key, value, sequence=sequence),
            token=token,
            not_before_epoch=not_before_epoch,
        )


@dataclass
class Response:
    """What a request's future resolves with.

    A settled response carries the request's epoch and its gas attribution:
    the even share of the epoch's per-feed gas bill across the operations
    that executed in it (the same batched-cost split the router applies to
    settlement transactions).  ``deferred_epochs`` counts how many boundaries
    the request sat planned-but-deferred under its tenant's quota before it
    finally executed.
    """

    status: str
    tenant: str
    epoch: Optional[int] = None
    gas: int = 0
    deferred_epochs: int = 0
    reason: Optional[str] = None
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SETTLED

    @staticmethod
    def rejected(tenant: str, reason: str) -> "Response":
        return Response(status=STATUS_REJECTED, tenant=tenant, reason=reason)


def build_stack(middleware: Sequence["Middleware"], endpoint: Handler) -> Handler:
    """Compose middleware (outermost first) around the endpoint handler."""
    handler = endpoint
    for layer in reversed(middleware):
        handler = _bind(layer, handler)
    return handler


def _bind(layer: "Middleware", call_next: Handler) -> Handler:
    async def bound(request: Request) -> Response:
        return await layer(request, call_next)

    return bound


class Middleware:
    """Base middleware: pass-through.  Subclasses override ``__call__``.

    A middleware that needs the epoch clock (rate-limit refill, say)
    overrides ``on_epoch_settled`` — the front door invokes it once per
    settled epoch boundary, for every layer in its stack.
    """

    async def __call__(self, request: Request, call_next: Handler) -> Response:
        return await call_next(request)

    def on_epoch_settled(self, epoch: int) -> None:  # pragma: no cover - hook
        """Epoch-boundary notification (deterministic clock for layers)."""


class AuthTokenMiddleware(Middleware):
    """Bearer-token authentication, one token per tenant.

    Rejects a request whose token does not match its tenant's registered
    token — before anything below it spends budget on the request.  Tenants
    without a registered token cannot authenticate at all (deny by default).
    """

    def __init__(self, tokens: Mapping[str, str]) -> None:
        self._tokens = dict(tokens)

    async def __call__(self, request: Request, call_next: Handler) -> Response:
        expected = self._tokens.get(request.tenant)
        if expected is None or request.token != expected:
            return Response.rejected(request.tenant, REJECT_UNAUTHORIZED)
        return await call_next(request)


class SecurityHeadersMiddleware(Middleware):
    """Stamp the standard security headers on every response.

    The usual reverse-proxy hygiene set — the response is data about verified
    chain state and must never be sniffed, framed, or cached by an
    intermediary.  Applied to rejections too: error responses leak through
    caches just as happily as successes.
    """

    HEADERS: Mapping[str, str] = {
        "x-content-type-options": "nosniff",
        "x-frame-options": "DENY",
        "cache-control": "no-store",
        "strict-transport-security": "max-age=63072000; includeSubDomains",
    }

    async def __call__(self, request: Request, call_next: Handler) -> Response:
        response = await call_next(request)
        for name, value in self.HEADERS.items():
            response.headers.setdefault(name, value)
        return response


class RateLimitMiddleware(Middleware):
    """Per-tenant token buckets, refilled by the epoch clock.

    Delegates the *rate* to the existing quota machinery: a tenant's refill
    is its :class:`~repro.gateway.registry.FeedSpec` ``max_ops_per_epoch``
    (the same number the scheduler's deferral quota enforces per epoch), and
    the bucket holds ``burst_epochs`` worth of it.  A tenant with no op quota
    is unlimited — exactly as it is inside the gateway.

    Buckets refill at **epoch boundaries**, not on wall time: every settled
    epoch adds one epoch's quota (gap epochs included, since an idle fleet
    fast-forwards).  The limiter therefore admits the same prefix of any
    request sequence on every replay — over-quota traffic is rejected at the
    door instead of growing the epoch queue without bound, while the
    scheduler's own per-epoch deferral keeps smoothing what was admitted.
    """

    def __init__(
        self,
        quotas: Mapping[str, Optional[int]],
        *,
        burst_epochs: int = 2,
    ) -> None:
        if burst_epochs <= 0:
            raise ValueError("burst_epochs must be positive")
        self._rates: Dict[str, Optional[int]] = dict(quotas)
        self._capacity: Dict[str, int] = {
            tenant: rate * burst_epochs
            for tenant, rate in self._rates.items()
            if rate is not None
        }
        self._tokens: Dict[str, int] = dict(self._capacity)
        self._last_epoch: Optional[int] = None

    async def __call__(self, request: Request, call_next: Handler) -> Response:
        rate = self._rates.get(request.tenant)
        if rate is not None:
            tokens = self._tokens.get(request.tenant, 0)
            if tokens <= 0:
                return Response.rejected(request.tenant, REJECT_RATE_LIMITED)
            self._tokens[request.tenant] = tokens - 1
        return await call_next(request)

    def on_epoch_settled(self, epoch: int) -> None:
        elapsed = 1 if self._last_epoch is None else max(0, epoch - self._last_epoch)
        self._last_epoch = epoch
        if not elapsed:
            return
        for tenant, capacity in self._capacity.items():
            rate = self._rates[tenant]
            assert rate is not None  # capacity only exists for rated tenants
            self._tokens[tenant] = min(
                capacity, self._tokens.get(tenant, 0) + rate * elapsed
            )


class RequestMetricsMiddleware(Middleware):
    """Feed the obs plane: per-tenant request counts and end-to-end latency.

    Innermost by convention, so the latency histogram measures admission →
    settlement (queueing included) rather than the rejection fast path of
    the layers above.  Purely observational — the obs plane must never
    influence fingerprints, so this layer reads the clock and increments
    instruments, nothing else.
    """

    #: End-to-end request latency, labelled by tenant and outcome.
    HISTOGRAM = "request_latency_seconds"
    #: Requests through the stack, labelled by tenant and outcome.
    COUNTER = "frontdoor_requests_total"
    #: The one tenant label for every request the door does not know the
    #: tenant of: the name is the client's to choose, and instruments are per
    #: label set, so labelling with it would let a client grow the registry.
    UNKNOWN_TENANT = "(unknown)"

    def __init__(self, obs: Observability) -> None:
        self.obs = obs

    async def __call__(self, request: Request, call_next: Handler) -> Response:
        started = time.perf_counter()
        response = await call_next(request)
        elapsed = time.perf_counter() - started
        tenant = (
            self.UNKNOWN_TENANT
            if response.reason == REJECT_UNKNOWN_TENANT
            else request.tenant
        )
        self.obs.histogram(
            self.HISTOGRAM, tenant=tenant, status=response.status
        ).observe(elapsed)
        self.obs.counter(self.COUNTER, tenant=tenant, status=response.status).inc()
        return response
