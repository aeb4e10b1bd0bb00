"""Middleware stack: composition order, auth, headers, rate limiting.

The concurrent-client tests drive the *real* front door (requests racing on
one event loop against a live scheduler thread); the unit tests exercise
layers in isolation around a stub endpoint.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import GrubConfig
from repro.frontdoor import (
    AuthTokenMiddleware,
    FrontDoor,
    Middleware,
    RateLimitMiddleware,
    REJECT_RATE_LIMITED,
    REJECT_UNAUTHORIZED,
    Request,
    Response,
    SecurityHeadersMiddleware,
    STATUS_REJECTED,
    STATUS_SETTLED,
    build_stack,
)
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec
from repro.obs import Observability

from export_checks import parse_prometheus

EPOCH = 4


def make_spec(feed_id: str, **overrides) -> FeedSpec:
    return FeedSpec(
        feed_id=feed_id,
        config=GrubConfig(epoch_size=EPOCH, algorithm="memoryless", k=1),
        **overrides,
    )


async def settle_endpoint(request: Request) -> Response:
    return Response(status=STATUS_SETTLED, tenant=request.tenant, epoch=0)


def run(coro):
    return asyncio.run(coro)


class RecordingMiddleware(Middleware):
    """Appends its tag on the way down and on the way back up."""

    def __init__(self, tag: str, trace: list) -> None:
        self.tag = tag
        self.trace = trace

    async def __call__(self, request, call_next):
        self.trace.append(f"{self.tag}>")
        response = await call_next(request)
        self.trace.append(f"<{self.tag}")
        return response


class TestStackComposition:
    def test_layers_run_in_declaration_order_and_unwind_in_reverse(self):
        trace: list = []
        stack = build_stack(
            [RecordingMiddleware("a", trace), RecordingMiddleware("b", trace)],
            settle_endpoint,
        )
        response = run(stack(Request.read("t", "k")))
        assert response.ok
        assert trace == ["a>", "b>", "<b", "<a"]

    def test_short_circuit_skips_inner_layers(self):
        trace: list = []

        class Reject(Middleware):
            async def __call__(self, request, call_next):
                return Response.rejected(request.tenant, "nope")

        stack = build_stack(
            [RecordingMiddleware("outer", trace), Reject(), RecordingMiddleware("inner", trace)],
            settle_endpoint,
        )
        response = run(stack(Request.read("t", "k")))
        assert response.status == STATUS_REJECTED
        # The inner layer and the endpoint never saw the request.
        assert trace == ["outer>", "<outer"]

    def test_empty_stack_is_the_bare_endpoint(self):
        stack = build_stack([], settle_endpoint)
        assert run(stack(Request.read("t", "k"))).ok


class TestAuthToken:
    def test_wrong_and_missing_tokens_rejected(self):
        stack = build_stack([AuthTokenMiddleware({"t": "s3cret"})], settle_endpoint)
        denied = run(stack(Request.read("t", "k", token="wrong")))
        assert denied.status == STATUS_REJECTED
        assert denied.reason == REJECT_UNAUTHORIZED
        assert run(stack(Request.read("t", "k"))).status == STATUS_REJECTED

    def test_unregistered_tenant_denied_by_default(self):
        stack = build_stack([AuthTokenMiddleware({"t": "s3cret"})], settle_endpoint)
        response = run(stack(Request.read("stranger", "k", token="s3cret")))
        assert response.reason == REJECT_UNAUTHORIZED

    def test_matching_token_passes(self):
        stack = build_stack([AuthTokenMiddleware({"t": "s3cret"})], settle_endpoint)
        assert run(stack(Request.read("t", "k", token="s3cret"))).ok


class TestSecurityHeaders:
    def test_headers_stamped_on_success_and_rejection(self):
        async def reject_endpoint(request):
            return Response.rejected(request.tenant, "nope")

        for endpoint in (settle_endpoint, reject_endpoint):
            response = run(
                build_stack([SecurityHeadersMiddleware()], endpoint)(
                    Request.read("t", "k")
                )
            )
            assert response.headers["x-content-type-options"] == "nosniff"
            assert response.headers["x-frame-options"] == "DENY"
            assert response.headers["cache-control"] == "no-store"

    def test_existing_headers_not_clobbered(self):
        async def endpoint(request):
            return Response(
                status=STATUS_SETTLED,
                tenant=request.tenant,
                headers={"cache-control": "max-age=5"},
            )

        response = run(
            build_stack([SecurityHeadersMiddleware()], endpoint)(Request.read("t", "k"))
        )
        assert response.headers["cache-control"] == "max-age=5"


class TestRateLimit:
    def test_bucket_drains_and_rejects(self):
        stack = build_stack(
            [RateLimitMiddleware({"t": 2}, burst_epochs=1)], settle_endpoint
        )

        async def drive():
            statuses = [await stack(Request.read("t", "k")) for _ in range(3)]
            return statuses

        first, second, third = run(drive())
        assert first.ok and second.ok
        assert third.status == STATUS_REJECTED
        assert third.reason == REJECT_RATE_LIMITED

    def test_unquota_tenant_is_unlimited(self):
        stack = build_stack(
            [RateLimitMiddleware({"t": None}, burst_epochs=1)], settle_endpoint
        )

        async def drive():
            return [await stack(Request.read("t", "k")) for _ in range(50)]

        assert all(response.ok for response in run(drive()))

    def test_epoch_boundary_refills_up_to_burst_capacity(self):
        limiter = RateLimitMiddleware({"t": 2}, burst_epochs=2)  # capacity 4
        stack = build_stack([limiter], settle_endpoint)

        async def drain(n):
            return [await stack(Request.read("t", "k")) for _ in range(n)]

        assert all(r.ok for r in run(drain(4)))
        assert run(drain(1))[0].status == STATUS_REJECTED
        limiter.on_epoch_settled(7)  # one epoch elapsed: +2 tokens
        results = run(drain(3))
        assert [r.ok for r in results] == [True, True, False]
        # A long idle gap refills to capacity, never beyond.
        limiter.on_epoch_settled(100)
        assert all(r.ok for r in run(drain(4)))
        assert run(drain(1))[0].status == STATUS_REJECTED

    def test_same_epoch_settlements_refill_once(self):
        # The scheduler fires settled() once per feed per epoch; repeated
        # notifications for one epoch must not multiply the refill.
        limiter = RateLimitMiddleware({"t": 1}, burst_epochs=1)
        stack = build_stack([limiter], settle_endpoint)
        assert run(stack(Request.read("t", "k"))).ok
        for _ in range(5):
            limiter.on_epoch_settled(3)
        async def burst():
            return [await stack(Request.read("t", "k")) for _ in range(2)]

        results = run(burst())
        assert sorted(r.status for r in results) == [STATUS_REJECTED, STATUS_SETTLED]

    def test_burst_epochs_must_be_positive(self):
        with pytest.raises(ValueError):
            RateLimitMiddleware({"t": 1}, burst_epochs=0)


class TestRateLimitUnderConcurrentClients:
    def test_over_quota_burst_rejected_at_the_door(self):
        """Five clients race one rate-limited feed: exactly the bucket's
        capacity settles, the rest are turned away without ever touching the
        epoch queue — and admission order decides who, deterministically."""
        registry = FeedRegistry()
        registry.create_feed(make_spec("metered", max_ops_per_epoch=2))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        door = FrontDoor(scheduler, burst_epochs=1, held=True)

        async def clients():
            async with door.serving() as d:
                tasks = [
                    asyncio.create_task(
                        d.submit(Request.read("metered", f"k{i}", sequence=i))
                    )
                    for i in range(5)
                ]
                await asyncio.sleep(0)
                d.release()
                responses = await asyncio.gather(*tasks)
                d.close()
            return responses

        responses = asyncio.run(clients())
        settled = [r for r in responses if r.ok]
        rejected = [r for r in responses if r.status == STATUS_REJECTED]
        assert len(settled) == 2 and len(rejected) == 3
        assert {r.reason for r in rejected} == {REJECT_RATE_LIMITED}
        # First-come-first-served: the bucket admits the first two clients.
        assert [r.ok for r in responses] == [True, True, False, False, False]
        assert door.telemetry.tenant("metered").rejected == {REJECT_RATE_LIMITED: 3}
        assert door.fleet.feed("metered").operations == 2


class EpochClockRecorder(Middleware):
    """Keeps every epoch its ``on_epoch_settled`` hook is told about."""

    def __init__(self) -> None:
        self.seen: list = []

    def on_epoch_settled(self, epoch: int) -> None:
        self.seen.append(epoch)


class TestEpochClockThroughALiveDoor:
    def test_each_settled_epoch_ticks_the_layers_once_in_order(self):
        """The scheduler reports a settled epoch feed by feed; a layer that
        counts epochs must still see each one exactly once."""
        registry = FeedRegistry()
        for index in range(3):
            registry.create_feed(make_spec(f"feed-{index}"))
        recorder = EpochClockRecorder()
        door = FrontDoor(
            EpochScheduler(registry, epoch_size=EPOCH), middleware=[recorder], held=True
        )

        async def clients():
            async with door.serving() as d:
                tasks = [
                    asyncio.create_task(
                        d.submit(Request.read(f"feed-{index}", f"k{i}", sequence=i))
                    )
                    for index in range(3)
                    for i in range(2 * EPOCH + 1)
                ]
                await asyncio.sleep(0)
                d.release()
                responses = await asyncio.gather(*tasks)
                d.close()
            return responses

        responses = asyncio.run(clients())
        assert sorted({r.epoch for r in responses}) == [0, 1, 2]
        assert recorder.seen == [0, 1, 2]


class TestRequestMetricsThroughALiveDoor:
    def test_a_client_chosen_tenant_name_cannot_forge_or_grow_metrics(self):
        """Requests for tenants the door does not host are counted under one
        fixed label, so the name — the client's to choose — neither reaches
        the export nor adds instruments, however many names are tried."""
        registry = FeedRegistry()
        registry.create_feed(make_spec("hosted"))
        obs = Observability()
        door = FrontDoor(EpochScheduler(registry, epoch_size=EPOCH, obs=obs))
        forged = 'x",status="ok"} 999\nforged_total{a="'

        async def clients():
            async with door.serving() as d:
                responses = [
                    await d.submit(Request.read(name, "k"))
                    for name in (forged, "ghost-1", "ghost-2", 'odd,b="c"\n')
                ]
                responses.append(await d.submit(Request.read("hosted", "k")))
                d.close()
            return responses

        responses = asyncio.run(clients())
        assert [r.status for r in responses] == [STATUS_REJECTED] * 4 + [STATUS_SETTLED]
        text = obs.export_prometheus()
        assert "forged_total" not in text and "ghost" not in text
        samples = parse_prometheus(text)
        assert "forged_total" not in samples
        assert sorted(
            (labels["tenant"], labels["status"], value)
            for labels, value in samples["frontdoor_requests_total"]
        ) == [("(unknown)", STATUS_REJECTED, 4.0), ("hosted", STATUS_SETTLED, 1.0)]
        assert len(obs.registry.histograms("request_latency_seconds")) == 2
