"""The live front door end to end: determinism, attribution, lifecycle.

The load-bearing test is the equivalence suite: a seeded client driving the
same request sequence through the asyncio door must leave fingerprints, gas
bills and chain state bit-identical to the equivalent batch run.  The door is
served serially: a process-mode scheduler refuses it before any lane starts.
"""

from __future__ import annotations

import asyncio
import multiprocessing

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import GrubConfig
from repro.frontdoor import (
    FrontDoor,
    REJECT_DOOR_CLOSED,
    REJECT_UNAUTHORIZED,
    REJECT_UNKNOWN_TENANT,
    Request,
    RequestMetricsMiddleware,
    STATUS_CANCELLED,
    STATUS_REJECTED,
    STATUS_SETTLED,
)
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec
from repro.obs import Observability
from repro.workloads.synthetic import SyntheticWorkload

EPOCH = 4


def make_spec(feed_id: str, **overrides) -> FeedSpec:
    return FeedSpec(
        feed_id=feed_id,
        config=GrubConfig(epoch_size=EPOCH, algorithm="memoryless", k=1),
        **overrides,
    )


def make_ops(feed_id: str, count: int, *, seed: int = 1):
    return list(
        SyntheticWorkload(
            read_write_ratio=2.0,
            num_operations=count,
            num_keys=3,
            key_prefix=f"{feed_id}-k",
            seed=seed,
        ).operations()
    )


def build_fleet(n_feeds: int = 3, n_ops: int = 10, **spec_overrides):
    registry = FeedRegistry()
    workloads = {}
    for index in range(n_feeds):
        feed_id = f"feed-{index}"
        registry.create_feed(make_spec(feed_id, **spec_overrides))
        workloads[feed_id] = make_ops(feed_id, n_ops, seed=11 + index)
    return registry, workloads


def drive_live(scheduler, workloads, *, door=None):
    """Submit every workload operation as a live request (admission order =
    feed order, op order), deterministically latched to the first boundary."""
    door = door or FrontDoor(scheduler, held=True)

    async def main():
        async with door.serving() as d:
            tasks = [
                asyncio.create_task(
                    d.submit(Request(tenant=feed_id, operation=operation))
                )
                for feed_id, operations in workloads.items()
                for operation in operations
            ]
            await asyncio.sleep(0)
            d.release()
            responses = await asyncio.gather(*tasks)
            d.close()
        return responses

    responses = asyncio.run(main())
    return door, responses


class TestLiveBatchEquivalence:
    def test_live_run_matches_batch_run_bit_for_bit(self):
        registry, workloads = build_fleet()
        baseline = EpochScheduler(registry, epoch_size=EPOCH).run(workloads)

        registry2, workloads2 = build_fleet()
        scheduler = EpochScheduler(registry2, epoch_size=EPOCH)
        door, responses = drive_live(scheduler, workloads2)

        assert door.fleet.fingerprint() == baseline.fingerprint()
        assert registry2.chain.height == registry.chain.height
        assert all(response.ok for response in responses)
        # Every unit of per-feed epoch gas is attributed to exactly one request.
        assert sum(r.gas for r in responses) == sum(
            feed.gas_feed + feed.gas_application
            for feed in baseline.feeds.values()
        )

    def test_a_process_scheduler_refuses_the_door_before_any_lane_starts(self):
        """A live source forces one lockstep epoch per lane order, where
        lanes lose to serial, so a process-mode scheduler refuses it:
        ``serving()`` raises the typed refusal, every request submitted
        meanwhile resolves — with the refusal, or turned away at the closed
        door — and no lane process is ever started."""
        registry, workloads = build_fleet(n_feeds=2, n_ops=3)
        scheduler = EpochScheduler(
            registry, epoch_size=EPOCH, execution_mode="process", num_workers=2
        )
        door = FrontDoor(scheduler, held=True)
        before = set(multiprocessing.active_children())
        outcomes = []

        async def main():
            async with door.serving() as d:
                tasks = [
                    asyncio.create_task(
                        d.submit(Request(tenant=feed_id, operation=operation))
                    )
                    for feed_id, operations in workloads.items()
                    for operation in operations
                ]
                outcomes.extend(
                    await asyncio.wait_for(
                        asyncio.gather(*tasks, return_exceptions=True), 5
                    )
                )

        with pytest.raises(ConfigurationError, match="lanes lose to serial") as raised:
            asyncio.run(main())
        assert len(outcomes) == 6
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                assert outcome is raised.value
            else:
                assert (outcome.status, outcome.reason) == (
                    STATUS_REJECTED,
                    REJECT_DOOR_CLOSED,
                )
        assert door._pending == [] and not any(door._inflight.values())
        assert set(multiprocessing.active_children()) == before

    def test_pre_seeded_workloads_execute_ahead_of_live_requests(self):
        # A live run may pre-seed queues exactly like a batch run; seeded
        # operations execute first and own no request futures.
        registry, workloads = build_fleet(n_feeds=1, n_ops=8)
        baseline = EpochScheduler(registry, epoch_size=EPOCH).run(workloads)

        registry2, workloads2 = build_fleet(n_feeds=1, n_ops=8)
        scheduler = EpochScheduler(registry2, epoch_size=EPOCH)
        seeded = {"feed-0": workloads2["feed-0"][:5]}
        live_ops = {"feed-0": workloads2["feed-0"][5:]}
        door = FrontDoor(scheduler, held=True)

        async def main():
            async with door.serving(seeded) as d:
                tasks = [
                    asyncio.create_task(
                        d.submit(Request(tenant="feed-0", operation=op))
                    )
                    for op in live_ops["feed-0"]
                ]
                await asyncio.sleep(0)
                d.release()
                responses = await asyncio.gather(*tasks)
                d.close()
            return responses

        responses = asyncio.run(main())
        assert door.fleet.fingerprint() == baseline.fingerprint()
        assert all(response.ok for response in responses)
        assert door.telemetry.tenant("feed-0").settled == 3


class TestGasAndDeferralAttribution:
    def test_epoch_gas_splits_evenly_across_requests(self):
        registry, workloads = build_fleet(n_feeds=1, n_ops=4)
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        door, responses = drive_live(scheduler, workloads)
        feed = door.fleet.feed("feed-0")
        epoch_gas = feed.gas_feed + feed.gas_application
        share, remainder = divmod(epoch_gas, 4)
        expected = sorted(share + (1 if i < remainder else 0) for i in range(4))
        assert sorted(r.gas for r in responses) == expected
        assert all(r.epoch == 0 for r in responses)

    def test_quota_deferral_stamps_requests_and_telemetry(self):
        registry = FeedRegistry()
        registry.create_feed(make_spec("throttled", max_ops_per_epoch=1))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        workloads = {"throttled": make_ops("throttled", 3)}
        # burst_epochs=3 so the door's rate limiter admits the whole burst;
        # the *scheduler's* quota machinery is what defers execution here.
        door, responses = drive_live(
            scheduler, workloads, door=FrontDoor(scheduler, burst_epochs=3, held=True)
        )
        # One op per epoch: the 2nd and 3rd requests wait 1 and 2 boundaries.
        assert [r.epoch for r in responses] == [0, 1, 2]
        assert [r.deferred_epochs for r in responses] == [0, 1, 2]
        assert door.telemetry.tenant("throttled").deferrals == 3
        assert door.fleet.feed("throttled").deferred_ops == 3


class TestRequestLifecycle:
    def test_unknown_tenant_rejected_not_crashed(self):
        registry, workloads = build_fleet(n_feeds=1, n_ops=2)
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        door = FrontDoor(scheduler)

        async def main():
            async with door.serving() as d:
                response = await d.submit(Request.read("ghost", "k"))
                d.close()
            return response

        response = asyncio.run(main())
        assert response.status == STATUS_REJECTED
        assert response.reason == REJECT_UNKNOWN_TENANT

    @pytest.mark.parametrize(
        "tokens, reason",
        [(None, REJECT_UNKNOWN_TENANT), ({"feed-0": "secret"}, REJECT_UNAUTHORIZED)],
        ids=["open", "tokens"],
    )
    def test_client_chosen_tenant_names_share_one_telemetry_row(self, tokens, reason):
        """Whatever turns away a tenant the fleet does not host — the door
        itself, or the auth layer above the metrics — 10 000 such names leave
        one row; a hosted tenant keeps its own row and its own reasons."""
        registry, _ = build_fleet(n_feeds=1, n_ops=0)
        door = FrontDoor(EpochScheduler(registry, epoch_size=EPOCH), tokens=tokens)

        async def main():
            async with door.serving() as d:
                for index in range(10_000):
                    await d.submit(Request.read(f"ghost-{index}", "k"))
                d.close()
                await d.submit(Request.read("feed-0", "k", token="secret"))

        asyncio.run(main())
        rows = door.telemetry.tenants
        assert set(rows) == {"feed-0", RequestMetricsMiddleware.UNKNOWN_TENANT}
        assert door.telemetry.rejected == 10_001
        assert rows[RequestMetricsMiddleware.UNKNOWN_TENANT].rejected == {reason: 10_000}
        assert rows["feed-0"].rejected == {REJECT_DOOR_CLOSED: 1}

    def test_submissions_after_close_rejected(self):
        registry, _ = build_fleet(n_feeds=1, n_ops=2)
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        door = FrontDoor(scheduler)

        async def main():
            async with door.serving() as d:
                d.close()
                return await d.submit(Request.read("feed-0", "k"))

        response = asyncio.run(main())
        assert response.status == STATUS_REJECTED
        assert response.reason == REJECT_DOOR_CLOSED

    def test_not_before_epoch_fast_forwards_the_idle_fleet(self):
        registry, _ = build_fleet(n_feeds=1, n_ops=0)
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        door = FrontDoor(scheduler, held=True)

        async def main():
            async with door.serving() as d:
                task = asyncio.create_task(
                    d.submit(Request.read("feed-0", "k", not_before_epoch=5))
                )
                await asyncio.sleep(0)
                d.release()
                response = await task
                d.close()
            return response

        response = asyncio.run(main())
        assert response.status == STATUS_SETTLED
        assert response.epoch == 5
        # Epochs 0–4 were skipped, not run: only epoch 5 has a roster entry.
        assert [epoch for epoch, _ in door.fleet.rosters] == [5]
        assert door.fleet.epochs_run == 6

    def test_eviction_mid_run_cancels_queued_requests(self):
        registry = FeedRegistry()
        registry.create_feed(make_spec("resident"))
        registry.create_feed(make_spec("leaver", max_ops_per_epoch=1))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.evict("leaver", at_epoch=1)
        workloads = {
            "resident": make_ops("resident", 8),
            "leaver": make_ops("leaver", 3),
        }
        door, responses = drive_live(
            scheduler, workloads, door=FrontDoor(scheduler, burst_epochs=3, held=True)
        )
        leaver = [r for r in responses if r.tenant == "leaver"]
        assert sorted(r.status for r in leaver) == [
            STATUS_CANCELLED,
            STATUS_CANCELLED,
            STATUS_SETTLED,
        ]
        stats = door.telemetry.tenant("leaver")
        assert stats.settled == 1 and stats.cancelled == 2
        assert door.fleet.feed("leaver").cancelled_ops == 2

    def test_scheduler_crash_fails_the_request_in_flight_and_closes_the_door(self):
        """The epoch loop raises behind ``serving()``: the request in flight
        gets the error itself (not a "run finished" cancellation), a request
        submitted afterwards is turned away at a closed door instead of
        waiting for ever on a queue nobody drains, and the ``async with``
        re-raises the same error on the way out."""
        registry, _ = build_fleet(n_feeds=2, n_ops=0)
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        crash = RuntimeError("planner exploded")

        def plan(feed_ids, *, block_gas_limit):
            raise crash

        scheduler.planner.plan = plan
        door = FrontDoor(scheduler)
        outcome = {}

        async def main():
            async with door.serving() as d:
                try:
                    await asyncio.wait_for(d.submit(Request.read("feed-0", "k")), 5)
                except RuntimeError as error:
                    outcome["in flight"] = error
                # Once the scheduler thread is gone, nobody drains the queue.
                await asyncio.wait_for(asyncio.to_thread(door._thread.join), 5)
                outcome["late"] = await asyncio.wait_for(
                    d.submit(Request.read("feed-1", "k")), 5
                )

        with pytest.raises(RuntimeError) as raised:
            asyncio.run(main())
        assert raised.value is crash
        assert outcome["in flight"] is crash
        assert outcome["late"].status == STATUS_REJECTED
        assert outcome["late"].reason == REJECT_DOOR_CLOSED
        assert door._pending == [] and not any(door._inflight.values())

    def test_fleet_property_requires_a_finished_run(self):
        registry, _ = build_fleet(n_feeds=1, n_ops=0)
        door = FrontDoor(EpochScheduler(registry, epoch_size=EPOCH))
        with pytest.raises(ConfigurationError):
            door.fleet

    def test_serving_twice_rejected(self):
        registry, _ = build_fleet(n_feeds=1, n_ops=0)
        door = FrontDoor(EpochScheduler(registry, epoch_size=EPOCH))

        async def main():
            async with door.serving() as d:
                d.close()
            async with door.serving():
                pass

        with pytest.raises(ConfigurationError, match="already serving"):
            asyncio.run(main())


class TestObservability:
    def test_span_tree_roots_at_frontdoor_with_request_spans(self):
        obs = Observability(enabled=True)
        registry, workloads = build_fleet(n_feeds=2, n_ops=4)
        scheduler = EpochScheduler(registry, epoch_size=EPOCH, obs=obs)
        door, responses = drive_live(scheduler, workloads)

        roots = obs.tracer.roots
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "frontdoor"
        children = [span.name for span in root.children]
        assert "run" in children
        request_spans = [
            span for span in root.children if span.name == "frontdoor.request"
        ]
        assert len(request_spans) == len(responses)
        assert all(span.finished for span in request_spans)
        assert {span.attrs["status"] for span in request_spans} == {STATUS_SETTLED}
        # run → epoch nesting is preserved under the new root.
        run_span = next(span for span in root.children if span.name == "run")
        assert [s.name for s in run_span.children].count("epoch") == len(
            [epoch for epoch, _ in door.fleet.rosters]
        )

    def test_latency_histogram_and_door_samples_populate(self):
        obs = Observability(enabled=True)
        registry, workloads = build_fleet(n_feeds=1, n_ops=4)
        scheduler = EpochScheduler(registry, epoch_size=EPOCH, obs=obs)
        door, responses = drive_live(scheduler, workloads)

        histograms = obs.registry.histograms("request_latency_seconds")
        assert sum(h.count for h in histograms) == len(responses)
        assert len(door.latencies) == len(responses)
        report = door.percentiles()
        assert set(report) == {"p50", "p95", "p99"}
        assert all(value is not None and value >= 0.0 for value in report.values())

    def test_disabled_obs_still_reports_percentiles(self):
        registry, workloads = build_fleet(n_feeds=1, n_ops=4)
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        door, responses = drive_live(scheduler, workloads)
        assert all(v is not None for v in door.percentiles().values())
