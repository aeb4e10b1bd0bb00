"""Group commit at the idle boundary: the rule on explicit times, then live.

:func:`gather_rule` is a pure function, so every clause is pinned here without
sleeping.  The two real-time tests at the end drive an open (never held) serial
door and bound what the rule is for: epochs per burst, and a lone caller's wait.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.config import GrubConfig
from repro.frontdoor import FrontDoor, Request
from repro.frontdoor.door import (
    GATHER_COUNTER,
    GATHER_HISTOGRAM,
    GATHER_LIMIT_S,
    GATHER_QUIET_FRACTION,
    Gather,
    gather_rule,
)
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec
from repro.obs import Observability

QUIET_S = GATHER_LIMIT_S * GATHER_QUIET_FRACTION
#: Three tenants: two take a whole 4-operation epoch, one is quota-capped at 2.
SLICES = {"a": 4, "b": 4, "capped": 2}
T0 = 100.0


def rule(eligible, now, **kwargs) -> Gather:
    return gather_rule(eligible, SLICES, now, **kwargs)


class TestGatherRule:
    def test_nothing_pending_waits_for_the_first_arrival(self):
        assert rule([], T0) == Gather(None, None, 1)

    def test_a_full_slice_goes_at_once(self):
        eligible = [("b", T0)] + [("a", T0)] * 4
        assert rule(eligible, T0).ended == "fill"
        # More than a slice would only defer: still "fill", never a wait.
        assert rule(eligible + [("a", T0)], T0).ended == "fill"

    def test_a_quota_tenant_fills_at_its_quota(self):
        assert rule([("capped", T0)], T0).ended is None
        assert rule([("capped", T0)] * 2, T0).ended == "fill"

    def test_the_oldest_request_at_the_limit_goes(self):
        eligible = [("a", T0), ("b", T0 + GATHER_LIMIT_S - 1e-4)]
        assert rule(eligible, T0 + GATHER_LIMIT_S - 5e-5).ended is None
        assert rule(eligible, T0 + GATHER_LIMIT_S).ended == "limit"

    def test_requests_that_piled_up_behind_an_epoch_do_not_wait_again(self):
        # Admitted while a 12 ms epoch ran: already past the limit at the poll.
        assert rule([("a", T0), ("b", T0 + 0.011)], T0 + 0.012).ended == "limit"

    def test_a_quiet_door_goes_after_the_fraction(self):
        eligible = [("a", T0), ("b", T0 + 1e-3)]
        assert rule(eligible, T0 + 1e-3 + QUIET_S - 1e-5).ended is None
        assert rule(eligible, T0 + 1e-3 + QUIET_S).ended == "quiet"

    def test_while_gathering_it_says_how_long_and_how_many(self):
        # Quiet comes first: 1 ms after a lone arrival, the window has 1.5 ms left.
        verdict = rule([("a", T0)], T0 + 1e-3)
        assert verdict.ended is None
        assert verdict.wait_s == pytest.approx(QUIET_S - 1e-3)
        # The fewest arrivals that could fill a slice: the capped tenant's 2.
        assert verdict.wake_after == 2
        # The limit comes first, counted from the oldest request's admission.
        verdict = rule([("a", T0)] * 3 + [("b", T0 + 0.009)], T0 + 0.0092)
        assert verdict.wait_s == pytest.approx(0.0008)
        assert verdict.wake_after == 1

    def test_requests_for_a_later_epoch_only_are_not_gathered(self):
        assert rule([], T0, scheduled=True) == Gather("nothing")

    def test_close_and_release_end_the_gather_immediately(self):
        assert rule([("a", T0)], T0, flush=True).ended == "closed"
        assert rule([], T0, flush=True) == Gather("nothing")


def build_door(*, epoch_size: int, obs=None, held: bool = False, **specs) -> FrontDoor:
    registry = FeedRegistry()
    config = GrubConfig(epoch_size=epoch_size, algorithm="memoryless", k=1)
    for feed_id, quota in specs.items():
        registry.create_feed(
            FeedSpec(feed_id=feed_id, config=config, max_ops_per_epoch=quota)
        )
    scheduler = EpochScheduler(registry, epoch_size=epoch_size, obs=obs)
    return FrontDoor(scheduler, burst_epochs=8, held=held)


def gather_ends(obs: Observability) -> dict:
    return {
        dict(counter.labels)["ended"]: counter.value
        for counter in obs.registry.instruments()
        if counter.name == GATHER_COUNTER
    }


def request_spans(obs: Observability):
    return [s for s in obs.tracer.roots[0].children if s.name == "frontdoor.request"]


class TestDoorSlices:
    def test_a_slice_is_the_epoch_size_capped_by_the_quota(self):
        door = build_door(epoch_size=8, free=None, capped=3, roomy=20)
        assert door._slices == {"free": 8, "capped": 3, "roomy": 8}


class TestGatherObservability:
    def run_stamped(self, door, requests):
        """The deterministic recipe: stamp the sequence under the hold, release."""

        async def main():
            async with door.serving() as d:
                tasks = [asyncio.create_task(d.submit(r)) for r in requests]
                await asyncio.sleep(0)
                d.release()
                responses = await asyncio.gather(*tasks)
                d.close()
            return responses

        return asyncio.run(main())

    def test_release_of_a_stamped_sequence_ends_the_gather_at_once(self):
        obs = Observability()
        door = build_door(epoch_size=4, obs=obs, held=True, a=None, b=None)
        requests = [Request.read(t, f"k{i}") for i in range(3) for t in ("a", "b")]
        responses = self.run_stamped(door, requests)
        assert [r.epoch for r in responses] == [0] * 6
        assert gather_ends(obs) == {"closed": 1}

    def test_counters_add_up_to_the_epochs_that_began_idle(self):
        obs = Observability()
        door = build_door(epoch_size=4, obs=obs, held=True, throttled=1)
        requests = [Request.read("throttled", f"k{i}") for i in range(3)]
        responses = self.run_stamped(door, requests)
        # Three epochs, but only the first began idle: the other two ran
        # deferred work, which is never made to wait.
        assert [r.epoch for r in responses] == [0, 1, 2]
        assert sum(gather_ends(obs).values()) == 1
        assert obs.registry.find(GATHER_HISTOGRAM).count == 1

    def test_request_spans_say_which_epoch_and_where_the_time_went(self):
        obs = Observability()
        door = build_door(epoch_size=4, obs=obs, held=True, throttled=2)
        requests = [Request.read("throttled", f"k{i}") for i in range(5)]
        responses = self.run_stamped(door, requests)
        spans = request_spans(obs)
        assert [s.attrs["epoch"] for s in spans] == [r.epoch for r in responses]
        assert [r.epoch for r in responses] == [0, 0, 1, 1, 2]
        for span in spans:
            queue_wait, execution = span.attrs["queue_wait_s"], span.attrs["exec_s"]
            assert queue_wait >= 0.0 and execution > 0.0
            # admission → taken → settled, then the hop that resolves the
            # future: the two attributes cover the span up to that hop.
            hop = span.duration - (queue_wait + execution)
            assert -1e-3 < hop < 0.05
        # Deferred requests rode through later epochs: their execution share
        # grows with the epoch that served them, their queue wait does not.
        executions = [s.attrs["exec_s"] for s in spans]
        assert executions[0] < executions[2] < executions[4]


class TestLiveGather:
    """Real time, an open serial door: what the rule buys and what it costs."""

    def test_a_paced_burst_settles_in_a_few_epochs(self):
        obs = Observability()
        door = build_door(epoch_size=32, obs=obs, a=None, b=None)
        count, spacing = 40, 0.0005

        async def main():
            async with door.serving() as d:
                tasks = []
                start = time.perf_counter()
                for index in range(count):
                    # asyncio timers are a millisecond coarse: spin to the due time.
                    while time.perf_counter() < start + index * spacing:
                        await asyncio.sleep(0)
                    tenant = "ab"[index % 2]
                    tasks.append(
                        asyncio.create_task(d.submit(Request.read(tenant, f"k{index}")))
                    )
                responses = await asyncio.wait_for(asyncio.gather(*tasks), 10)
                d.close()
            return responses

        responses = asyncio.run(main())
        assert all(response.ok for response in responses)
        assert door._pending == [] and not any(door._inflight.values())
        epochs = {response.epoch for response in responses}
        # 20 ms of arrivals against a 10 ms limit: two or three epochs (about
        # one an arrival before the gather), with room for a stalled host.
        assert len(epochs) <= 4
        assert sum(gather_ends(obs).values()) == len(epochs)
        assert obs.registry.find(GATHER_HISTOGRAM).count == len(epochs)

    def test_a_lone_caller_waits_the_quiet_window_not_the_limit(self):
        obs = Observability()
        door = build_door(epoch_size=32, obs=obs, a=None)

        async def main():
            async with door.serving() as d:
                # One closed-loop client: each request finds the fleet idle.
                responses = [
                    await asyncio.wait_for(d.submit(Request.read("a", f"k{i}")), 10)
                    for i in range(5)
                ]
                d.close()
            return responses

        responses = asyncio.run(main())
        assert all(response.ok for response in responses)
        assert len({response.epoch for response in responses}) == 5
        waits = sorted(span.attrs["queue_wait_s"] for span in request_spans(obs))
        assert waits[0] >= QUIET_S
        # The median, so that one descheduled wake-up on a busy host is not a failure.
        assert waits[2] < GATHER_LIMIT_S
        ends = gather_ends(obs)
        assert ends.get("quiet", 0) >= 3 and sum(ends.values()) == 5
