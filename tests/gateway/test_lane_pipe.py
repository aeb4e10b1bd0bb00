"""Each lane is one process on one pipe: a lane that dies ends the run with a
typed error instead of a hang or a raw pipe error, and a pipe that fills
never deadlocks the engine.

Every run here sits under a hard timeout (``bounded``), and every test
leaves no lane process behind.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from test_elastic_transfer import TIMEOUT_SECONDS, bounded

from repro.common.errors import LaneDied
from repro.common.types import KVRecord, Operation
from repro.core.config import GrubConfig
from repro.gateway import (
    EpochScheduler,
    FeedRegistry,
    FeedSpec,
    GasAwareShardPlanner,
    feed_state,
)
from repro.gateway.executor import LaneEngine
from repro.gateway.placement import FeedMove
from repro.obs.metrics import MetricsRegistry
from repro.workloads.synthetic import SyntheticWorkload

#: How soon a run must end once one of its lanes is killed.
DEATH_DEADLINE_SECONDS = 1


def fleet(operations: int):
    """Four feeds, ``operations`` each, over eight-operation epochs."""
    registry = FeedRegistry()
    workloads = {}
    for index in range(4):
        feed_id = f"feed-{index}"
        registry.create_feed(
            FeedSpec(
                feed_id=feed_id,
                config=GrubConfig(epoch_size=8, algorithm="memoryless", k=1 + index % 2),
                preload=[KVRecord.make(f"k{index}-{j:02d}", bytes(32)) for j in range(8)],
            )
        )
        workloads[feed_id] = SyntheticWorkload(
            read_write_ratio=2.0 + index,
            num_operations=operations,
            num_keys=6,
            key_prefix=f"k{index}-",
            seed=index + 1,
        ).operations()
    return registry, workloads


def static_scheduler(registry):
    """A static fleet on two lanes: placed once, ordered ahead."""
    return EpochScheduler(
        registry, num_shards=2, num_workers=2, execution_mode="process"
    )


def elastic_scheduler(registry):
    """The same fleet under the gas-aware planner: one lockstep epoch per
    order."""
    return EpochScheduler(
        registry,
        num_workers=2,
        execution_mode="process",
        planner=GasAwareShardPlanner(block_gas_fraction=0.01),
    )


class TestLaneDeath:
    @pytest.mark.parametrize("scheduler_for", [static_scheduler, elastic_scheduler])
    def test_killed_lane_ends_the_run_typed(self, monkeypatch, scheduler_for):
        """SIGKILL lane 1 once epoch 1 is merged: the run ends in
        ``LaneDied`` naming lane 1, promptly, with no lane left running."""
        registry, workloads = fleet(800)
        scheduler = scheduler_for(registry)
        genuine = LaneEngine.results

        def results(engine, epoch):
            merged = genuine(engine, epoch)
            if epoch == 1:
                process = engine._lanes[1].process
                process.kill()
                process.join(TIMEOUT_SECONDS)
            return merged

        monkeypatch.setattr(LaneEngine, "results", results)
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(LaneDied) as died:
            bounded(lambda: scheduler.run(workloads))
        assert time.monotonic() - started < DEATH_DEADLINE_SECONDS
        assert died.value.lane == 1 and died.value.epoch >= 2
        assert died.value.phase in ("epochs", "install", "migrate_out", "collect")
        assert set(multiprocessing.active_children()) <= before


class TestPipeBuffer:
    def test_large_install_lands_behind_unread_install_replies(self):
        """A > 1 MiB install order — four feeds of 4 096 preload keys — is
        sent to a lane whose reply to an earlier install is still unread:
        the lane is waiting for orders, so the order lands."""
        registry = FeedRegistry()
        small = [("churn", 256)]
        large = [(f"large-{index}", 4096) for index in range(4)]
        for feed_id, keys in small + large:
            registry.create_feed(
                FeedSpec(
                    feed_id=feed_id,
                    config=GrubConfig(epoch_size=4),
                    preload=[KVRecord.make(f"{feed_id}/{j:05d}", bytes(32)) for j in range(keys)],
                )
            )
            registry.get(feed_id).begin_run([Operation.read(f"{feed_id}/00001")])
        metrics = MetricsRegistry()
        engine = LaneEngine(1, registry, metrics)
        before = set(multiprocessing.active_children())

        def snapshot(feed_id):
            return feed_state.pack(feed_state.capture(registry.get(feed_id)))

        def body():
            engine.ensure_lanes(1, {})
            engine.transfer([FeedMove(feed_id, None, 0, None) for feed_id, _ in small], snapshot)
            small_bytes = metrics.counter("install_bytes_total").value
            engine.transfer([FeedMove(feed_id, None, 0, None) for feed_id, _ in large], snapshot)
            assert metrics.counter("install_bytes_total").value - small_bytes > 1 << 20
            feed_ids = [feed_id for feed_id, _ in small + large]
            engine.submit(0, 1, 4, {0: [(0, feed_ids)]})
            [outcome] = engine.results(0)
            assert outcome.settled.keys() == set(feed_ids)
            assert all(executed == 1 for executed, _ in outcome.settled.values())
            return sorted(state.feed_id for state in engine.collect())

        try:
            assert bounded(body) == sorted(registry.feed_ids)
        finally:
            bounded(engine.shutdown)
        assert set(multiprocessing.active_children()) <= before

    def test_slow_merge_behind_blocked_lanes_is_serial_identical(self, monkeypatch):
        """A static run whose merge is slowed: ≈ 400 kB of frames a lane,
        about twice a socket's default send buffer, so the lanes run ahead
        until they block sending — and the run still ends serial-identical."""
        registry, workloads = fleet(2400)
        serial_fleet = EpochScheduler(registry, num_shards=2).run(workloads)
        genuine = LaneEngine.results

        def slowed(engine, epoch):
            time.sleep(0.005)
            return genuine(engine, epoch)

        monkeypatch.setattr(LaneEngine, "results", slowed)
        registry, workloads = fleet(2400)
        before = set(multiprocessing.active_children())
        process_fleet = bounded(lambda: static_scheduler(registry).run(workloads))
        assert process_fleet.ipc["wire_bytes_total"] > 2 * 300_000
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert set(multiprocessing.active_children()) <= before
