"""The lane engine's batched feed transfer: deferred installs must fail
loudly, LSM directories must keep a single opener while they move, and a
main-hosted feed placed on a lane spawned at that boundary is adopted by the
fork instead of installed.

``LaneEngine.transfer`` leaves its install orders in flight (the
epoch order is sent behind them on the lane's pipe, answered in order), so a
failed install is only observed at the engine's next call.  These tests inject the classic
broken hand-off — a spec paired with another feed's packed state — and pin
that the *original* typed error surfaces there, the run ends instead of
hanging (every wait is bounded), and ``shutdown()`` leaves no lane process
behind.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from test_feed_state import spec_of, workload_of
from test_parallel_engine import chain_state_fingerprint

from repro.common.errors import ConfigurationError, WireError
from repro.common.types import KVRecord, Operation
from repro.core.config import GrubConfig
from repro.core.data_consumer import DataConsumerContract
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec, GasAwareShardPlanner
from repro.gateway import feed_state
from repro.gateway.executor import LaneEngine
from repro.gateway.placement import FeedMove
from repro.gateway.scheduler import _LaneExecutor
from repro.obs.metrics import MetricsRegistry
from repro.workloads.synthetic import SyntheticWorkload

#: Generous for a sub-second body; only a hang ever reaches it.
TIMEOUT_SECONDS = 60


def bounded(body):
    """Run ``body`` on a thread and fail the test if it outlives the
    timeout; its exception (if any) re-raises here."""
    outcome = {}

    def target():
        try:
            outcome["value"] = body()
        except BaseException as error:  # re-raised on the test thread below
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(TIMEOUT_SECONDS)
    assert not thread.is_alive(), "the run hung instead of failing"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


def two_feed_registry():
    registry = FeedRegistry()
    for feed_id in ("alpha", "beta"):
        registry.create_feed(FeedSpec(feed_id=feed_id, config=GrubConfig(epoch_size=4)))
    return registry


def snapshot_of(registry, feed_id):
    handle = registry.get(feed_id)
    handle.begin_run([Operation.read("k")] * 4)
    return feed_state.pack(feed_state.capture(handle))


@pytest.mark.parametrize("next_call", ["results", "teardown", "collect"])
def test_failed_install_reraises_at_the_next_engine_call(next_call):
    registry = two_feed_registry()
    engine = LaneEngine(2, registry, MetricsRegistry())
    before = set(multiprocessing.active_children())

    def body():
        engine.ensure_lanes(1, {})
        # alpha's install order carries beta's frame; the order is accepted
        # (installs are not waited on) ...
        engine.transfer(
            [FeedMove("alpha", None, 0, None)],
            snapshot_local=lambda feed_id: snapshot_of(registry, "beta"),
        )
        # ... and the lane's WireError surfaces at the very next call.
        if next_call == "results":
            engine.submit(0, 1, 4, {0: [(0, ["alpha"])]})
            engine.results(0)
        elif next_call == "teardown":
            engine.teardown(0, "alpha", 0)
        else:
            engine.collect()

    try:
        with pytest.raises(WireError, match="pairs spec 'alpha' with a snapshot of 'beta'"):
            bounded(body)
    finally:
        bounded(engine.shutdown)
    assert set(multiprocessing.active_children()) <= before


def test_failed_migrate_out_reraises_its_typed_error():
    registry = two_feed_registry()
    engine = LaneEngine(2, registry, MetricsRegistry())

    def body():
        engine.ensure_lanes(2, {})
        # Lane 0 hosts nothing: its migrate-out order fails in the lane.
        engine.transfer(
            [FeedMove("alpha", 0, 1, "regrouped")],
            snapshot_local=lambda feed_id: snapshot_of(registry, feed_id),
        )

    try:
        with pytest.raises(ConfigurationError, match="alpha"):
            bounded(body)
    finally:
        bounded(engine.shutdown)


def test_run_with_a_mismatched_frame_ends_with_the_wire_error(monkeypatch):
    """An admission after epoch 0 is installed into a running lane: its
    install order pairing its spec with another feed's packed state ends the
    run with the lane's typed error."""
    registry = two_feed_registry()
    scheduler = EpochScheduler(
        registry,
        num_workers=2,
        execution_mode="process",
        epoch_size=4,
        planner=GasAwareShardPlanner(block_gas_fraction=0.01),
    )
    scheduler.admit(
        FeedSpec(feed_id="gamma", config=GrubConfig(epoch_size=4)),
        [Operation.read("k")] * 8,
        at_epoch=1,
    )
    genuine = _LaneExecutor._snapshot_feed

    def crossed(self, feed_id):
        return genuine(self, "beta" if feed_id == "gamma" else feed_id)

    monkeypatch.setattr(_LaneExecutor, "_snapshot_feed", crossed)
    before = set(multiprocessing.active_children())
    workloads = {feed_id: [Operation.read("k")] * 8 for feed_id in ("alpha", "beta")}
    with pytest.raises(WireError, match="pairs spec 'gamma'"):
        bounded(lambda: scheduler.run(workloads))
    assert set(multiprocessing.active_children()) <= before


def test_an_admission_on_a_lane_spawned_at_its_boundary_is_adopted():
    """One feed runs from epoch 0 on one lane.  A second, admitted at epoch
    2, gets a shard of its own, and a second lane spawns for it at that
    boundary — forked with the admitted feed as it stands, so nothing is
    installed, and the run is serial-identical."""

    def run(execution_mode):
        registry = FeedRegistry()
        registry.create_feed(spec_of("alpha"))
        scheduler = EpochScheduler(
            registry,
            num_shards=2,
            num_workers=2 if execution_mode == "process" else 1,
            execution_mode=execution_mode,
        )
        scheduler.admit(spec_of("late"), workload_of("late"), at_epoch=2)
        return bounded(lambda: scheduler.run({"alpha": workload_of("alpha")})), registry

    serial_fleet, serial_registry = run("serial")
    process_fleet, process_registry = run("process")
    assert process_fleet.ipc["lane_spawns_total"] == 2
    assert process_fleet.ipc["installs_total"] == 0
    assert process_fleet.fingerprint() == serial_fleet.fingerprint()
    assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
        serial_registry
    )


def test_unpicklable_spec_is_a_configuration_error_naming_the_feed():
    """Every feed's first placement checks the spec it would travel with —
    adopted or installed — so a spec that cannot cross (a closure
    ``consumer_factory``) fails there, as the configuration error it is, not
    a raw pickling traceback."""
    registry = FeedRegistry()
    for feed_id in ("alpha", "beta"):

        def factory(manager_address, feed_id=feed_id):
            return DataConsumerContract(f"{feed_id}/data-consumer", manager_address)

        registry.create_feed(
            FeedSpec(
                feed_id=feed_id,
                config=GrubConfig(epoch_size=4),
                consumer_factory=factory,
            )
        )
    scheduler = EpochScheduler(
        registry,
        num_workers=2,
        execution_mode="process",
        epoch_size=4,
        planner=GasAwareShardPlanner(block_gas_fraction=0.01),
    )
    before = set(multiprocessing.active_children())
    workloads = {feed_id: [Operation.read("k")] * 8 for feed_id in ("alpha", "beta")}
    with pytest.raises(ConfigurationError, match="'alpha' cannot be pickled"):
        bounded(lambda: scheduler.run(workloads))
    assert set(multiprocessing.active_children()) <= before


def quota_fleet(execution_mode):
    """Three feeds, two of them held back by quotas (operations and gas),
    regrouped between epochs.  They never replicate, so every read stays on
    chain and pays gas (none is served from the read memo)."""
    registry = FeedRegistry()
    quotas = {
        "ops": {"max_ops_per_epoch": 2},
        "gas": {"max_gas_per_epoch": 1},
        "free": {},
    }
    reads = {}
    for feed_id, quota in quotas.items():
        config = GrubConfig(epoch_size=4, algorithm="never")
        registry.create_feed(FeedSpec(feed_id=feed_id, config=config, **quota))
        reads[feed_id] = [Operation.read(f"{feed_id}-k{j % 3}") for j in range(11)]
    scheduler = EpochScheduler(
        registry,
        num_workers=2 if execution_mode == "process" else 1,
        execution_mode=execution_mode,
        epoch_size=4,
        planner=GasAwareShardPlanner(block_gas_fraction=0.01),
    )
    return scheduler, reads


def test_lane_depth_mirror_tracks_the_lane_queues(monkeypatch):
    """A lane-hosted feed's depth is derived main-side — each merged epoch
    takes off what it executed.  After every merge it equals the hosting
    lane's queue, and the run ends only once every lane queue is empty,
    serial-identical."""
    scheduler, workloads = quota_fleet("serial")
    serial_fleet = scheduler.run(workloads)
    genuine_run_epoch, genuine_finish = _LaneExecutor.run_epoch, _LaneExecutor.finish
    depths = []

    def lane_queues(executor):
        return {state.feed_id: len(state.queue) for state in executor.engine.collect()}

    def run_epoch(executor, epoch, shard_plan):
        settled = genuine_run_epoch(executor, epoch, shard_plan)
        assert executor.remaining == lane_queues(executor)
        depths.append(sum(executor.remaining.values()))
        return settled

    def finish(executor):
        remaining = dict(executor.remaining)
        genuine_finish(executor)
        registry = executor.registry
        assert remaining == {f: len(registry.get(f).queue) for f in remaining}
        assert not any(remaining.values())

    monkeypatch.setattr(_LaneExecutor, "run_epoch", run_epoch)
    monkeypatch.setattr(_LaneExecutor, "finish", finish)
    scheduler, workloads = quota_fleet("process")
    process_fleet = bounded(lambda: scheduler.run(workloads))
    assert process_fleet.fingerprint() == serial_fleet.fingerprint()
    assert process_fleet.ipc["migrations_total"] >= 1
    assert max(depths) > 0 and process_fleet.deferred_ops > 0
    executed = sum(feed.operations for feed in process_fleet.feeds.values())
    assert executed == sum(map(len, workloads.values()))
    assert process_fleet.cancelled_ops == 0


def _run_lsm_fleet(execution_mode, num_workers, directory):
    """Six LSM-backed feeds under a budget tight enough that the gas-aware
    plan regroups them between epochs."""
    registry, workloads = lsm_fleet(directory)
    scheduler = EpochScheduler(
        registry,
        num_workers=num_workers,
        execution_mode=execution_mode,
        planner=GasAwareShardPlanner(block_gas_fraction=0.02),
    )
    return scheduler.run(workloads), registry


def lsm_fleet(directory):
    """Six feeds, each on an LSM store in a directory of its own."""
    registry = FeedRegistry()
    workloads = {}
    for index in range(6):
        feed_id = f"lsm-{index}"
        registry.create_feed(
            FeedSpec(
                feed_id=feed_id,
                config=GrubConfig(epoch_size=8, algorithm="memoryless", k=1 + index % 3),
                preload=[KVRecord.make(f"k{index}-{j:02d}", bytes(32)) for j in range(8)],
                store_backend="lsm",
                store_directory=directory / feed_id,
            )
        )
        workloads[feed_id] = SyntheticWorkload(
            read_write_ratio=1.0 + index,
            num_operations=48,
            num_keys=6,
            key_prefix=f"k{index}-",
            seed=index + 1,
        ).operations()
    return registry, workloads


def test_lsm_feeds_migrate_in_batches_with_a_single_opener(tmp_path):
    """A second opener of a moving feed's directory raises in the lane, so a
    clean run that really migrated LSM feeds proves every source closed
    before its frame reached a destination."""
    serial_fleet, serial_registry = _run_lsm_fleet("serial", 1, tmp_path / "serial")
    process_fleet, process_registry = bounded(
        lambda: _run_lsm_fleet("process", 3, tmp_path / "process")
    )
    assert process_fleet.fingerprint() == serial_fleet.fingerprint()
    assert process_fleet.ipc["migrations_total"] >= 1
    for handle in serial_registry.handles:
        moved = process_registry.get(handle.feed_id).system.sp_store
        assert moved.root == handle.system.sp_store.root


def test_a_static_lsm_fleet_is_adopted_and_runs_again(tmp_path):
    """A round-robin fleet is static whatever its store backend: each lane
    adopts its LSM-backed feeds (the main process closes their openers
    before the fork, the lane reopens them), the run-end states land on the
    main mirrors, which take their directories back, and a second run on
    the same registry starts from there — serial-identical throughout."""

    def two_runs(execution_mode, num_workers, directory):
        registry, workloads = lsm_fleet(directory)
        scheduler = EpochScheduler(
            registry,
            num_shards=2,
            num_workers=num_workers,
            execution_mode=execution_mode,
        )
        return [scheduler.run(workloads) for _ in range(2)], registry

    serial_fleets, serial_registry = two_runs("serial", 1, tmp_path / "serial")
    process_fleets, process_registry = bounded(
        lambda: two_runs("process", 2, tmp_path / "process")
    )
    installs = [fleet.ipc["installs_total"] for fleet in process_fleets]
    assert installs == [0, 0]
    assert [fleet.fingerprint() for fleet in process_fleets] == [
        fleet.fingerprint() for fleet in serial_fleets
    ]
    for handle in serial_registry.handles:
        store = process_registry.get(handle.feed_id).system.sp_store
        assert not store.backing.closed
        assert store.root == handle.system.sp_store.root
        assert list(store.backing.items()) == list(handle.system.sp_store.backing.items())
