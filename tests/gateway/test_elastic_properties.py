"""Property/differential harness for the elastic gateway.

Randomized (seeded) churn schedules are driven through the fleet controller
twice — serial (``num_workers=1``) and process-parallel (``num_workers=4``,
elastic lanes with feed migration) — under the gas-aware shard planner, and a
set of invariants is asserted on every schedule:

* **differential determinism** — the parallel run's
  ``FleetTelemetry.fingerprint()`` is identical to the serial run's (churn
  processing, quota deferral and per-epoch re-planning all preserve the
  engine's bit-identical guarantee);
* **block feasibility** — no settlement block exceeds the chain's
  ``block_gas_limit``: the ``block_gas_limit_overflow`` ledger category stays
  zero even though the planner is given a budget two orders of magnitude
  below the limit (forcing real bin-packing);
* **op conservation** — every admitted operation is eventually executed or
  explicitly cancelled at its tenant's departure; quota-deferred operations
  re-run in later epochs rather than vanishing;
* **departure hygiene** — an evicted feed never appears in a later epoch's
  roster or summaries, and its final gas bill equals the ledger's scoped
  total less what hosting it charged (its preload; frozen, exact);
* **quota enforcement** — a tenant with ``max_ops_per_epoch`` never runs
  more than that many operations in any epoch;
* **one hosted feed, one object** — after either run a hosted feed's bill is
  the fleet's row, its queue is drained, and its read memo holds nothing but
  what the chain holds as replicas (the bound that stands in for an LRU); a
  departed feed's handle is in no registry and its bill is still the fleet's.

A few of the schedules run a second time with *synchronized hot-key bursts*
(every unthrottled resident bursts over the same 4 keys in the same epochs —
cross-feed correlated traffic, the planner's worst case) under the same
invariants.

Every schedule comes from the benchmark's own churn generator,
``suite.workloads.churn_inputs`` — what ``churn_lanes`` measures — at a shape
drawn from the seed: how many residents, joiners (and how many of those are
NFT-mint bursts), departures and quota-capped residents, and how long each
resident's stream is.  The generator fixes a shape and draws only keys and
values from its seed, so the shape draw is what makes the seeds differ.
The schedules are built in ``tests/workloads/churn_schedules.py``.

The seed count defaults to 20 (the CI contract) and can be raised via the
``GRUB_PROPERTY_SEEDS`` environment variable; a failing parametrized test id
carries the schedule seed, which is all that is needed to reproduce the run.
"""

from __future__ import annotations

import os

import pytest
from churn_schedules import EPOCH_SIZE, HOT_BURST_EPOCHS, build_schedule
from suite.workloads import FleetInputs

from repro.chain.gas import LAYER_APPLICATION, LAYER_FEED
from repro.common.types import Operation
from repro.gateway import EpochScheduler, FeedRegistry, FeedTelemetry, GasAwareShardPlanner
from repro.gateway.executor import ipc_summary
from repro.gateway.placement import MOVE_LANE_RETIRED, MOVE_REGROUPED
from repro.obs import Observability

NUM_SCHEDULES = int(os.environ.get("GRUB_PROPERTY_SEEDS", "20"))
SEEDS = list(range(101, 101 + NUM_SCHEDULES))

#: Two orders of magnitude under the 10M default limit: estimates (~30–60k
#: per feed-epoch) genuinely contend for the 100k budget, so plans have
#: several shards and the overflow invariant is non-trivial.
BLOCK_GAS_FRACTION = 0.01


def preload_gas(spec) -> tuple:
    """What hosting ``spec`` charges its scope before it runs an operation —
    its preload — as feed-layer and application-layer gas.  The same on any
    chain, so a fresh registry measures it for residents and joiners alike."""
    registry = FeedRegistry()
    registry.create_feed(spec)
    ledger = registry.chain.ledger
    return (
        ledger.scope_total(spec.feed_id, LAYER_FEED),
        ledger.scope_total(spec.feed_id, LAYER_APPLICATION),
    )


def run_inputs(inputs: FleetInputs, **scheduler_options):
    """Run ``inputs`` as the benchmark's harness does — residents hosted
    up front, joins and leaves queued on the scheduler — in a fresh
    registry; returns the registry and the run's telemetry."""
    registry = FeedRegistry()
    for spec in inputs.specs:
        registry.create_feed(spec)
    scheduler = EpochScheduler(registry, **scheduler_options)
    for at_epoch, spec, operations in inputs.joins:
        scheduler.admit(spec, operations, at_epoch=at_epoch)
    for at_epoch, feed_id in inputs.leaves:
        scheduler.evict(feed_id, at_epoch=at_epoch)
    return registry, scheduler.run(inputs.operations)


def run_schedule(
    seed: int,
    num_workers: int,
    execution_mode: str = "serial",
    obs=None,
    correlated: bool = False,
):
    schedule = build_schedule(seed, correlated)
    registry, fleet = run_inputs(
        schedule,
        num_workers=num_workers,
        execution_mode=execution_mode,
        epoch_size=EPOCH_SIZE,
        obs=obs,
        planner=GasAwareShardPlanner(block_gas_fraction=BLOCK_GAS_FRACTION),
    )
    return schedule, registry, fleet


@pytest.mark.parametrize("seed", SEEDS)
def test_churn_schedule_invariants(seed):
    check_schedule_invariants(seed)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_synchronized_hot_key_bursts_keep_the_invariants(seed):
    schedule = check_schedule_invariants(seed, correlated=True)
    plain = build_schedule(seed)
    for spec in schedule.specs:
        added = len(schedule.operations[spec.feed_id]) - len(plain.operations[spec.feed_id])
        bursts = 0 if spec.max_ops_per_epoch is not None else HOT_BURST_EPOCHS
        assert added == bursts * EPOCH_SIZE


def check_schedule_invariants(seed, correlated=False):
    schedule, serial_registry, serial_fleet = run_schedule(
        seed, num_workers=1, correlated=correlated
    )
    _, process_registry, process_fleet = run_schedule(
        seed, num_workers=4, execution_mode="process", correlated=correlated
    )

    # Differential determinism: neither worker count nor execution backend
    # changes any output — including the process backend, whose feeds churn
    # into, migrate between, and tear down from worker lanes.
    assert process_fleet.fingerprint() == serial_fleet.fingerprint()
    # ... and the process run really moved feeds: placement-aware lane
    # assignment removes the gratuitous moves, not the mobility under test.
    assert process_fleet.ipc["migrations_total"] >= 1

    # Block feasibility under the gas-aware plan, in both runs.
    for registry in (serial_registry, process_registry):
        assert registry.chain.ledger.by_category.get("block_gas_limit_overflow", 0) == 0
        limit = registry.chain.parameters.block_gas_limit
        assert all(block.gas_used <= limit for block in registry.chain.blocks)

    # The schedule actually churned.
    assert serial_fleet.admissions == len(schedule.joins)
    assert serial_fleet.departures == len(schedule.leaves)

    # Op conservation: executed + cancelled == admitted, per tenant.
    streams = schedule.streams()
    for feed_id, (_, operations) in streams.items():
        telemetry = serial_fleet.feeds[feed_id]
        assert telemetry.operations + telemetry.cancelled_ops == len(operations)

    # Departure hygiene: no post-departure epochs, rosters, or gas drift.
    departures = {feed_id: at_epoch for at_epoch, feed_id in schedule.leaves}
    for feed_id, telemetry in serial_fleet.feeds.items():
        if feed_id in departures:
            assert telemetry.departed_epoch == departures[feed_id]
            assert all(
                summary.index < telemetry.departed_epoch for summary in telemetry.epochs
            )
        else:
            assert telemetry.departed_epoch is None
        for epoch, roster in serial_fleet.rosters:
            hosted = telemetry.admitted_epoch <= epoch and (
                telemetry.departed_epoch is None or epoch < telemetry.departed_epoch
            )
            assert (feed_id in roster) == hosted
        # The telemetry bill is exactly the ledger's scoped gas beyond what
        # hosting the feed charged it — its preload, paid before the run for
        # a resident and at admission for a joiner — frozen for departed
        # feeds, live for the rest.
        ledger = serial_registry.chain.ledger
        feed_base, app_base = preload_gas(streams[feed_id][0])
        assert telemetry.gas_feed == ledger.scope_total(feed_id, LAYER_FEED) - feed_base
        assert telemetry.gas_application == (
            ledger.scope_total(feed_id, LAYER_APPLICATION) - app_base
        )

    # Quota enforcement: capped tenants never exceed their per-epoch ops cap.
    for spec, _ in streams.values():
        if spec.max_ops_per_epoch is not None:
            telemetry = serial_fleet.feeds[spec.feed_id]
            assert all(
                summary.operations <= spec.max_ops_per_epoch for summary in telemetry.epochs
            )

    # One hosted feed, one object — wherever the run executed.
    for registry, fleet in (
        (serial_registry, serial_fleet),
        (process_registry, process_fleet),
    ):
        for handle in registry.handles:
            assert handle.bill is fleet.feeds[handle.feed_id]
            assert not handle.queue and not handle.dirty
            manager = handle.storage_manager
            assert all(
                manager.replica_of(key) == value for key, value in handle.memo.items()
            )
            assert len(handle.memo) <= manager.replica_count()
        for feed_id in departures:
            assert feed_id not in registry and fleet.feeds[feed_id].departed
    return schedule


#: A schedule (3 residents, 2 joins, 32 operations each) whose process run
#: retires a lane, forks a new one mid-run and moves onto it, from the
#: retiring lane, a feed whose earlier requests were answered there.
RESPAWN_SEED = 140


def test_a_lane_forked_mid_run_answers_no_request_twice():
    """The fork hands a lane the main registry's watchdog with its cursor
    where the run began, while the main log has absorbed every merged epoch's
    request events since.  A lane that polled from there answered those
    requests a second time — extra ``deliver`` items and consumer callbacks
    — and this run's fingerprint left its serial twin's."""
    serial = run_schedule(RESPAWN_SEED, num_workers=1)[2]
    process = run_schedule(RESPAWN_SEED, num_workers=4, execution_mode="process")[2]
    assert process.ipc["lane_retirements_total"] >= 1
    assert process.ipc["lane_spawns_total"] > 4  # one forked after epoch 0
    assert process.fingerprint() == serial.fingerprint()


@pytest.mark.parametrize("execution_mode, num_workers", [("serial", 1), ("process", 2)])
def test_a_second_run_starts_every_registered_handle_afresh(execution_mode, num_workers):
    _, registry, first = run_schedule(SEEDS[0], num_workers=1)
    idle, busy, *others = registry.handles
    assert others and all(handle.bill.operations for handle in registry.handles)
    # What an aborted run could leave behind.
    idle.queue.append(Operation.read("left-over"))
    idle.dirty.add("left-over")

    scheduler = EpochScheduler(
        registry,
        num_workers=num_workers,
        execution_mode=execution_mode,
        epoch_size=EPOCH_SIZE,
    )
    scheduler.evict(idle.feed_id, at_epoch=1)
    second = scheduler.run({busy.feed_id: [Operation.read("k")] * 8})

    assert set(second.feeds) == {idle.feed_id, busy.feed_id}
    assert busy.bill is second.feeds[busy.feed_id] and busy.bill.operations == 8
    # Evicted mid-run without a workload: a real departure, billed nothing —
    # not last run's bill, and not the left-over operation as a cancellation.
    assert second.feeds[idle.feed_id] == FeedTelemetry(idle.feed_id, departed_epoch=1)
    assert first.feeds[idle.feed_id].operations and not first.feeds[idle.feed_id].departed
    for handle in others:
        assert handle.bill == FeedTelemetry(handle.feed_id)
        assert not handle.queue and not handle.dirty


def test_same_seed_reruns_are_bit_identical():
    first = run_schedule(SEEDS[0], num_workers=4, execution_mode="process")[2]
    second = run_schedule(SEEDS[0], num_workers=4, execution_mode="process")[2]
    assert first.fingerprint() == second.fingerprint()


def test_process_mode_forces_migration_spawn_and_retirement():
    """The churn schedules genuinely exercise feed mobility: at least one
    snapshot-frame migration between lanes, one elastic lane spawn beyond the
    first, and one lane retirement once the fleet shrinks — all metered on
    ``FleetTelemetry.ipc`` (never fingerprinted), which holds every key the
    benchmark suite reads; a serial run has no lane boundary and no record."""
    fleet = run_schedule(RESPAWN_SEED, num_workers=4, execution_mode="process")[2]
    ipc = fleet.ipc
    assert ipc["migrations_total"] >= 1
    assert ipc["migration_bytes_total"] > 0
    assert ipc["migration_bytes_per_epoch"] > 0
    assert ipc["installs_total"] >= 1
    assert ipc["install_bytes_total"] > 0
    assert ipc["lane_spawns_total"] >= 2
    assert ipc["lane_retirements_total"] >= 1
    assert {"bytes_per_epoch", "encode_seconds", "decode_seconds"} <= set(ipc)
    assert run_schedule(RESPAWN_SEED, num_workers=1)[2].ipc is None


def test_every_migration_is_metered_with_its_reason():
    """"Why did this feed move lanes": each lane-to-lane move carries the
    placement's reason as a label on the ``migrations_total`` counter, and
    ``fleet.ipc`` is read off that very counter — outside the fingerprint."""
    obs = Observability()
    fleet = run_schedule(RESPAWN_SEED, num_workers=4, execution_mode="process", obs=obs)[2]
    by_reason = fleet.ipc["migrations_by_reason"]
    assert set(by_reason) <= {MOVE_REGROUPED, MOVE_LANE_RETIRED}
    assert sum(by_reason.values()) == fleet.ipc["migrations_total"]
    # This schedule shrinks the fleet under occupied lanes, so both occur.
    assert by_reason[MOVE_REGROUPED] >= 1 and by_reason[MOVE_LANE_RETIRED] >= 1
    # One record: on a fresh plane the run's view is the plane's view, and a
    # move counted on the plane is a move in the view.
    assert ipc_summary(obs.registry) == fleet.ipc
    obs.counter("migrations_total", reason=MOVE_REGROUPED).inc()
    assert ipc_summary(obs.registry)["migrations_by_reason"] == {
        **by_reason,
        MOVE_REGROUPED: by_reason[MOVE_REGROUPED] + 1,
    }
    plain = run_schedule(RESPAWN_SEED, num_workers=1)[2]
    assert fleet.fingerprint() == plain.fingerprint()


#: The exact half of ``fleet.ipc`` (the rest is seconds).
IPC_COUNTS = (
    "epochs",
    "wire_bytes_total",
    "installs_total",
    "migrations_total",
    "migrations_by_reason",
    "migration_bytes_total",
    "lane_spawns_total",
    "lane_retirements_total",
)


def ipc_counts(fleet) -> dict:
    return {key: fleet.ipc[key] for key in IPC_COUNTS}


def test_boundary_counts_do_not_depend_on_the_plane():
    """The counters are on with or without an ``Observability``: the same
    run counts the same boundary events, and fingerprints the same."""
    quiet = run_schedule(SEEDS[0], num_workers=4, execution_mode="process")[2]
    traced = run_schedule(
        SEEDS[0], num_workers=4, execution_mode="process", obs=Observability()
    )[2]
    assert traced.fingerprint() == quiet.fingerprint()
    quiet_counts, traced_counts = ipc_counts(quiet), ipc_counts(traced)
    # A traced lane's frames also carry its spans, so they are longer.
    assert traced_counts.pop("wire_bytes_total") > quiet_counts.pop("wire_bytes_total")
    assert traced_counts == quiet_counts


def test_fleet_ipc_is_one_run_on_a_plane_that_outlives_runs():
    shared = Observability()
    first = run_schedule(SEEDS[0], num_workers=4, execution_mode="process", obs=shared)[2]
    second = run_schedule(SEEDS[0], num_workers=4, execution_mode="process", obs=shared)[2]
    fresh = run_schedule(
        SEEDS[0], num_workers=4, execution_mode="process", obs=Observability()
    )[2]
    assert ipc_counts(first) == ipc_counts(second) == ipc_counts(fresh)
    # ... while the plane's counters hold both runs.
    by_reason = fresh.ipc["migrations_by_reason"]
    assert {
        reason: shared.registry.find("migrations_total", reason=reason).value
        for reason in by_reason
    } == {reason: 2 * count for reason, count in by_reason.items()}
    assert shared.registry.find("ipc_epochs_total").value == 2 * fresh.ipc["epochs"]


def test_gas_aware_plans_use_multiple_shards():
    # With the tight budget the planner must split the fleet — otherwise the
    # overflow invariant above would be vacuous.
    fleet = run_schedule(SEEDS[0], num_workers=1)[2]
    assert max(fleet.shards_per_epoch) > 1
