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
  total (frozen, exact);
* **quota enforcement** — a tenant with ``max_ops_per_epoch`` never runs
  more than that many operations in any epoch;
* **one hosted feed, one object** — after either run a hosted feed's bill is
  the fleet's row, its queue is drained, and its read memo holds nothing but
  what the chain holds as replicas (the bound that stands in for an LRU); a
  departed feed's handle is in no registry and its bill is still the fleet's.

A few of the schedules run a second time with *synchronized hot-key bursts*
(every resident bursts over the same 4 keys in the same epochs — cross-feed
correlated traffic, the planner's worst case) under the same invariants.

The seed count defaults to 20 (the CI contract) and can be raised via the
``GRUB_PROPERTY_SEEDS`` environment variable; a failing parametrized test id
carries the schedule seed, which is all that is needed to reproduce the run.
"""

from __future__ import annotations

import os

import pytest

from repro.chain.gas import LAYER_APPLICATION, LAYER_FEED
from repro.common.types import Operation
from repro.gateway import EpochScheduler, FeedRegistry, FeedTelemetry, GasAwareShardPlanner
from repro.gateway.executor import ipc_summary
from repro.gateway.placement import MOVE_LANE_RETIRED, MOVE_REGROUPED
from repro.obs import Observability
from repro.workloads.fleet_churn import FleetChurnWorkload

NUM_SCHEDULES = int(os.environ.get("GRUB_PROPERTY_SEEDS", "20"))
SEEDS = list(range(101, 101 + NUM_SCHEDULES))

EPOCH_SIZE = 4
#: Two orders of magnitude under the 10M default limit: estimates (~30–60k
#: per feed-epoch) genuinely contend for the 100k budget, so plans have
#: several shards and the overflow invariant is non-trivial.
BLOCK_GAS_FRACTION = 0.01


def build_schedule(seed: int, correlated: bool = False):
    """``correlated``: every resident also bursts over the same 4 hot keys in
    the same 3 epochs, so the planner sees every bin fill at once instead of
    independent noise averaging out."""
    return FleetChurnWorkload(
        seed=seed,
        base_feeds=4,
        joins=3,
        leaves=3,
        burst_tenants=1,
        horizon_epochs=8,
        epoch_size=EPOCH_SIZE,
        ops_per_feed=24,
        quota_feeds=1,
        correlated_hot_keys=correlated,
        hot_keys=4,
        hot_burst_epochs=3,
    ).generate()


def run_schedule(
    seed: int,
    num_workers: int,
    execution_mode: str = "serial",
    obs=None,
    correlated: bool = False,
):
    schedule = build_schedule(seed, correlated)
    registry = FeedRegistry()
    scheduler = EpochScheduler(
        registry,
        num_workers=num_workers,
        execution_mode=execution_mode,
        epoch_size=EPOCH_SIZE,
        obs=obs,
        planner=GasAwareShardPlanner(block_gas_fraction=BLOCK_GAS_FRACTION),
    )
    workloads = schedule.install(registry, scheduler)
    # Resident feeds charge their preload gas to their scope before the run;
    # snapshot it so the billing invariant compares run deltas.
    ledger = registry.chain.ledger
    baseline = {
        feed_id: (
            ledger.scope_total(feed_id, LAYER_FEED),
            ledger.scope_total(feed_id, LAYER_APPLICATION),
        )
        for feed_id in schedule.admitted_op_counts()
    }
    fleet = scheduler.run(workloads)
    return schedule, registry, fleet, baseline


@pytest.mark.parametrize("seed", SEEDS)
def test_churn_schedule_invariants(seed):
    check_schedule_invariants(seed)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_synchronized_hot_key_bursts_keep_the_invariants(seed):
    schedule = check_schedule_invariants(seed, correlated=True)
    assert len(schedule.hot_suffixes) == 4 and len(schedule.hot_burst_epochs) == 3


def check_schedule_invariants(seed, correlated=False):
    schedule, serial_registry, serial_fleet, baseline = run_schedule(
        seed, num_workers=1, correlated=correlated
    )
    _, process_registry, process_fleet, _ = run_schedule(
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
    for feed_id, admitted in schedule.admitted_op_counts().items():
        telemetry = serial_fleet.feeds[feed_id]
        assert telemetry.operations + telemetry.cancelled_ops == admitted

    # Departure hygiene: no post-departure epochs, rosters, or gas drift.
    departures = schedule.departures
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
        # The telemetry bill is exactly the ledger's scoped gas beyond the
        # preload baseline — frozen for departed feeds, live for residents.
        ledger = serial_registry.chain.ledger
        feed_base, app_base = baseline[feed_id]
        assert telemetry.gas_feed == ledger.scope_total(feed_id, LAYER_FEED) - feed_base
        assert telemetry.gas_application == (
            ledger.scope_total(feed_id, LAYER_APPLICATION) - app_base
        )

    # Quota enforcement: capped tenants never exceed their per-epoch ops cap.
    quota_specs = {
        join.feed_id: join.spec for join in (*schedule.initial, *schedule.joins)
    }
    for feed_id in schedule.quota_feed_ids():
        cap = quota_specs[feed_id].max_ops_per_epoch
        if cap is None:
            continue
        telemetry = serial_fleet.feeds[feed_id]
        assert all(summary.operations <= cap for summary in telemetry.epochs)

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


@pytest.mark.parametrize("execution_mode, num_workers", [("serial", 1), ("process", 2)])
def test_a_second_run_starts_every_registered_handle_afresh(execution_mode, num_workers):
    _, registry, first, _ = run_schedule(SEEDS[0], num_workers=1)
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
    fleet = run_schedule(SEEDS[0], num_workers=4, execution_mode="process")[2]
    ipc = fleet.ipc
    assert ipc["migrations_total"] >= 1
    assert ipc["migration_bytes_total"] > 0
    assert ipc["migration_bytes_per_epoch"] > 0
    assert ipc["installs_total"] >= 1
    assert ipc["install_bytes_total"] > 0
    assert ipc["lane_spawns_total"] >= 2
    assert ipc["lane_retirements_total"] >= 1
    assert {"bytes_per_epoch", "encode_seconds", "decode_seconds"} <= set(ipc)
    assert run_schedule(SEEDS[0], num_workers=1)[2].ipc is None


def test_every_migration_is_metered_with_its_reason():
    """"Why did this feed move lanes": each lane-to-lane move carries the
    placement's reason as a label on the ``migrations_total`` counter, and
    ``fleet.ipc`` is read off that very counter — outside the fingerprint."""
    obs = Observability()
    fleet = run_schedule(SEEDS[0], num_workers=4, execution_mode="process", obs=obs)[2]
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
    plain = run_schedule(SEEDS[0], num_workers=1)[2]
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
