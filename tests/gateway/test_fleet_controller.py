"""Fleet controller: epoch-boundary admission/eviction, quotas, drain."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chain.events import LogEvent
from repro.chain.gas import LAYER_FEED
from repro.common.errors import ConfigurationError
from repro.common.types import KVRecord, Operation
from repro.core.config import GrubConfig
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec
from repro.workloads.synthetic import SyntheticWorkload


EPOCH = 4


def make_spec(feed_id: str, **spec_overrides) -> FeedSpec:
    return FeedSpec(
        feed_id=feed_id,
        config=GrubConfig(epoch_size=EPOCH, algorithm="memoryless", k=1),
        preload=[KVRecord.make(f"{feed_id}-k{j}", bytes(32)) for j in range(4)],
        **spec_overrides,
    )


def make_ops(feed_id: str, count: int, *, seed: int = 1):
    return SyntheticWorkload(
        read_write_ratio=2.0,
        num_operations=count,
        num_keys=3,
        key_prefix=f"{feed_id}-k",
        seed=seed,
    ).operations()


class TestAdmission:
    def test_feed_joins_at_requested_boundary(self):
        registry = FeedRegistry()
        registry.create_feed(make_spec("alpha"))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.admit(make_spec("bravo"), make_ops("bravo", 8), at_epoch=2)
        fleet = scheduler.run({"alpha": make_ops("alpha", 16)})

        bravo = fleet.feed("bravo")
        assert fleet.admissions == 1
        assert bravo.admitted_epoch == 2
        assert bravo.operations == 8
        assert all(summary.index >= 2 for summary in bravo.epochs)
        rosters = dict(fleet.rosters)
        assert "bravo" not in rosters[0] and "bravo" not in rosters[1]
        assert "bravo" in rosters[2]
        # The arrival extended the run: bravo's 8 ops start at epoch 2.
        assert fleet.epochs_run == 4

    def test_run_can_start_empty_and_fill_by_admission(self):
        registry = FeedRegistry()
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.admit(make_spec("solo"), make_ops("solo", 8))
        fleet = scheduler.run()
        assert fleet.feed("solo").operations == 8
        assert fleet.admissions == 1

    def test_duplicate_feed_id_within_run_rejected(self):
        registry = FeedRegistry()
        registry.create_feed(make_spec("alpha"))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.admit(make_spec("alpha"), make_ops("alpha", 4), at_epoch=1)
        with pytest.raises(ConfigurationError):
            scheduler.run({"alpha": make_ops("alpha", 8)})

    def test_duplicate_admission_fails_fast_at_queue_time(self):
        registry = FeedRegistry()
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.admit(make_spec("twin"), make_ops("twin", 4))
        with pytest.raises(ConfigurationError, match="already queued"):
            scheduler.admit(make_spec("twin"), make_ops("twin", 4), at_epoch=3)

    def test_non_positive_epoch_size_rejected(self):
        registry = FeedRegistry()
        with pytest.raises(ConfigurationError):
            EpochScheduler(registry, epoch_size=0)
        with pytest.raises(ConfigurationError):
            EpochScheduler(registry, epoch_size=-4)

    def test_per_request_delivery_admission_rejected(self):
        registry = FeedRegistry()
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        spec = FeedSpec(feed_id="bad", config=GrubConfig(batch_deliver=False))
        with pytest.raises(ConfigurationError):
            scheduler.admit(spec, [])


class TestEviction:
    def _run_with_departure(self, at_epoch: int):
        registry = FeedRegistry()
        registry.create_feed(make_spec("alpha"))
        registry.create_feed(make_spec("bravo"))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.evict("bravo", at_epoch=at_epoch)
        fleet = scheduler.run(
            {"alpha": make_ops("alpha", 16), "bravo": make_ops("bravo", 16)}
        )
        return registry, fleet

    def test_departed_feed_runs_no_later_epochs(self):
        registry, fleet = self._run_with_departure(at_epoch=2)
        bravo = fleet.feed("bravo")
        assert fleet.departures == 1
        assert bravo.departed_epoch == 2
        assert all(summary.index < 2 for summary in bravo.epochs)
        assert all(
            "bravo" not in roster for epoch, roster in fleet.rosters if epoch >= 2
        )
        assert "bravo" not in registry
        assert "bravo/storage-manager" not in registry.chain.contracts

    def test_unexecuted_operations_are_cancelled_and_counted(self):
        _, fleet = self._run_with_departure(at_epoch=2)
        bravo = fleet.feed("bravo")
        # 16 admitted, 2 epochs × 4 ops executed, the rest cancelled.
        assert bravo.operations == 8
        assert bravo.cancelled_ops == 8
        assert bravo.operations + bravo.cancelled_ops == 16

    def test_final_gas_bill_is_frozen(self):
        registry, fleet = self._run_with_departure(at_epoch=2)
        bravo = fleet.feed("bravo")
        base = 0  # preload gas predates the run and is excluded from telemetry
        ledger_total = registry.chain.ledger.scope_total("bravo", LAYER_FEED)
        preload_gas = ledger_total - bravo.gas_feed
        assert bravo.gas_feed > 0
        assert preload_gas >= base  # nothing after departure touched the scope
        # Running further epochs (alpha continues) added nothing to bravo.
        assert sum(s.gas_feed for s in bravo.epochs) == bravo.gas_feed

    def test_admit_and_evict_at_same_boundary_is_a_cancelled_tenancy(self):
        # Arrivals apply before departures, so an admit/evict pair due at the
        # same epoch is well-defined: the tenant joins and immediately leaves
        # with its whole workload cancelled.
        registry = FeedRegistry()
        registry.create_feed(make_spec("alpha"))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.admit(make_spec("flash"), make_ops("flash", 8), at_epoch=1)
        scheduler.evict("flash", at_epoch=1)
        fleet = scheduler.run({"alpha": make_ops("alpha", 8)})
        flash = fleet.feed("flash")
        assert flash.admitted_epoch == 1
        assert flash.departed_epoch == 1
        assert flash.operations == 0
        assert flash.cancelled_ops == 8
        assert all("flash" not in roster for _, roster in fleet.rosters)
        assert "flash" not in registry

    def test_eviction_dated_before_admission_defers_until_arrival(self):
        registry = FeedRegistry()
        registry.create_feed(make_spec("alpha"))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.admit(make_spec("flash"), make_ops("flash", 8), at_epoch=3)
        scheduler.evict("flash", at_epoch=1)  # outruns the admission
        fleet = scheduler.run({"alpha": make_ops("alpha", 8)})
        flash = fleet.feed("flash")
        assert flash.admitted_epoch == 3
        assert flash.departed_epoch == 3
        assert flash.operations == 0 and flash.cancelled_ops == 8
        assert scheduler.pending_churn == 0

    def test_waiting_for_far_future_churn_skips_idle_epochs_cheaply(self):
        registry = FeedRegistry()
        registry.create_feed(make_spec("alpha"))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.admit(make_spec("late"), make_ops("late", 4), at_epoch=9)
        fleet = scheduler.run({"alpha": make_ops("alpha", 8)})
        assert fleet.epochs_run == 10
        # Epochs 2–8 were pure waiting: the run jumps straight to the
        # arrival — only epochs 0, 1 and 9 execute (the idle resident gets a
        # summary again at epoch 9, when the arrival makes the epoch run).
        assert [epoch for epoch, _ in fleet.rosters] == [0, 1, 9]
        assert [s.index for s in fleet.feed("alpha").epochs] == [0, 1, 9]
        assert fleet.feed("late").operations == 4

    def test_evicting_unknown_feed_rejected(self):
        registry = FeedRegistry()
        registry.create_feed(make_spec("alpha"))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.evict("ghost", at_epoch=1)
        with pytest.raises(ConfigurationError):
            scheduler.run({"alpha": make_ops("alpha", 8)})

    def test_double_eviction_fails_fast_at_queue_time(self):
        registry = FeedRegistry()
        registry.create_feed(make_spec("alpha"))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.evict("alpha", at_epoch=1)
        with pytest.raises(ConfigurationError, match="already queued"):
            scheduler.evict("alpha", at_epoch=3)

    def test_num_shards_conflicts_with_explicit_planner(self):
        from repro.gateway import GasAwareShardPlanner

        registry = FeedRegistry()
        with pytest.raises(ConfigurationError):
            EpochScheduler(registry, num_shards=8, planner=GasAwareShardPlanner())


class TestWatchdogDrain:
    def test_pending_requests_cancelled_not_silently_dropped(self):
        registry = FeedRegistry()
        handle = registry.create_feed(make_spec("alpha"))
        # A consumer read of an unreplicated key emits a request event; the
        # watchdog routes it to alpha's SP, where it sits pending.
        registry.chain.execute_internal_call(
            sender="end-user",
            contract_address=handle.consumer.address,
            function="query_feed",
            scope="alpha",
            key="alpha-k0",
        )
        registry.watchdog.poll()
        assert len(handle.service_provider.pending) == 1

        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.evict("alpha", at_epoch=0)
        fleet = scheduler.run({"alpha": []})

        assert fleet.feed("alpha").cancelled_requests == 1
        assert fleet.cancelled_requests == 1
        assert handle.service_provider.pending == []

    def test_unpolled_events_are_pulled_before_departure(self):
        registry = FeedRegistry()
        handle = registry.create_feed(make_spec("alpha"))
        registry.chain.execute_internal_call(
            sender="end-user",
            contract_address=handle.consumer.address,
            function="query_feed",
            scope="alpha",
            key="alpha-k0",
        )
        # No explicit poll: the event is still only in the chain's log.  The
        # eviction path must pull it (final poll) and cancel it explicitly.
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.evict("alpha", at_epoch=0)
        fleet = scheduler.run({"alpha": []})
        assert fleet.feed("alpha").cancelled_requests == 1

    def test_deregistered_route_no_longer_receives_requests(self):
        registry = FeedRegistry()
        handle = registry.create_feed(make_spec("alpha"))
        manager_address = handle.storage_manager.address
        registry.remove_feed("alpha")
        # A late event from the departed feed's old address is skipped.
        late = LogEvent(
            contract=manager_address,
            name="request",
            payload={"key": "k", "consumer": "c", "callback": "on_data"},
            block_number=-1,
            transaction_index=-1,
            log_index=-1,
        )
        registry.chain.event_log.append_event(late, registry.chain.height, 0)
        routed = registry.watchdog.poll()
        assert routed == 0
        assert handle.service_provider.pending == []


class TestQuotas:
    def test_ops_quota_defers_and_eventually_executes(self):
        registry = FeedRegistry()
        registry.create_feed(make_spec("capped", max_ops_per_epoch=2))
        registry.create_feed(make_spec("free"))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        fleet = scheduler.run(
            {"capped": make_ops("capped", 16), "free": make_ops("free", 16)}
        )
        capped = fleet.feed("capped")
        # 16 ops at 2/epoch: the run stretches to 8 epochs, nothing is lost.
        assert capped.operations == 16
        assert capped.deferred_ops > 0
        assert all(summary.operations <= 2 for summary in capped.epochs)
        assert fleet.epochs_run == 8
        # The uncapped feed finished in 4 epochs and idles afterwards.
        assert fleet.feed("free").operations == 16

    def test_gas_quota_throttles_but_never_wedges(self):
        registry = FeedRegistry()
        # A cap below any single read's gas: the post-op check trips after
        # every operation, so exactly one op per epoch runs.  The feed never
        # replicates, so no read is served from the memo (a memo hit charges
        # no gas and would slip past the cap), and the workload is read-only
        # (writes buffer at the DO and pay their gas at the epoch update, not
        # during driving).
        spec = make_spec("throttled", max_gas_per_epoch=1)
        registry.create_feed(
            replace(spec, config=replace(spec.config, algorithm="never"))
        )
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        operations = [Operation.read("throttled-k0") for _ in range(6)]
        fleet = scheduler.run({"throttled": operations})
        throttled = fleet.feed("throttled")
        assert throttled.operations == 6
        assert fleet.epochs_run == 6
        assert all(summary.operations == 1 for summary in throttled.epochs)
        assert throttled.deferred_ops > 0

    def test_quota_validation(self):
        with pytest.raises(ConfigurationError):
            FeedSpec(feed_id="x", max_ops_per_epoch=0)
        with pytest.raises(ConfigurationError):
            FeedSpec(feed_id="x", max_gas_per_epoch=-5)


class TestElasticDeterminism:
    def test_churn_run_parallel_matches_serial(self):
        def run(workers: int):
            registry = FeedRegistry()
            for index in range(4):
                registry.create_feed(make_spec(f"res-{index}"))
            scheduler = EpochScheduler(
                registry,
                num_shards=2,
                num_workers=workers,
                execution_mode="serial" if workers == 1 else "process",
                epoch_size=EPOCH,
            )
            scheduler.admit(make_spec("late"), make_ops("late", 8), at_epoch=1)
            scheduler.evict("res-1", at_epoch=2)
            return scheduler.run(
                {f"res-{index}": make_ops(f"res-{index}", 16, seed=index + 1)
                 for index in range(4)}
            )

        assert run(1).fingerprint() == run(4).fingerprint()


class TestFlashTenancy:
    """Same-boundary admit→evict regression sweep.

    The flash path runs the full admission (contracts, cache shard, watchdog
    route, telemetry row) and the full departure inside one ``_apply_churn``
    call; these pin down that it tears down exactly what it set up, touches
    no other tenant, and stays bit-deterministic across backends.
    """

    def _flash_scheduler(self, registry, **kwargs):
        scheduler = EpochScheduler(registry, epoch_size=EPOCH, **kwargs)
        scheduler.admit(make_spec("flash"), make_ops("flash", 8), at_epoch=1)
        scheduler.evict("flash", at_epoch=1)
        return scheduler

    def test_flash_departure_leaves_other_tenants_watchdog_traffic_alone(self):
        registry = FeedRegistry()
        alpha = registry.create_feed(make_spec("alpha"))
        # An unpolled consumer request for the *resident* tenant sits in the
        # chain log when the flash boundary fires.  The departure's final
        # watchdog poll must route it to alpha — still hosted — and the
        # flash teardown must not cancel it.
        registry.chain.execute_internal_call(
            sender="end-user",
            contract_address=alpha.consumer.address,
            function="query_feed",
            scope="alpha",
            key="alpha-k0",
        )
        scheduler = self._flash_scheduler(registry)
        fleet = scheduler.run({"alpha": make_ops("alpha", 16)})

        assert fleet.feed("flash").cancelled_requests == 0
        assert fleet.feed("alpha").cancelled_requests == 0
        assert fleet.cancelled_requests == 0
        assert alpha.service_provider.pending == []  # serviced, not dropped

    def test_flash_cache_shard_is_torn_down(self):
        registry = FeedRegistry()
        registry.create_feed(make_spec("alpha"))
        scheduler = EpochScheduler(registry, epoch_size=EPOCH)
        scheduler.admit(make_spec("flash"), make_ops("flash", 8), at_epoch=1)
        scheduler.evict("flash", at_epoch=1)
        fleet = scheduler.run({"alpha": make_ops("alpha", 16)})
        # The admission gave flash a handle — memo, queue, bill; the
        # same-boundary eviction took the handle away whole, so a churning
        # gateway keeps nothing of a departed tenant but its final bill.
        assert [handle.feed_id for handle in registry.handles] == ["alpha"]
        assert registry.get("alpha").memo is not None
        assert fleet.feed("flash").departed and fleet.feed("flash").cancelled_ops == 8

    def test_flash_bill_is_frozen_at_preload(self):
        registry = FeedRegistry()
        registry.create_feed(make_spec("alpha"))
        scheduler = self._flash_scheduler(registry)
        fleet = scheduler.run({"alpha": make_ops("alpha", 16)})

        flash = fleet.feed("flash")
        # Zero epochs ran between the admission and the eviction, so the
        # telemetry bill is empty and immutable...
        assert flash.epochs == []
        assert flash.gas_feed == 0 and flash.gas_application == 0
        # ...and the on-chain scope holds exactly the tenancy's setup gas
        # (contract deployment + preload), which later epochs never touched:
        # an identical tenancy on a fresh chain pays the identical amount.
        control = FeedRegistry()
        control.create_feed(make_spec("flash"))
        assert registry.chain.ledger.scope_total(
            "flash", LAYER_FEED
        ) == control.chain.ledger.scope_total("flash", LAYER_FEED)

    def test_flash_churn_parallel_matches_serial(self):
        def run(workers: int):
            registry = FeedRegistry()
            for index in range(3):
                registry.create_feed(make_spec(f"res-{index}"))
            scheduler = EpochScheduler(
                registry,
                num_shards=2,
                num_workers=workers,
                execution_mode="serial" if workers == 1 else "process",
                epoch_size=EPOCH,
            )
            scheduler.admit(make_spec("flash"), make_ops("flash", 8), at_epoch=1)
            scheduler.evict("flash", at_epoch=1)
            return scheduler.run(
                {f"res-{index}": make_ops(f"res-{index}", 12, seed=index + 1)
                 for index in range(3)}
            )

        serial, parallel = run(1), run(4)
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.feed("flash").cancelled_ops == 8
