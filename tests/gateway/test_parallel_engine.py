"""Parallel epoch engine: bit-identical to serial, deterministic, warm cache.

The engine's contract is strict: neither ``num_workers`` nor the execution
backend (``serial`` / ``process``) may change anything but wall-clock time.
Telemetry, per-feed gas bills and final chain state must be equal to the bit
for any backend and worker count, and two runs of the same
configuration must be identical to each other.  These tests pin that over a
mixed fleet (different algorithms, k values, record sizes and workload shapes
per feed) — including the process backend, whose feeds execute in separate
worker processes and whose results are spliced back in shard order.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace

import pytest

from repro.chain.chain import ChainParameters
from repro.chain.gas import LAYER_APPLICATION, LAYER_FEED, GasSchedule
from repro.common.errors import ConfigurationError
from repro.common.types import KVRecord, Operation
from repro.core.config import GrubConfig
from repro.gateway import (
    EpochScheduler,
    FeedRegistry,
    FeedSpec,
    GasAwareShardPlanner,
    executor,
)
from repro.gateway.scheduler import RequestSource
from repro.obs import Observability
from repro.workloads.synthetic import SyntheticWorkload


def _mixed_fleet_configs():
    """Eight deliberately heterogeneous tenant configurations."""
    return [
        GrubConfig(epoch_size=8, algorithm="memoryless", k=1),
        GrubConfig(epoch_size=8, algorithm="memoryless", k=4),
        GrubConfig(epoch_size=8, algorithm="always"),
        GrubConfig(epoch_size=8, algorithm="never"),
        GrubConfig(epoch_size=8, algorithm="adaptive-k1"),
        GrubConfig(epoch_size=8, algorithm="memoryless", k=2, record_size_bytes=64),
        GrubConfig(epoch_size=8, algorithm="memoryless", k=2,
                   evict_unused_after_epochs=2),
        GrubConfig(epoch_size=8, algorithm="memorizing"),
    ]


def build_mixed_fleet(max_ops_per_epoch=None):
    """``max_ops_per_epoch`` puts a quota on every other tenant."""
    registry = FeedRegistry()
    workloads = {}
    for index, config in enumerate(_mixed_fleet_configs()):
        feed_id = f"feed-{index:02d}"
        preload = [
            KVRecord.make(f"k{index:02d}-{j:02d}", bytes(32)) for j in range(8)
        ]
        registry.create_feed(
            FeedSpec(
                feed_id=feed_id,
                config=config,
                preload=preload,
                max_ops_per_epoch=max_ops_per_epoch if index % 2 else None,
            )
        )
        workloads[feed_id] = SyntheticWorkload(
            read_write_ratio=2.0 + index,
            num_operations=64,
            num_keys=6,
            key_prefix=f"k{index:02d}-",
            seed=index + 1,
        ).operations()
    return registry, workloads


def _event(e) -> tuple:
    return (
        e.contract,
        e.name,
        e.block_number,
        e.transaction_index,
        sorted(e.payload.items(), key=repr),
    )


class ChainHistory:
    """Every block, receipt and event a chain makes from the moment it is
    attached, kept beside the chain: the whole history a mode-equivalence
    check compares once a run outgrows the chain's finality window.  Attach
    it to a registry's chain before the first feed is created."""

    def __init__(self, chain) -> None:
        self.blocks = list(chain.blocks)
        self.receipts = dict(chain.receipts)
        self.event_log = list(chain.event_log)
        produce = chain._produce_block
        append = chain.event_log.append_event

        def produce_recorded(receipts):
            block = produce(receipts)
            self.blocks.append(block)
            self.receipts.update((receipt.txid, receipt) for receipt in block.receipts)
            return block

        def append_recorded(event, block_number, transaction_index):
            stamped = append(event, block_number, transaction_index)
            self.event_log.append(stamped)
            return stamped

        chain._produce_block = produce_recorded
        chain.event_log.append_event = append_recorded


def _receipt(receipts, r) -> tuple:
    """A receipt as a serial run and a process run must both record it: all
    but the transaction's ``args`` (left in the lane) and its id (the
    recording chain's own).  Every id must find its own receipt — lanes
    handing out colliding ids would overwrite each other's."""
    assert receipts[r.txid] is r
    return (
        r.block_number,
        r.transaction_index,
        r.transaction.function,
        r.transaction.scopes,
        r.transaction.submitted_at,
        r.finalized_at,
        [_event(e) + (e.log_index,) for e in r.events],
        r.gas_used,
        r.success,
        r.error,
        r.return_value,
    )


def chain_state_fingerprint(registry: FeedRegistry, history: ChainHistory = None) -> dict:
    """Everything observable about the shared chain after a run: its whole
    history, from ``history`` when the run outgrew the finality window."""
    chain = registry.chain
    if history is None:
        assert chain.blocks[0].number == 0, "the run outgrew the window: pass a ChainHistory"
        history = chain
    ledger = chain.ledger
    return {
        "height": chain.height,
        # Block stamps included deliberately: the process backend must
        # reproduce not just the event stream but the very block numbers a
        # serial run records (the main chain stamps lane events with its own
        # heights when it merges them).
        "events": [_event(e) for e in history.event_log],
        "receipts": [
            [_receipt(history.receipts, r) for r in block.receipts]
            for block in history.blocks
        ],
        "ledger_total": ledger.total,
        "by_scope": {
            f"{scope}/{layer}": amount
            for (scope, layer), amount in sorted(ledger.by_scope.items())
        },
        "by_category": dict(sorted(ledger.by_category.items())),
        "contracts": {
            handle.feed_id: sorted(
                (slot, value) for slot, value in handle.storage_manager.storage.slots.items()
            )
            for handle in registry.handles
        },
        "roots": {
            handle.feed_id: handle.storage_manager.root_hash()
            for handle in registry.handles
        },
        "replicas": {
            handle.feed_id: handle.storage_manager.replica_count()
            for handle in registry.handles
        },
    }


class ScriptedSource(RequestSource):
    """A live source whose arrivals are ``workloads``, all due at the first
    boundary; counts its polls and the operations the run settles."""

    def __init__(self, workloads):
        self.pending = {feed_id: list(ops) for feed_id, ops in workloads.items()}
        self.polls = 0
        self.executed = 0
        self.finished = False

    def poll(self, epoch, *, wait):
        self.polls += 1
        arrivals, self.pending = self.pending, {}
        return arrivals

    @property
    def exhausted(self):
        return not self.pending

    def next_epoch(self, after):
        return None

    def settled(self, epoch, feed_id, *, executed, deferred, gas):
        self.executed += executed

    def run_finished(self, fleet, error=None):
        self.finished = True


def run_fleet(
    num_workers: int,
    num_shards: int = 4,
    execution_mode: str | None = None,
    with_obs: bool = False,
    max_ops_per_epoch=None,
):
    """``execution_mode`` defaults to what ``num_workers`` implies: one
    worker is the serial backend, more are process lanes."""
    if execution_mode is None:
        execution_mode = "serial" if num_workers == 1 else "process"
    registry, workloads = build_mixed_fleet(max_ops_per_epoch)
    scheduler = EpochScheduler(
        registry,
        num_shards=num_shards,
        num_workers=num_workers,
        execution_mode=execution_mode,
        obs=Observability() if with_obs else None,
    )
    fleet = scheduler.run(workloads)
    return fleet, registry


class TestParallelSerialEquivalence:
    def test_parallel_run_is_bit_identical_to_serial(self):
        serial_fleet, serial_registry = run_fleet(num_workers=1)
        parallel_fleet, parallel_registry = run_fleet(num_workers=4)

        # Telemetry (every counter, every epoch summary of every feed).
        assert parallel_fleet.fingerprint() == serial_fleet.fingerprint()
        # Per-feed gas bills straight from the ledger's scopes.
        for feed_id in serial_fleet.feeds:
            for layer in (LAYER_FEED, LAYER_APPLICATION):
                assert parallel_registry.chain.ledger.scope_total(
                    feed_id, layer
                ) == serial_registry.chain.ledger.scope_total(feed_id, layer)
        # Final chain state: storage slots, roots, events, heights, ledger.
        assert chain_state_fingerprint(parallel_registry) == chain_state_fingerprint(
            serial_registry
        )

    def test_two_parallel_runs_are_identical(self):
        first_fleet, first_registry = run_fleet(num_workers=4)
        second_fleet, second_registry = run_fleet(num_workers=4)
        assert first_fleet.fingerprint() == second_fleet.fingerprint()
        assert chain_state_fingerprint(first_registry) == chain_state_fingerprint(
            second_registry
        )

    def test_oversubscribed_workers_still_identical(self):
        serial_fleet, _ = run_fleet(num_workers=1)
        oversubscribed_fleet, _ = run_fleet(num_workers=16, num_shards=8)
        serial_shardmatched_fleet, _ = run_fleet(num_workers=1, num_shards=8)
        # Worker count never changes output; shard count legitimately does
        # (it changes the batching), so compare like with like.
        assert oversubscribed_fleet.fingerprint() == serial_shardmatched_fleet.fingerprint()
        assert serial_fleet.fingerprint() != {}

    def test_invalid_worker_count_rejected(self):
        registry, _ = build_mixed_fleet()[0], None
        with pytest.raises(ConfigurationError):
            EpochScheduler(registry, num_workers=0)


class TestExecutionModeEquivalence:
    """serial / process must be indistinguishable in every output."""

    def test_modes_bit_identical(self):
        # Unthrottled, then with op quotas on half the tenants: a throttled
        # feed drains slower than the bound the process backend orders epochs
        # ahead by, so that bound must stay a *lower* bound — an epoch a lane
        # ran but the main chain never merged would show up as an extra
        # summary on the lane's telemetry row (and the engine refuses to
        # collect over an unmerged order).
        for quota in (None, 3):
            self._check_modes(quota)

    def _check_modes(self, quota):
        serial_fleet, serial_registry = run_fleet(
            1, execution_mode="serial", max_ops_per_epoch=quota
        )
        process_fleet, process_registry = run_fleet(
            2, execution_mode="process", max_ops_per_epoch=quota
        )
        assert (serial_fleet.deferred_ops > 0) == (quota is not None)
        # A static fleet is adopted by the lanes that fork for it: no feed
        # travels as a snapshot frame.
        assert process_fleet.ipc["installs_total"] == 0
        assert process_fleet.ipc["epochs"] == serial_fleet.epochs_run

        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
            serial_registry
        )

        # Per-feed gas bills straight from the ledger's scopes.
        for feed_id in serial_fleet.feeds:
            for layer in (LAYER_FEED, LAYER_APPLICATION):
                expected = serial_registry.chain.ledger.scope_total(feed_id, layer)
                assert process_registry.chain.ledger.scope_total(feed_id, layer) == expected

    def test_block_gas_overflow_accounting_identical_across_modes(self):
        """Overflow is derived from a block's gas on whichever chain mines
        it; the worker's local derivation must not also ship in the ledger
        delta (that double-counted it once)."""

        def run(mode, workers):
            parameters = ChainParameters(block_gas_limit=50_000)
            registry = FeedRegistry(parameters=parameters)
            config = GrubConfig(
                epoch_size=8,
                algorithm="memoryless",
                k=1,
                chain_parameters=parameters,
            )
            workloads = {}
            for index in range(4):
                feed_id = f"feed-{index:02d}"
                registry.create_feed(
                    FeedSpec(
                        feed_id=feed_id,
                        config=config,
                        preload=[
                            KVRecord.make(f"f{index}-{j:02d}", bytes(32))
                            for j in range(8)
                        ],
                    )
                )
                workloads[feed_id] = SyntheticWorkload(
                    read_write_ratio=1.0,
                    num_operations=32,
                    num_keys=6,
                    key_prefix=f"f{index}-",
                    seed=index + 1,
                ).operations()
            scheduler = EpochScheduler(
                registry, num_shards=2, num_workers=workers, execution_mode=mode
            )
            scheduler.run(workloads)
            return dict(registry.chain.ledger.by_category)

        serial = run("serial", 1)
        process = run("process", 2)
        # The scenario must actually overflow the tiny limit, else it tests
        # nothing.
        assert serial.get("block_gas_limit_overflow", 0) > 0
        assert process == serial

    @pytest.mark.parametrize("gas_aware", [False, True], ids=["round-robin", "gas-aware"])
    def test_registry_runs_again_after_a_process_run(self, gas_aware):
        """A second ``run()`` on the same scheduler continues from the first
        run's final state in either mode: the lanes' control planes, monitors
        and pending requests come home at run end, and the main
        watchdog does not replay events the lanes already routed.  Covers a
        static run ordered ahead and (gas-aware planner) a lockstep one.
        A third run only re-reads: it is served from the memos the first two
        warmed, which a lane must have however its feeds reached it."""

        def two_runs(mode, workers):
            registry, first = build_mixed_fleet()
            _, second = build_mixed_fleet()
            scheduler = EpochScheduler(
                registry,
                num_workers=workers,
                execution_mode=mode,
                **(
                    {"planner": GasAwareShardPlanner(block_gas_fraction=0.02)}
                    if gas_aware
                    else {"num_shards": 4}
                ),
            )
            rereads = {
                feed_id: [Operation.read(operation.key) for operation in operations[:16]]
                for feed_id, operations in second.items()
            }
            prints = [
                scheduler.run(workloads).fingerprint()
                for workloads in (first, second, rereads)
            ]
            assert prints[2]["feeds"]["feed-00"]["cache_hits"]
            return prints, chain_state_fingerprint(registry)

        serial_prints, serial_chain = two_runs("serial", 1)
        process_prints, process_chain = two_runs("process", 2)
        assert process_prints == serial_prints
        assert process_chain == serial_chain

    def test_process_lane_count_never_changes_output(self):
        one_lane, _ = run_fleet(1, execution_mode="process")
        many_lanes, _ = run_fleet(4, execution_mode="process")
        assert one_lane.fingerprint() == many_lanes.fingerprint()

    def test_process_mode_syncs_mirrors_for_post_run_inspection(self):
        serial_fleet, serial_registry = run_fleet(1, execution_mode="serial")
        process_fleet, process_registry = run_fleet(2, execution_mode="process")
        for feed_id in serial_fleet.feeds:
            serial_handle = serial_registry.get(feed_id)
            process_handle = process_registry.get(feed_id)
            # Contract mirrors: storage, root, replica count, call history.
            assert (
                process_handle.storage_manager.storage.slots
                == serial_handle.storage_manager.storage.slots
            )
            assert (
                process_handle.storage_manager.root_hash()
                == serial_handle.storage_manager.root_hash()
            )
            assert process_handle.replicated_on_chain == serial_handle.replicated_on_chain
            # Off-chain mirrors: bill, memo, SP store root (the DO's root).
            assert process_handle.bill == serial_handle.bill
            assert process_handle.memo == serial_handle.memo
            assert (
                process_handle.system.sp_store.root == serial_handle.system.sp_store.root
            )
            # Consumer state (callbacks received) synced from the worker.
            assert (
                process_handle.consumer.deliveries() == serial_handle.consumer.deliveries()
            )


class TestWireCodecEquivalence:
    """The lane boundary must be invisible in every output — with and without
    observability attached, however feeds reach lanes."""

    def test_modes_bit_identical_with_obs_enabled(self):
        serial_fleet, serial_registry = run_fleet(
            1, execution_mode="serial", with_obs=True
        )
        process_fleet, process_registry = run_fleet(
            2, execution_mode="process", with_obs=True
        )
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
            serial_registry
        )

    def test_obs_enabled_matches_obs_disabled(self):
        quiet_fleet, quiet_registry = run_fleet(2, execution_mode="process")
        traced_fleet, traced_registry = run_fleet(
            2, execution_mode="process", with_obs=True
        )
        assert traced_fleet.fingerprint() == quiet_fleet.fingerprint()
        assert chain_state_fingerprint(traced_registry) == chain_state_fingerprint(
            quiet_registry
        )

    def test_a_platform_without_fork_is_refused_at_construction(self, monkeypatch):
        """Lanes only ever fork: where the platform cannot, a process-mode
        scheduler is a typed refusal as it is built, before any lane starts
        (a serial one is unaffected)."""
        monkeypatch.setattr(executor, "_FORK", None, raising=False)
        registry = FeedRegistry()
        before = set(multiprocessing.active_children())
        with pytest.raises(ConfigurationError, match="cannot fork"):
            EpochScheduler(registry, num_workers=2, execution_mode="process")
        assert set(multiprocessing.active_children()) == before
        EpochScheduler(registry)

    def test_serial_mode_serves_a_live_source_where_the_platform_cannot_fork(
        self, monkeypatch
    ):
        """The fork refusal is the process backend's alone: without fork a
        serial scheduler still serves a live source, bit-identical to the
        batch run of the same operations."""
        batch_fleet, batch_registry = run_fleet(1)
        monkeypatch.setattr(executor, "_FORK", None, raising=False)
        registry, workloads = build_mixed_fleet()
        source = ScriptedSource(workloads)
        fleet = EpochScheduler(registry, num_shards=4).run(source=source)
        assert source.finished and source.executed == sum(map(len, workloads.values()))
        assert fleet.fingerprint() == batch_fleet.fingerprint()
        assert chain_state_fingerprint(registry) == chain_state_fingerprint(
            batch_registry
        )

    @pytest.fixture(params=["forkserver", "spawn"])
    def default_start_method(self, request):
        """The interpreter-wide start method set to something other than
        ``fork`` for the test, and left unset again after it."""
        multiprocessing.set_start_method(request.param, force=True)
        yield request.param
        multiprocessing.set_start_method(None, force=True)

    def test_lanes_fork_whatever_the_default_start_method(self, default_start_method):
        """Lanes take the fork context, not the interpreter's default: a
        static fleet is still adopted by the lanes that fork for it (no feed
        installed) and the run is serial-identical."""
        serial_fleet, serial_registry = run_fleet(1)
        process_fleet, process_registry = run_fleet(2)
        assert process_fleet.ipc["installs_total"] == 0
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
            serial_registry
        )

    def test_lanes_inherit_the_main_chain_schedule(self):
        """A lane carries no chain configuration of its own: it charges gas
        on the main registry's schedule, inherited as it forks, so a fleet
        priced off the default schedule bills the same in either mode."""
        schedule = GasSchedule(storage_update_per_word=7_000, hash_per_word=9)

        def run(execution_mode, num_workers):
            default_registry, workloads = build_mixed_fleet()
            registry = FeedRegistry(schedule=schedule)
            for handle in default_registry.handles:
                config = replace(handle.spec.config, gas_schedule=schedule)
                registry.create_feed(replace(handle.spec, config=config))
            scheduler = EpochScheduler(
                registry, num_workers=num_workers, execution_mode=execution_mode
            )
            return scheduler.run(workloads), registry

        serial_fleet, serial_registry = run("serial", 1)
        process_fleet, process_registry = run("process", 2)
        default_fleet, _ = run_fleet(1)
        assert serial_fleet.gas_feed != default_fleet.gas_feed
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
            serial_registry
        )

    def test_ipc_meter_reports_traffic_and_stays_out_of_fingerprint(self):
        process_fleet, _ = run_fleet(2, execution_mode="process")
        summary = process_fleet.ipc
        assert summary is not None
        assert summary["wire_bytes_total"] > 0
        assert summary["epochs"] > 0
        # Frame bytes are a pure function of the fleet and of what a lane
        # packs: this run ships 50 200 B over 8 epochs.  The ceiling (+5 %)
        # is where a change to what crosses has to be deliberate.
        assert 0 < summary["bytes_per_epoch"] <= 6275.0 * 1.05
        # serial runs have no process boundary, hence no IPC record — and the
        # record is measurement, so the fingerprints still agree
        serial_fleet, _ = run_fleet(1, execution_mode="serial")
        assert serial_fleet.ipc is None
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()


class TestProcessModeConstraints:
    def test_serial_mode_rejects_extra_workers(self):
        """Serial is the default mode; either way the error says where extra
        workers go."""
        registry, _ = build_mixed_fleet()
        for kwargs in ({"execution_mode": "serial"}, {}):
            with pytest.raises(ConfigurationError, match='execution_mode="process"'):
                EpochScheduler(registry, num_workers=4, **kwargs)

    def test_unknown_mode_rejected(self):
        registry, _ = build_mixed_fleet()
        for mode in ("fiber", "thread"):
            with pytest.raises(ConfigurationError, match="'serial', 'process'"):
                EpochScheduler(registry, execution_mode=mode)

    def test_a_live_source_is_refused_before_any_lane_starts(self):
        """A live source forces one lockstep epoch per lane order, where
        lanes lose to serial: a process-mode run refuses it typed before a
        lane forks, the source is never polled, and nothing ran."""
        registry, workloads = build_mixed_fleet()
        scheduler = EpochScheduler(registry, num_workers=2, execution_mode="process")
        source = ScriptedSource(workloads)
        height = registry.chain.height
        before = set(multiprocessing.active_children())
        with pytest.raises(ConfigurationError, match="lockstep epoch per lane order"):
            scheduler.run(source=source)
        assert set(multiprocessing.active_children()) == before
        assert (source.polls, source.executed, source.finished) == (0, 0, False)
        assert registry.chain.height == height
        assert not any(handle.queue for handle in registry.handles)

    def test_a_refused_live_run_leaves_the_scheduler_ready_for_a_batch_run(self):
        serial_fleet, serial_registry = run_fleet(1)
        registry, workloads = build_mixed_fleet()
        scheduler = EpochScheduler(
            registry, num_shards=4, num_workers=2, execution_mode="process"
        )
        with pytest.raises(ConfigurationError):
            scheduler.run(workloads, source=ScriptedSource({}))
        process_fleet = scheduler.run(workloads)
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert chain_state_fingerprint(registry) == chain_state_fingerprint(
            serial_registry
        )

    def test_a_refused_source_is_whole_for_a_serial_scheduler(self):
        """The refusal takes nothing from the source: a serial scheduler
        over the same registry then serves every operation it holds."""
        registry, workloads = build_mixed_fleet()
        source = ScriptedSource(workloads)
        with pytest.raises(ConfigurationError):
            EpochScheduler(registry, num_workers=2, execution_mode="process").run(
                source=source
            )
        fleet = EpochScheduler(registry, num_shards=4).run(source=source)
        total = sum(map(len, workloads.values()))
        assert source.finished and source.executed == total
        assert sum(feed.operations for feed in fleet.feeds.values()) == total

    def _run_with_churn(self, execution_mode, num_workers):
        registry, workloads = build_mixed_fleet()
        scheduler = EpochScheduler(
            registry,
            num_shards=4,
            num_workers=num_workers,
            execution_mode=execution_mode,
        )
        scheduler.admit(
            FeedSpec(feed_id="late", config=GrubConfig(epoch_size=8)),
            [Operation.read("k")] * 12,
            at_epoch=1,
        )
        scheduler.evict("feed-03", at_epoch=2)
        return scheduler.run(workloads), registry

    def test_process_mode_runs_churn_bit_identical_to_serial(self):
        """Historically rejected; now routed to the elastic engine, where the
        admitted feed installs into a lane and the evicted one tears down."""
        serial_fleet, serial_registry = self._run_with_churn("serial", 1)
        process_fleet, process_registry = self._run_with_churn("process", 2)
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
            serial_registry
        )
        assert process_fleet.ipc["installs_total"] > 0

    def _run_with_gas_aware_planner(self, execution_mode, num_workers):
        registry, workloads = build_mixed_fleet()
        scheduler = EpochScheduler(
            registry,
            num_workers=num_workers,
            execution_mode=execution_mode,
            planner=GasAwareShardPlanner(block_gas_fraction=0.02),
        )
        return scheduler.run(workloads), registry

    def test_process_mode_runs_gas_aware_planner_bit_identical_to_serial(self):
        """Historically rejected (a re-sharding plan moves feeds between
        lanes); now the moves happen, as snapshot-frame migrations."""
        serial_fleet, serial_registry = self._run_with_gas_aware_planner("serial", 1)
        process_fleet, process_registry = self._run_with_gas_aware_planner(
            "process", 3
        )
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
            serial_registry
        )

    def _run_with_persistent_store(self, execution_mode, num_workers, directory):
        registry = FeedRegistry()
        preload = [KVRecord.make(f"key-{i:02d}", bytes(32)) for i in range(8)]
        registry.create_feed(
            FeedSpec(
                feed_id="lsm-feed",
                config=GrubConfig(epoch_size=8, algorithm="memoryless", k=1),
                preload=preload,
                store_backend="lsm",
                store_directory=directory,
            )
        )
        registry.create_feed(
            FeedSpec(feed_id="mem-feed", config=GrubConfig(epoch_size=8))
        )
        workloads = {
            "lsm-feed": SyntheticWorkload(
                read_write_ratio=2.0,
                num_operations=32,
                num_keys=8,
                key_prefix="key-",
                seed=3,
            ).operations(),
            "mem-feed": [Operation.read("k")] * 8,
        }
        scheduler = EpochScheduler(
            registry, num_workers=num_workers, execution_mode=execution_mode
        )
        return scheduler.run(workloads), registry

    def test_process_mode_runs_persistent_stores_bit_identical_to_serial(self, tmp_path):
        """Historically rejected (two processes must never open one LSM
        directory); the single-opener close/reopen handoff makes it legal —
        and the lane's final store contents land back in the directory."""
        serial_fleet, serial_registry = self._run_with_persistent_store(
            "serial", 1, tmp_path / "serial"
        )
        process_fleet, process_registry = self._run_with_persistent_store(
            "process", 2, tmp_path / "process"
        )
        assert process_fleet.fingerprint() == serial_fleet.fingerprint()
        assert chain_state_fingerprint(process_registry) == chain_state_fingerprint(
            serial_registry
        )
        serial_store = serial_registry.get("lsm-feed").system.sp_store
        process_store = process_registry.get("lsm-feed").system.sp_store
        assert process_store.root == serial_store.root
        # The reopened main-side backing holds the lane's final records.
        backing = process_store.backing
        for record in process_store.records():
            assert backing.get(record.prefixed_key) == record.value


class TestDeliverCacheWarmUp:
    def _registry_with_preloaded_feed(self, **config_overrides):
        registry = FeedRegistry()
        config = GrubConfig(
            epoch_size=2, algorithm="memoryless", k=1, **config_overrides
        )
        registry.create_feed(
            FeedSpec(
                feed_id="alpha",
                config=config,
                preload=[KVRecord.make("k", b"V" * 32)],
            )
        )
        return registry

    def test_deliver_payload_populates_cache(self):
        # Continuous decisions flip "k" to R mid-epoch, so the epoch-0 deliver
        # carries replicate=True — the deliver-time replication the warm-up
        # memoises.
        registry = self._registry_with_preloaded_feed(continuous_decisions=True)
        scheduler = EpochScheduler(registry)
        operations = [
            # Epoch 0: both reads miss (no replica yet); the epoch-end deliver
            # verifies and replicates "k", which must warm the cache.
            Operation.read("k"),
            Operation.read("k"),
            # Epoch 1: with warm-up BOTH reads are cache hits; without it the
            # first read would have to touch the on-chain replica first.
            Operation.read("k"),
            Operation.read("k"),
        ]
        fleet = scheduler.run({"alpha": operations})
        assert fleet.feed("alpha").cache_hits == 2
        assert fleet.feed("alpha").cache_misses == 2

    def test_dirty_keys_are_not_warmed(self):
        registry = self._registry_with_preloaded_feed()
        scheduler = EpochScheduler(registry)
        operations = [
            # Epoch 0: read misses (request), then a write dirties "k".  The
            # epoch-end deliver still carries the OLD value; warming it would
            # serve a stale record in epoch 1.
            Operation.read("k"),
            Operation.write("k", b"N" * 32),
            # Epoch 1: the read must observe the new value.
            Operation.read("k"),
            Operation.read("k"),
        ]
        scheduler.run({"alpha": operations})
        assert registry.get("alpha").consumer.last_value("k") == b"N" * 32
