"""Functions of ``src/repro`` that ``probe.py`` finds unreached, and why each stays.

The probe runs the five benchmark workloads, the paper's figures and every
example; a function none of them enters is listed here as
``"<path under src/repro>::<qualname>": reason``, and one that is not fails
CI's ``reach`` job.  A reason is one of:

* ``test reference: <test files>`` — the tests that call it (the test files
  named here are the ones the probe's recorder saw enter it);
* an abstract or protocol seam — a base method every implementation
  overrides, or the default of an optional hook;
* a benchmark trace hook — ``benchmarks/suite/trace.py`` wraps it by name;
* the roadmap item that will call it (lane and fleet recovery: item 3; the
  freshness check on every served read: item 14);
* ``caller: ...`` — a program entry point the probe does not run.

Delete a function and its entry together; ``test_allowlist.py`` fails on an
entry whose function is gone.
"""

SEAM = "abstract/protocol seam"
TRACE_HOOK = "benchmark trace hook"
RECOVERY = "item 3: recovery"
FRESHNESS = "item 14: the freshness theorem, checked on every served read"

ALLOWED = {
    # ads/authenticated_kv.py
    "ads/authenticated_kv.py::AuthenticatedKVStore.__len__":
        "test reference: tests/ads/test_authenticated_kv.py, tests/ads/test_store_delta.py",
    "ads/authenticated_kv.py::AuthenticatedKVStore.records":
        "test reference: tests/ads/test_authenticated_kv.py, tests/ads/test_batched_proofs.py",
    "ads/authenticated_kv.py::AuthenticatedKVStore.keys":
        "test reference: tests/ads/test_authenticated_kv.py, tests/ads/test_store_delta.py",
    "ads/authenticated_kv.py::AuthenticatedKVStore.apply_update":
        "test reference: tests/ads/test_authenticated_kv.py, tests/ads/test_batched_proofs.py",
    "ads/authenticated_kv.py::AuthenticatedKVStore.apply_state_transition":
        "test reference: tests/ads/test_authenticated_kv.py, tests/ads/test_batched_proofs.py",
    "ads/authenticated_kv.py::AuthenticatedKVStore.query":
        "test reference: tests/ads/test_authenticated_kv.py, tests/ads/test_batched_proofs.py",
    "ads/authenticated_kv.py::AuthenticatedKVStore._replace_record":
        "test reference: tests/ads/test_authenticated_kv.py, tests/ads/test_batched_proofs.py",
    # ads/merkle.py
    "ads/merkle.py::MerkleTree.from_values": "test reference: tests/ads/test_merkle.py",
    "ads/merkle.py::MerkleTree.depth":
        "test reference: tests/ads/test_merkle.py, tests/ads/test_batched_proofs.py",
    "ads/merkle.py::MerkleTree.leaf":
        "test reference: tests/ads/test_merkle.py, tests/ads/test_batched_proofs.py",
    "ads/merkle.py::MerkleTree.leaves":
        "test reference: tests/ads/test_merkle.py, tests/ads/test_batched_proofs.py",
    "ads/merkle.py::MerkleTree.update_leaf":
        "test reference: tests/ads/test_merkle.py, tests/ads/test_merkle_memoization.py",
    # ads/signer.py
    "ads/signer.py::RootSigner.verify": "test reference: tests/ads/test_authenticated_kv.py",
    "ads/signer.py::RootSigner.require_valid":
        "test reference: tests/ads/test_authenticated_kv.py",
    # analysis/experiments.py
    "analysis/experiments.py::ExperimentScale.default":
        "caller: python -m repro.analysis --scale default (CI paper-tables)",
    "analysis/experiments.py::ExperimentScale.paper":
        "caller: python -m repro.analysis --scale paper",
    "analysis/experiments.py::SweepResult.series":
        "test reference: tests/analysis/test_experiments.py",
    # analysis/figures.py
    "analysis/figures.py::pins": "test reference: tests/analysis/test_experiments.py",
    # analysis/reporting.py
    "analysis/reporting.py::format_percent": "test reference: tests/analysis/test_experiments.py",
    # apps/btc/bitcoin.py
    "apps/btc/bitcoin.py::BitcoinBlock.parse_header":
        "test reference: tests/apps/test_btcrelay.py",
    "apps/btc/bitcoin.py::BitcoinSimulator.confirmation_depth":
        "test reference: tests/apps/test_btcrelay.py",
    "apps/btc/bitcoin.py::BitcoinSimulator.verify_header_chain":
        "test reference: tests/apps/test_btcrelay.py",
    # apps/btc/btcrelay.py
    "apps/btc/btcrelay.py::BtcRelayFeed.latest_relayed_height":
        "test reference: tests/apps/test_btcrelay.py",
    # apps/btc/pegged_token.py
    "apps/btc/pegged_token.py::PeggedTokenContract.on_data": SEAM,
    # apps/erc20.py
    "apps/erc20.py::ERC20Token.allowance": "test reference: tests/apps/test_stablecoin.py",
    "apps/erc20.py::ERC20Token.transfer": "test reference: tests/apps/test_stablecoin.py",
    "apps/erc20.py::ERC20Token.approve": "test reference: tests/apps/test_stablecoin.py",
    "apps/erc20.py::ERC20Token.transfer_from": "test reference: tests/apps/test_stablecoin.py",
    "apps/erc20.py::ERC20Token._move": "test reference: tests/apps/test_stablecoin.py",
    "apps/erc20.py::ERC20Token._allowance_slot": "test reference: tests/apps/test_stablecoin.py",
    # apps/stablecoin.py
    "apps/stablecoin.py::SCoinIssuer.collateralisation":
        "test reference: tests/apps/test_stablecoin.py",
    # chain/accounts.py
    "chain/accounts.py::AccountRegistry.balance_in_ether":
        "test reference: tests/chain/test_blockchain.py",
    "chain/accounts.py::AccountRegistry.total_supply":
        "test reference: tests/chain/test_blockchain.py",
    # chain/chain.py
    "chain/chain.py::Blockchain.mine_until_finalized":
        "test reference: tests/core/test_grub_system.py",
    "chain/chain.py::Blockchain.execute_call": TRACE_HOOK,
    "chain/chain.py::Blockchain.is_finalized": "test reference: tests/chain/test_blockchain.py",
    # chain/events.py
    "chain/events.py::EventLog.append": "test reference: tests/gateway/test_fleet_controller.py",
    "chain/events.py::EventLog.__iter__":
        "test reference: tests/chain/test_blockchain.py, tests/gateway/test_elastic_transfer.py",
    "chain/events.py::EventLog.latest":
        "test reference: tests/chain/test_blockchain.py",
    # chain/gas.py
    "chain/gas.py::GasSchedule.replication_threshold_k":
        "test reference: tests/chain/test_gas_and_state.py, tests/core/test_grub_system.py",
    "chain/gas.py::GasLedger.charge":
        "test reference: tests/chain/test_gas_and_state.py, tests/chain/test_gas_scopes.py",
    # chain/state.py
    "chain/state.py::ContractStorage.has":
        "test reference: tests/chain/test_gas_and_state.py, tests/chain/test_blockchain.py",
    "chain/state.py::ContractStorage.size_words":
        "test reference: tests/chain/test_gas_and_state.py",
    "chain/state.py::ContractStorage.snapshot":
        "test reference: tests/chain/test_gas_and_state.py",
    "chain/state.py::ContractStorage.restore": "test reference: tests/chain/test_gas_and_state.py",
    # chain/vm.py
    "chain/vm.py::GasMeter.remaining": "test reference: tests/chain/test_gas_and_state.py",
    # common/clock.py
    "common/clock.py::ManualClock.__init__":
        "test reference: tests/core/test_storage_manager_and_protocol.py",
    "common/clock.py::ManualClock.__call__":
        "test reference: tests/core/test_storage_manager_and_protocol.py",
    "common/clock.py::ManualClock.advance":
        "test reference: tests/core/test_storage_manager_and_protocol.py",
    "common/clock.py::SimulatedClock.schedule":
        "test reference: tests/common/test_encoding_and_hashing.py",
    "common/clock.py::SimulatedClock.pending":
        "test reference: tests/common/test_encoding_and_hashing.py",
    "common/clock.py::SimulatedClock.reset":
        "test reference: tests/common/test_encoding_and_hashing.py",
    # common/encoding.py
    "common/encoding.py::decode_value":
        "test reference: tests/common/test_encoding_and_hashing.py",
    "common/encoding.py::words_for_value":
        "test reference: tests/common/test_encoding_and_hashing.py, tests/common/test_types.py",
    "common/encoding.py::pad_to_word": "test reference: tests/common/test_encoding_and_hashing.py",
    # common/errors.py
    "common/errors.py::OutOfGasError.__init__":
        "test reference: tests/common/test_errors.py, tests/chain/test_gas_and_state.py",
    "common/errors.py::OutOfGasError.__reduce__": "test reference: tests/common/test_errors.py",
    "common/errors.py::LaneDied.__init__":
        "test reference: tests/common/test_errors.py, tests/gateway/test_lane_pipe.py",
    "common/errors.py::LaneDied.__reduce__": "test reference: tests/common/test_errors.py",
    # common/hashing.py
    "common/hashing.py::combine_digests":
        "test reference: tests/common/test_encoding_and_hashing.py",
    "common/hashing.py::verify_signature":
        "test reference: tests/common/test_encoding_and_hashing.py",
    # common/types.py
    "common/types.py::ReplicationState.flipped":
        "test reference: tests/common/test_types.py, tests/ads/test_authenticated_kv.py",
    "common/types.py::Operation.size_words": "test reference: tests/common/test_types.py",
    "common/types.py::KVRecord.size_words": "test reference: tests/common/test_types.py",
    "common/types.py::KVRecord.with_value":
        "test reference: tests/common/test_types.py",
    # core/baselines.py
    "core/baselines.py::build_system": "test reference: tests/core/test_grub_system.py",
    # core/config.py
    "core/config.py::GrubConfig.effective_k": "test reference: tests/core/test_grub_system.py",
    # core/consistency.py
    "core/consistency.py::ConsistencyModel.finality_delay": FRESHNESS,
    "core/consistency.py::ConsistencyModel.freshness_bound": FRESHNESS,
    "core/consistency.py::ConsistencyModel.classify": FRESHNESS,
    "core/consistency.py::ConsistencyModel.guarantees_freshness": FRESHNESS,
    "core/consistency.py::ConsistencyModel.immediate_feed_freshness": FRESHNESS,
    # core/data_consumer.py
    "core/data_consumer.py::DataConsumerContract.last_value":
        "test reference: tests/core/test_grub_system.py, tests/gateway/test_parallel_engine.py",
    "core/data_consumer.py::DataConsumerContract.deliveries":
        "test reference: tests/core/test_storage_manager_and_protocol.py",
    # core/decision/adaptive.py
    "core/decision/adaptive.py::AdaptiveKAlgorithm.predicted_reads_per_write":
        "test reference: tests/core/test_decision_algorithms.py",
    "core/decision/adaptive.py::AdaptiveKAlgorithm.reset": SEAM,
    # core/decision/base.py
    "core/decision/base.py::DecisionAlgorithm.observe": SEAM,
    "core/decision/base.py::DecisionAlgorithm.states":
        "test reference: tests/core/test_decision_algorithms.py",
    "core/decision/base.py::DecisionAlgorithm.reset":
        "test reference: tests/core/test_decision_algorithms.py",
    # core/decision/memorizing.py
    "core/decision/memorizing.py::MemorizingAlgorithm.counters":
        "test reference: tests/core/test_decision_algorithms.py",
    "core/decision/memorizing.py::MemorizingAlgorithm.reset": SEAM,
    "core/decision/memorizing.py::MemorizingAlgorithm.worst_case_competitiveness":
        "test reference: tests/core/test_decision_algorithms.py",
    # core/decision/memoryless.py
    "core/decision/memoryless.py::MemorylessAlgorithm.read_count":
        "test reference: tests/core/test_decision_algorithms.py",
    "core/decision/memoryless.py::MemorylessAlgorithm.reset":
        "test reference: tests/core/test_decision_algorithms.py",
    "core/decision/memoryless.py::MemorylessAlgorithm.worst_case_competitiveness":
        "test reference: tests/core/test_competitiveness.py",
    # core/decision/offline.py
    "core/decision/offline.py::OfflineOptimalAlgorithm.reset": SEAM,
    # core/grub.py
    "core/grub.py::RunReport.saving_versus": "test reference: tests/core/test_grub_system.py",
    # core/service_provider.py
    "core/service_provider.py::TamperingServiceProvider.__post_init__":
        "test reference: tests/core/test_determinism.py",
    "core/service_provider.py::TamperingServiceProvider.capture_snapshot":
        "test reference: tests/core/test_storage_manager_and_protocol.py",
    "core/service_provider.py::TamperingServiceProvider.build_deliver_items":
        "test reference: tests/core/test_storage_manager_and_protocol.py",
    # core/storage_manager.py
    "core/storage_manager.py::CallHistoryCursor.close":
        "test reference: tests/core/test_hotpath_bookkeeping.py",
    "core/storage_manager.py::StorageManagerContract.root_hash":
        "test reference: tests/core/test_storage_manager_and_protocol.py",
    "core/storage_manager.py::StorageManagerContract._mark_replica_count_dirty":
        "test reference: tests/core/test_storage_manager_and_protocol.py",
    "core/storage_manager.py::StorageManagerContract._drop_history_cursor":
        "test reference: tests/core/test_hotpath_bookkeeping.py",
    "core/storage_manager.py::StorageManagerContract.calls_since":
        "test reference: tests/core/test_storage_manager_and_protocol.py",
    # frontdoor/door.py
    "frontdoor/door.py::TenantRequestStats.fingerprint":
        "test reference: tests/frontdoor/test_door.py",
    "frontdoor/door.py::FrontDoorTelemetry.fingerprint":
        "test reference: tests/frontdoor/test_door.py",
    "frontdoor/door.py::FrontDoor.release":
        "test reference: tests/frontdoor/test_door.py, tests/frontdoor/test_gather.py",
    "frontdoor/door.py::FrontDoor.latencies": "test reference: tests/frontdoor/test_door.py",
    "frontdoor/door.py::FrontDoor.next_epoch": "test reference: tests/frontdoor/test_door.py",
    "frontdoor/door.py::FrontDoor.evicted": "test reference: tests/frontdoor/test_door.py",
    "frontdoor/door.py::FrontDoor._set_exception": "test reference: tests/frontdoor/test_door.py",
    # frontdoor/middleware.py
    "frontdoor/middleware.py::Middleware.__call__":
        "test reference: tests/frontdoor/test_middleware.py",
    # gateway/executor.py
    "gateway/executor.py::_LaneWorker.ingest":
        "test reference: tests/gateway/test_elastic_transfer.py",
    "gateway/executor.py::_crossing":
        "test reference: tests/gateway/test_elastic_transfer.py",
    # gateway/metrics.py
    "gateway/metrics.py::FeedTelemetry.replication_churn":
        "test reference: tests/gateway/test_metrics.py",
    "gateway/metrics.py::FeedTelemetry.epoch_series":
        "test reference: tests/gateway/test_metrics.py",
    # gateway/planner.py
    "gateway/planner.py::ShardPlanner.plan": SEAM,
    "gateway/planner.py::ShardPlanner.forget":
        "test reference: tests/gateway/test_elastic_properties.py",
    # gateway/registry.py
    "gateway/registry.py::FeedHandle.replicated_on_chain":
        "test reference: tests/gateway/test_parallel_engine.py",
    "gateway/registry.py::FeedRegistry.__len__": "test reference: tests/gateway/test_registry.py",
    # gateway/scheduler.py
    "gateway/scheduler.py::RequestSource.poll": SEAM,
    "gateway/scheduler.py::RequestSource.exhausted": SEAM,
    "gateway/scheduler.py::RequestSource.next_epoch": SEAM,
    "gateway/scheduler.py::RequestSource.settled": SEAM,
    "gateway/scheduler.py::RequestSource.evicted": SEAM,
    "gateway/scheduler.py::RequestSource.run_finished": SEAM,
    "gateway/scheduler.py::EpochScheduler._next_churn_epoch":
        "test reference: tests/gateway/test_fleet_controller.py",
    "gateway/scheduler.py::_Executor.depth": SEAM,
    "gateway/scheduler.py::_Executor.ingest": SEAM,
    "gateway/scheduler.py::_Executor.retire": SEAM,
    "gateway/scheduler.py::_Executor.run_epoch": SEAM,
    "gateway/scheduler.py::_LaneExecutor.ingest":
        "test reference: tests/gateway/test_elastic_transfer.py, tests/frontdoor/test_door.py",
    # obs/__init__.py
    "obs/__init__.py::Observability.gauge": "test reference: tests/obs/test_export.py",
    "obs/__init__.py::Observability.snapshot":
        "test reference: tests/core/test_storage_manager_and_protocol.py",
    "obs/__init__.py::Observability.phase_percentiles":
        "test reference: tests/gateway/test_observability.py",
    # obs/export.py
    "obs/export.py::validate_jsonl_line":
        "test reference: tests/obs/test_export.py, tests/gateway/test_observability.py",
    "obs/export.py::validate_jsonl":
        "test reference: tests/obs/test_export.py, tests/gateway/test_observability.py",
    "obs/export.py::parse_prometheus":
        "test reference: tests/obs/test_export.py, tests/frontdoor/test_middleware.py",
    # obs/metrics.py
    "obs/metrics.py::Gauge.add": "test reference: tests/obs/test_obs_metrics.py",
    "obs/metrics.py::Histogram.percentile":
        "test reference: tests/obs/test_obs_metrics.py, tests/frontdoor/test_percentiles.py",
    "obs/metrics.py::_NullGauge.set": SEAM,
    "obs/metrics.py::_NullGauge.add": SEAM,
    "obs/metrics.py::MetricsRegistry.snapshot":
        "test reference: tests/obs/test_obs_metrics.py, tests/obs/test_export.py",
    "obs/metrics.py::percentile_reference":
        "test reference: tests/obs/test_obs_metrics.py, tests/frontdoor/test_percentiles.py",
    # obs/tracing.py
    "obs/tracing.py::Span.finished": "test reference: tests/frontdoor/test_door.py",
    "obs/tracing.py::Tracer.current": "test reference: tests/obs/test_tracing.py",
    # storage/kvstore.py
    "storage/kvstore.py::KVStore.get": SEAM,
    "storage/kvstore.py::KVStore.put": SEAM,
    "storage/kvstore.py::KVStore.delete": SEAM,
    "storage/kvstore.py::KVStore.scan": SEAM,
    "storage/kvstore.py::KVStore.items": SEAM,
    "storage/kvstore.py::KVStore.__len__": SEAM,
    "storage/kvstore.py::KVStore.contains":
        "test reference: tests/storage/test_kv_suite.py, tests/gateway/test_feed_store_backend.py",
    "storage/kvstore.py::KVStore.keys":
        "test reference: tests/storage/test_kvstore.py, tests/storage/test_kv_suite.py",
    "storage/kvstore.py::KVStore.require": "test reference: tests/storage/test_kvstore.py",
    "storage/kvstore.py::KVStore.put_many": "test reference: tests/storage/test_kvstore.py",
    "storage/kvstore.py::KVStore.clear": "test reference: tests/storage/test_kvstore.py",
    "storage/kvstore.py::InMemoryKVStore.get":
        "test reference: tests/storage/test_kvstore.py, tests/storage/test_kv_suite.py",
    "storage/kvstore.py::InMemoryKVStore.scan":
        "test reference: tests/storage/test_kvstore.py, tests/storage/test_kv_suite.py",
    "storage/kvstore.py::InMemoryKVStore.items":
        "test reference: tests/storage/test_kvstore.py, tests/storage/test_kv_suite.py",
    "storage/kvstore.py::InMemoryKVStore.__len__":
        "test reference: tests/storage/test_kvstore.py, tests/storage/test_kv_suite.py",
    # storage/lsm.py
    "storage/lsm.py::LSMStore.get": TRACE_HOOK,
    "storage/lsm.py::LSMStore.put": TRACE_HOOK,
    "storage/lsm.py::LSMStore.delete":
        "test reference: tests/storage/test_lsm_wal.py, tests/storage/test_kv_suite.py",
    "storage/lsm.py::LSMStore.scan":
        "test reference: tests/storage/test_kv_suite.py, tests/storage/test_kvstore.py",
    "storage/lsm.py::LSMStore.items":
        "test reference: tests/storage/test_lsm_wal.py, tests/storage/test_kv_suite.py",
    "storage/lsm.py::LSMStore.__len__":
        "test reference: tests/storage/test_kv_suite.py, tests/storage/test_kvstore.py",
    "storage/lsm.py::LSMStore.reopen": RECOVERY,
    "storage/lsm.py::LSMStore._log_wal":
        "test reference: tests/storage/test_lsm_wal.py, tests/storage/test_kv_suite.py",
    "storage/lsm.py::LSMStore._replay_wal": RECOVERY,
    "storage/lsm.py::_pid_alive": RECOVERY,
    # storage/memtable.py
    "storage/memtable.py::MemTable.get":
        "test reference: tests/storage/test_kv_suite.py, tests/storage/test_kvstore.py",
    # storage/sstable.py
    "storage/sstable.py::SSTable.get":
        "test reference: tests/storage/test_kv_suite.py, tests/storage/test_kvstore.py",
    "storage/sstable.py::SSTable.min_key": "test reference: tests/storage/test_kvstore.py",
    "storage/sstable.py::SSTable.max_key": "test reference: tests/storage/test_kvstore.py",
    "storage/sstable.py::SSTable.read_from": RECOVERY,
    "storage/sstable.py::_reserve_sequences": RECOVERY,
    # workloads/operations.py
    "workloads/operations.py::WorkloadStats.read_write_ratio":
        "test reference: tests/workloads/test_workloads.py",
    "workloads/operations.py::WorkloadStats.distribution_table":
        "test reference: tests/workloads/test_workloads.py",
    "workloads/operations.py::interleave_phases":
        "test reference: tests/workloads/test_workloads.py",
    # workloads/synthetic.py
    "workloads/synthetic.py::AlternatingPhaseWorkload.phase_boundaries":
        "test reference: tests/workloads/test_workloads.py",
    "workloads/synthetic.py::WorstCaseMemorylessWorkload.operations":
        "test reference: tests/workloads/test_workloads.py, tests/core/test_competitiveness.py",
    # workloads/ycsb.py
    "workloads/ycsb.py::LatestGenerator.__init__":
        "test reference: tests/workloads/test_workloads.py",
    "workloads/ycsb.py::LatestGenerator.next": "test reference: tests/workloads/test_workloads.py",
}
