"""End-to-end tests for the GRuB system facade and the baselines.

These are the shape tests: they assert the qualitative results of the paper's
evaluation (who wins under which workload, that GRuB adapts, that gas grows
with record size, that the consistency bounds hold) without pinning absolute
gas values.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import KVRecord, Operation, ReplicationState
from repro.core.baselines import (
    AlwaysReplicateSystem,
    NoReplicationSystem,
    build_system,
)
from repro.core.config import GrubConfig
from repro.core.consistency import ConsistencyModel, OrderingRegime
from repro.core.grub import GrubSystem
from repro.workloads.synthetic import AlternatingPhaseWorkload, SyntheticWorkload


def run_system(cls, ops, **config_kwargs):
    config = GrubConfig(epoch_size=16, **config_kwargs)
    return cls(config).run(ops)


class TestConfigValidation:
    def test_epoch_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            GrubConfig(epoch_size=0)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            GrubConfig(algorithm="magic")

    def test_effective_k_defaults_to_equation_one(self):
        assert GrubConfig().effective_k == 2
        assert GrubConfig(k=7).effective_k == 7

    def test_with_algorithm_returns_new_config(self):
        config = GrubConfig()
        other = config.with_algorithm("memorizing", window_d=3)
        assert other.algorithm == "memorizing" and other.window_d == 3
        assert config.algorithm == "memoryless"

    def test_build_system_factory(self):
        assert isinstance(build_system("bl1"), NoReplicationSystem)
        assert isinstance(build_system("bl2"), AlwaysReplicateSystem)
        assert isinstance(build_system("grub"), GrubSystem)
        with pytest.raises(ValueError):
            build_system("bl9")


class TestRunReports:
    def test_report_counts_operations_and_epochs(self, grub_system, mixed_workload):
        report = grub_system.run(mixed_workload)
        assert report.operations == len(mixed_workload)
        assert report.reads + report.writes == report.operations
        assert len(report.epochs) == (len(mixed_workload) + 7) // 8
        assert report.gas_feed > 0
        assert report.gas_per_operation == pytest.approx(
            report.gas_feed / report.operations
        )

    def test_epoch_series_matches_epoch_summaries(self, grub_system, mixed_workload):
        report = grub_system.run(mixed_workload)
        series = report.epoch_series()
        assert len(series) == len(report.epochs)
        assert series[0] == report.epochs[0].gas_per_operation

    def test_gas_by_category_populated(self, grub_system, mixed_workload):
        report = grub_system.run(mixed_workload)
        by_category = grub_system.chain.ledger.by_category
        assert "transaction" in by_category
        assert sum(by_category.values()) >= report.gas_feed


class TestPaperShapeStaticBaselines:
    """The Figure 3 / Figure 7 shape: BL1 wins write-heavy, BL2 wins read-heavy."""

    def test_bl1_cheaper_for_write_only(self):
        ops = SyntheticWorkload(read_write_ratio=0, num_operations=256).operations()
        bl1 = run_system(NoReplicationSystem, list(ops))
        bl2 = run_system(AlwaysReplicateSystem, list(ops))
        assert bl1.gas_per_operation < bl2.gas_per_operation / 3

    def test_bl2_cheaper_for_read_heavy(self):
        ops = SyntheticWorkload(read_write_ratio=64, num_operations=256).operations()
        bl1 = run_system(NoReplicationSystem, list(ops))
        bl2 = run_system(AlwaysReplicateSystem, list(ops))
        assert bl2.gas_per_operation < bl1.gas_per_operation / 3

    def test_crossover_between_half_and_four(self):
        """The BL1/BL2 crossover falls in the paper's neighbourhood (ratio ≈ 1–2)."""
        cheaper_at = {}
        for ratio in (0.5, 4.0):
            ops = SyntheticWorkload(read_write_ratio=ratio, num_operations=256).operations()
            bl1 = run_system(NoReplicationSystem, list(ops))
            bl2 = run_system(AlwaysReplicateSystem, list(ops))
            cheaper_at[ratio] = "BL1" if bl1.gas_feed < bl2.gas_feed else "BL2"
        assert cheaper_at[0.5] == "BL1"
        assert cheaper_at[4.0] == "BL2"

    def test_grub_tracks_the_cheaper_baseline(self):
        for ratio in (0.0, 64.0):
            ops = SyntheticWorkload(read_write_ratio=ratio, num_operations=256).operations()
            grub = run_system(GrubSystem, list(ops))
            bl1 = run_system(NoReplicationSystem, list(ops))
            bl2 = run_system(AlwaysReplicateSystem, list(ops))
            assert grub.gas_feed <= min(bl1.gas_feed, bl2.gas_feed) * 1.25

    def test_gas_grows_with_record_size(self):
        """Figure 8b: per-operation gas grows with the record size."""
        results = []
        for words in (1, 4, 16):
            ops = SyntheticWorkload(
                read_write_ratio=2, num_operations=128, record_size_bytes=32 * words
            ).operations()
            results.append(run_system(GrubSystem, ops, record_size_bytes=32 * words).gas_per_operation)
        assert results[0] < results[1] < results[2]


class TestAdaptivity:
    def test_grub_adapts_across_phases(self):
        """On a write-heavy → read-heavy workload GRuB beats both static baselines."""
        workload = AlternatingPhaseWorkload(
            phase_ratios=(0.0, 16.0, 0.0, 16.0), operations_per_phase=96, num_keys=3
        )
        ops = workload.operations()
        grub = run_system(GrubSystem, list(ops), algorithm="memoryless", k=2)
        bl1 = run_system(NoReplicationSystem, list(ops))
        bl2 = run_system(AlwaysReplicateSystem, list(ops))
        assert grub.gas_feed < bl1.gas_feed
        assert grub.gas_feed < bl2.gas_feed

    def test_replication_happens_under_read_bursts(self):
        config = GrubConfig(epoch_size=8, algorithm="memoryless", k=1)
        system = GrubSystem(config, preload=[KVRecord.make("hot", b"x" * 32)])
        ops = [Operation.read("hot") for _ in range(24)]
        report = system.run(ops)
        assert system.replicated_on_chain == 1
        assert report.deliveries >= 1

    def test_never_replicate_system_keeps_chain_empty(self):
        config = GrubConfig(epoch_size=8)
        system = NoReplicationSystem(config, preload=[KVRecord.make("hot", b"x" * 32)])
        system.run([Operation.read("hot") for _ in range(24)])
        assert system.replicated_on_chain == 0

    def test_always_replicate_system_replicates_every_written_key(self):
        config = GrubConfig(epoch_size=8)
        system = AlwaysReplicateSystem(config)
        system.run([Operation.write(f"k{i}", b"v" * 32) for i in range(8)])
        assert system.replicated_on_chain == 8

    def test_eviction_bounds_onchain_footprint(self):
        config = GrubConfig(
            epoch_size=4, algorithm="memoryless", k=1, evict_unused_after_epochs=2
        )
        system = GrubSystem(config)
        ops = []
        for index in range(12):
            key = f"k{index}"
            ops.append(Operation.write(key, b"v" * 32))
            ops.append(Operation.read(key))
            ops.append(Operation.read(key))
        report = system.run(ops)
        assert report.evictions > 0
        assert system.replicated_on_chain < 12


class TestScansAndApplicationGas:
    def test_scan_operations_supported(self):
        preload = [KVRecord.make(f"key-{i:03d}", b"v" * 32) for i in range(16)]
        system = GrubSystem(GrubConfig(epoch_size=8), preload=preload)
        report = system.run([Operation.scan("key-004", 4)])
        assert report.reads == 1
        assert report.gas_feed > 0

    def test_application_gas_tracked_separately(self):
        preload = [KVRecord.make("hot", b"x" * 32)]
        system = GrubSystem(GrubConfig(epoch_size=4), preload=preload)
        report = system.run([Operation.read("hot") for _ in range(8)])
        assert report.gas_application > 0
        assert report.gas_total == report.gas_feed + report.gas_application


class TestConsistencyModel:
    def test_freshness_bound_formula(self):
        system = GrubSystem(GrubConfig(epoch_size=4))
        model = system.consistency
        expected = (
            model.epoch_seconds
            + model.chain.propagation_delay
            + model.chain.block_interval * model.chain.finality_depth
        )
        assert model.freshness_bound == pytest.approx(expected)

    def test_classification_concurrent_vs_sequential(self):
        from repro.chain.chain import ChainParameters

        model = ConsistencyModel(
            epoch_seconds=60, chain=ChainParameters(block_interval=10, propagation_delay=1, finality_depth=5)
        )
        bound = model.freshness_bound
        assert model.classify(0.0, bound / 2) is OrderingRegime.CONCURRENT
        assert model.classify(0.0, bound + 1) is OrderingRegime.SEQUENTIAL
        assert model.guarantees_freshness(0.0, bound + 1)
        assert not model.guarantees_freshness(0.0, bound - 1)

    def test_sequential_gget_observes_prior_gput(self):
        """Theorem 3.2 checked end to end: after the epoch update is mined and
        finalized, a read returns the updated value."""
        from repro.chain.chain import ChainParameters

        config = GrubConfig(
            epoch_size=2,
            chain_parameters=ChainParameters(finality_depth=2, block_interval=5.0),
        )
        system = GrubSystem(config, preload=[KVRecord.make("k", b"old" + b"\x00" * 29)])
        put_time = system.clock.now
        system.data_owner.put("k", b"new" + b"\x00" * 29)
        system.data_owner.end_epoch()
        block = system.chain.mine_block()
        system.chain.mine_until_finalized(block.number)
        # Wait out the full epoch-bounded freshness window before reading.
        system.clock.advance(system.consistency.freshness_bound)
        get_time = system.clock.now
        assert system.consistency.guarantees_freshness(put_time, get_time)
        system.chain.execute_internal_call("user", "data-consumer", "query_feed", key="k")
        system.service_provider.service_epoch()
        system.chain.mine_block()
        assert system.consumer.last_value("k").startswith(b"new")

    def test_immediate_feed_freshness_is_tighter(self):
        system = GrubSystem(GrubConfig(epoch_size=32))
        assert system.consistency.immediate_feed_freshness() < system.consistency.freshness_bound
