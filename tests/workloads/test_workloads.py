"""Tests for the workload generators: synthetic, traces, YCSB and churn."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import OperationKind
from repro.workloads.btcrelay_trace import BTCRELAY_DISTRIBUTION, BtcRelayTrace
from repro.workloads.eth_price_oracle import ETH_PRICE_ORACLE_DISTRIBUTION, EthPriceOracleTrace
from repro.workloads.operations import characterise, interleave_phases
from repro.workloads.synthetic import (
    AlternatingPhaseWorkload,
    SyntheticWorkload,
    WorstCaseMemorylessWorkload,
)
from repro.workloads.ycsb import (
    WORKLOAD_PRESETS,
    MixedYCSBWorkload,
    YCSBConfig,
    YCSBWorkload,
    ZipfianGenerator,
)
import random


class TestSyntheticWorkload:
    def test_ratio_zero_is_write_only(self):
        ops = SyntheticWorkload(read_write_ratio=0, num_operations=50).operations()
        assert all(op.is_write for op in ops)
        assert len(ops) == 50

    def test_ratio_four_gives_four_reads_per_write(self):
        ops = SyntheticWorkload(read_write_ratio=4, num_operations=100).operations()
        stats = characterise(ops)
        assert stats.read_write_ratio == pytest.approx(4.0, rel=0.15)

    def test_fractional_ratio_gives_multiple_writes_per_read(self):
        ops = SyntheticWorkload(read_write_ratio=0.125, num_operations=90).operations()
        stats = characterise(ops)
        assert stats.read_write_ratio == pytest.approx(0.125, rel=0.2)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            SyntheticWorkload(read_write_ratio=-1).operations()

    def test_deterministic_for_same_seed(self):
        a = SyntheticWorkload(read_write_ratio=2, num_operations=64, seed=5).operations()
        b = SyntheticWorkload(read_write_ratio=2, num_operations=64, seed=5).operations()
        assert [(o.kind, o.key, o.value) for o in a] == [(o.kind, o.key, o.value) for o in b]

    def test_record_size_respected(self):
        ops = SyntheticWorkload(read_write_ratio=1, num_operations=16, record_size_bytes=128).operations()
        assert all(op.size_bytes == 128 for op in ops)

    def test_alternating_phases_concatenate(self):
        workload = AlternatingPhaseWorkload(phase_ratios=(0.0, 8.0), operations_per_phase=32)
        ops = workload.operations()
        assert len(ops) == 64
        assert workload.phase_boundaries() == [0, 32]
        first, second = ops[:32], ops[32:]
        assert all(op.is_write for op in first)
        assert sum(op.is_read for op in second) > 20

    def test_worst_case_workload_shape(self):
        ops = WorstCaseMemorylessWorkload(k=3, cycles=5).operations()
        assert len(ops) == 5 * 4
        stats = characterise(ops)
        assert set(stats.reads_after_write) == {3}


class TestEthPriceOracleTrace:
    def test_characterisation_matches_table_one(self):
        """The generator reproduces the Table 1 distribution within tolerance."""
        trace = EthPriceOracleTrace(num_writes=4000, assets_per_update=1, spread_reads=False)
        stats = characterise(trace.operations())
        observed = stats.reads_per_write_distribution()
        assert observed.get(0, 0) == pytest.approx(0.704, abs=0.04)
        assert observed.get(1, 0) == pytest.approx(0.16, abs=0.03)
        # The long tail exists.
        assert max(observed) >= 10

    def test_mean_read_write_ratio_matches_distribution(self):
        trace = EthPriceOracleTrace(num_writes=3000, assets_per_update=1, spread_reads=False)
        stats = characterise(trace.operations())
        expected_mean = sum(k * v for k, v in ETH_PRICE_ORACLE_DISTRIBUTION.items()) / 100.0
        assert stats.read_write_ratio == pytest.approx(expected_mean, rel=0.15)

    def test_batched_updates_touch_multiple_assets(self):
        trace = EthPriceOracleTrace(num_writes=50, assets_per_update=10, num_assets=64)
        ops = trace.operations()
        writes = [op for op in ops if op.is_write]
        assert len(writes) == 500
        assert len({op.key for op in writes}) > 10

    def test_reads_target_hot_assets(self):
        trace = EthPriceOracleTrace(num_writes=200, assets_per_update=10, num_assets=64, hot_assets=2)
        reads = [op for op in trace.operations() if op.is_read]
        assert reads
        assert {op.key for op in reads} <= {trace.asset_key(0), trace.asset_key(1)}

    def test_deterministic(self):
        a = EthPriceOracleTrace(num_writes=100, seed=1).operations()
        b = EthPriceOracleTrace(num_writes=100, seed=1).operations()
        assert [(o.kind, o.key) for o in a] == [(o.kind, o.key) for o in b]


class TestBtcRelayTrace:
    def test_appends_new_keys_per_write(self):
        trace = BtcRelayTrace(num_blocks=100)
        writes = [op for op in trace.operations() if op.is_write]
        assert len(writes) == 100
        assert len({op.key for op in writes}) == 100

    def test_write_phase_then_read_phase(self):
        trace = BtcRelayTrace(num_blocks=200, write_phase_fraction=0.5)
        ops = trace.operations()
        mid = next(i for i, op in enumerate(ops) if op.key == trace.block_key(100))
        first, second = ops[:mid], ops[mid:]
        ratio_first = characterise(first).read_write_ratio
        ratio_second = characterise(second).read_write_ratio
        assert ratio_second > ratio_first * 2

    def test_reads_target_recent_blocks(self):
        trace = BtcRelayTrace(num_blocks=150, recent_window=10)
        ops = trace.operations()
        latest_written = -1
        for op in ops:
            if op.is_write:
                latest_written = int(op.key.split("-")[-1])
            else:
                read_height = int(op.key.split("-")[-1])
                assert latest_written - read_height <= 10 + trace.verification_depth + 3

    def test_pure_distribution_mode_matches_table_six(self):
        trace = BtcRelayTrace(
            num_blocks=4000, write_phase_fraction=0.0, read_boost=1.0, verification_rate=0.0
        )
        stats = characterise(trace.operations())
        observed = stats.reads_per_write_distribution()
        assert observed.get(0, 0) == pytest.approx(0.937, abs=0.03)


class TestZipfian:
    def test_values_within_range(self):
        generator = ZipfianGenerator(1000, random.Random(1))
        values = [generator.next() for _ in range(2000)]
        assert all(0 <= v < 1000 for v in values)

    def test_skew_towards_popular_items(self):
        generator = ZipfianGenerator(1000, random.Random(2))
        values = [generator.next() for _ in range(5000)]
        top_share = sum(1 for v in values if v < 10) / len(values)
        assert top_share > 0.3  # zipfian theta=0.99 concentrates heavily

    def test_scrambled_spreads_hot_keys(self):
        generator = ZipfianGenerator(1000, random.Random(3))
        scrambled = {generator.next_scrambled() for _ in range(200)}
        assert len(scrambled) > 20
        assert all(0 <= v < 1000 for v in scrambled)

    def test_invalid_item_count_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ZipfianGenerator(0, random.Random(1))


class TestYCSB:
    def test_presets_cover_paper_workloads(self):
        assert set("ABCDEF") <= set(WORKLOAD_PRESETS)

    def test_proportions_must_sum_to_one(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            YCSBConfig(name="bad", read_proportion=0.5)

    def test_workload_a_is_half_reads(self):
        workload = YCSBWorkload(WORKLOAD_PRESETS["A"], record_count=100, operation_count=2000, record_size_bytes=64)
        ops = workload.operations()
        reads = sum(1 for op in ops if op.kind is OperationKind.READ)
        assert reads / len(ops) == pytest.approx(0.5, abs=0.05)

    def test_workload_b_is_read_mostly(self):
        workload = YCSBWorkload(WORKLOAD_PRESETS["B"], record_count=100, operation_count=2000, record_size_bytes=64)
        ops = workload.operations()
        reads = sum(1 for op in ops if op.is_read)
        assert reads / len(ops) == pytest.approx(0.95, abs=0.03)

    def test_workload_e_contains_scans_and_inserts(self):
        workload = YCSBWorkload(WORKLOAD_PRESETS["E"], record_count=100, operation_count=1000, record_size_bytes=64)
        ops = workload.operations()
        scans = [op for op in ops if op.kind is OperationKind.SCAN]
        inserts = [op for op in ops if op.is_write]
        assert len(scans) / len(ops) == pytest.approx(0.95, abs=0.04)
        assert inserts
        assert all(op.scan_length <= WORKLOAD_PRESETS["E"].max_scan_length for op in scans)

    def test_workload_f_read_modify_write_pairs(self):
        workload = YCSBWorkload(WORKLOAD_PRESETS["F"], record_count=100, operation_count=1000, record_size_bytes=64)
        ops = workload.operations()
        writes = sum(1 for op in ops if op.is_write)
        assert writes > 0.2 * len(ops)

    def test_inserts_extend_key_space(self):
        workload = YCSBWorkload(WORKLOAD_PRESETS["D"], record_count=50, operation_count=500, record_size_bytes=64)
        ops = workload.operations()
        inserted = [op.key for op in ops if op.is_write]
        assert all(int(key.removeprefix("user")) >= 50 for key in inserted)

    def test_preload_matches_record_count_and_size(self):
        workload = YCSBWorkload(WORKLOAD_PRESETS["A"], record_count=64, record_size_bytes=256)
        preload = workload.preload_records()
        assert len(preload) == 64
        assert all(len(record.value) == 256 for record in preload)

    def test_mixed_workload_phases_and_markers(self):
        mixed = MixedYCSBWorkload(phases=("A", "B"), record_count=64, operations_per_phase=100, record_size_bytes=64)
        ops = mixed.operations()
        assert len(ops) >= 200
        markers = mixed.phase_markers()
        assert markers[0].startswith("P1") and markers[100].startswith("P2")

    def test_mixed_workload_deterministic(self):
        a = MixedYCSBWorkload(phases=("A", "F"), record_count=32, operations_per_phase=64, record_size_bytes=32)
        b = MixedYCSBWorkload(phases=("A", "F"), record_count=32, operations_per_phase=64, record_size_bytes=32)
        assert [(o.kind, o.key) for o in a.operations()] == [(o.kind, o.key) for o in b.operations()]


class TestCharacterisation:
    def test_interleave_phases_renumbers(self):
        phase_a = SyntheticWorkload(read_write_ratio=0, num_operations=10).operations()
        phase_b = SyntheticWorkload(read_write_ratio=4, num_operations=10).operations()
        combined = interleave_phases([phase_a, phase_b])
        assert [op.sequence for op in combined] == list(range(20))

    def test_distribution_table_percentages_sum_to_hundred(self):
        ops = SyntheticWorkload(read_write_ratio=2, num_operations=120).operations()
        stats = characterise(ops)
        total = sum(percentage for _, percentage in stats.distribution_table())
        assert total == pytest.approx(100.0, abs=0.1)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from(["a", "b", "c"])),
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_characterise_counts_are_consistent(self, pairs):
        from repro.common.types import Operation

        ops = [
            Operation.read(key) if is_read else Operation.write(key, b"v")
            for is_read, key in pairs
        ]
        stats = characterise(ops)
        assert stats.reads + stats.writes == len(ops)
        assert stats.reads == sum(1 for op in ops if op.is_read)
        # Every write opens exactly one interval, closed by the next write of
        # the same key or by the end of the trace.
        assert len(stats.reads_after_write) == stats.writes
        assert sum(stats.per_key_reads.values()) == stats.reads


class TestFleetChurnWorkload:
    """The churn schedules the elastic property harness runs: the benchmark's
    ``churn_inputs`` at a shape drawn from the seed, optionally with
    synchronized hot-key bursts spliced in."""

    SEED = 7

    def _workload(self, **overrides):
        from dataclasses import replace

        from churn_schedules import CHURN

        params = dict(
            feeds=6, joins=4, leaves=4, burst_tenants=2, quota_feeds=1, ops_per_feed=48
        )
        params.update(overrides)
        return replace(CHURN, **params)

    def _generate(self, seed=SEED, **overrides):
        from suite.workloads import churn_inputs

        return churn_inputs(self._workload(**overrides), seed)

    def test_schedule_counts_match_parameters(self):
        schedule = self._generate()
        assert len(schedule.specs) == 6
        assert len(schedule.joins) == 4
        assert len(schedule.leaves) == 4
        # Every burst tenant has a paired departure.
        leaving = {feed_id for _, feed_id in schedule.leaves}
        mints = {spec.feed_id for _, spec, _ in schedule.joins if spec.feed_id.startswith("mint-")}
        assert len(mints) == 2 and mints <= leaving

    def test_same_seed_is_reproducible(self):
        first = self._generate()
        second = self._generate()
        assert first.leaves == second.leaves
        assert [at for at, _, _ in first.joins] == [at for at, _, _ in second.joins]
        assert first.streams() == second.streams()

    def test_different_seeds_differ(self):
        first = self._generate(seed=7)
        second = self._generate(seed=8)
        # The seed draws keys and values only; the shape stays put.
        assert first.leaves == second.leaves
        assert [at for at, _, _ in first.joins] == [at for at, _, _ in second.joins]
        assert any(
            first.operations[spec.feed_id] != second.operations[spec.feed_id]
            for spec in first.specs
        )

    def test_quota_feeds_carry_quotas_and_never_leave(self):
        schedule = self._generate(quota_feeds=2)
        quota_ids = [spec.feed_id for spec in schedule.specs if spec.max_ops_per_epoch]
        assert quota_ids == ["res-00", "res-01"]
        assert schedule.specs[0].max_gas_per_epoch is not None
        assert not set(quota_ids) & {feed_id for _, feed_id in schedule.leaves}

    def test_burst_tenants_are_mint_shaped(self):
        schedule = self._generate()
        spec, ops = next(
            (spec, ops) for _, spec, ops in schedule.joins if spec.feed_id.startswith("mint-")
        )
        assert not spec.preload
        writes = [op for op in ops if op.is_write]
        reads = [op for op in ops if op.is_read]
        # A mint burst: writes first, then a heavier read phase over the
        # early (hot) tokens only.
        assert list(ops[: len(writes)]) == writes
        assert len(reads) == 2 * len(writes)
        hot = max(1, len(writes) // 4)
        assert all(int(op.key.rsplit("-", 1)[1]) < hot for op in reads)

    def test_departures_fall_inside_a_sane_epoch_range(self):
        workload = self._workload()
        schedule = self._generate()
        arrivals = {spec.feed_id: at for at, spec, _ in schedule.joins}
        for at_epoch, feed_id in schedule.leaves:
            if feed_id in arrivals:
                # A mint burst leaves four epochs after it arrives.
                assert at_epoch == arrivals[feed_id] + 4
            else:
                # A resident leaves before its unthrottled stream is done.
                assert 2 <= at_epoch <= workload.ops_per_feed // workload.epoch_size

    def test_validation(self):
        """Every shape the harness draws is one ``churn_inputs`` honours:
        exactly the drawn joins, bursts and departures, and at least one
        quota-capped resident."""
        from churn_schedules import shape
        from suite.workloads import churn_inputs

        for seed in range(101, 201):
            workload = shape(seed)
            schedule = churn_inputs(workload, seed)
            assert 1 <= workload.burst_tenants <= workload.joins // 2
            assert len(schedule.joins) == workload.joins
            assert len(schedule.leaves) == workload.leaves
            mints = [spec for _, spec, _ in schedule.joins if spec.feed_id.startswith("mint-")]
            assert len(mints) == workload.burst_tenants
            assert any(spec.max_ops_per_epoch for spec in schedule.specs)

    def test_correlated_hot_keys_off_by_default(self):
        from churn_schedules import build_schedule, shape
        from suite.workloads import churn_inputs

        for seed in (101, 102, 103):
            plain = churn_inputs(shape(seed), seed)
            assert build_schedule(seed).streams() == plain.streams()

    def test_correlated_hot_keys_share_suffixes_and_burst_epochs(self):
        from churn_schedules import (
            EPOCH_SIZE,
            HOT_BURST_EPOCHS,
            HOT_KEYS,
            build_schedule,
        )

        seed = 101
        plain = build_schedule(seed)
        schedule = build_schedule(seed, correlated=True)
        quota_ids = {spec.feed_id for spec in schedule.specs if spec.max_ops_per_epoch}
        assert quota_ids, "the shape must exercise the quota exclusion"
        bursts = set()
        for spec in schedule.specs:
            spliced = schedule.operations[spec.feed_id]
            original = plain.operations[spec.feed_id]
            if spec.feed_id in quota_ids:
                # Quota feeds defer operations, so a spliced burst would not
                # execute in the synchronized epoch: they are left out.
                assert spliced == original
                continue
            # Walk the spliced stream against the original: whole epochs that
            # are not the original's next operations are the bursts.
            hot = [record.key for record in spec.preload[:HOT_KEYS]]
            epochs, pattern = [], []
            position, offset = 0, 0
            while position < len(spliced):
                block = spliced[position : position + EPOCH_SIZE]
                if position % EPOCH_SIZE == 0 and block != original[offset : offset + EPOCH_SIZE]:
                    assert all(op.is_read and op.key in hot for op in block)
                    epochs.append(position // EPOCH_SIZE)
                    pattern.extend(hot.index(op.key) for op in block)
                    position += EPOCH_SIZE
                    continue
                assert spliced[position] == original[offset]
                position += 1
                offset += 1
            assert offset == len(original)
            assert len(epochs) == HOT_BURST_EPOCHS
            bursts.add((tuple(epochs), tuple(pattern)))
        # The *same* key pattern in the *same* epochs for every unthrottled
        # resident: the cross-feed correlation the planner and cache see.
        assert len(bursts) == 1
        # Joiners are never spliced.
        assert [ops for _, _, ops in schedule.joins] == [ops for _, _, ops in plain.joins]

    def test_correlated_schedule_is_reproducible(self):
        from churn_schedules import build_schedule

        first = build_schedule(101, correlated=True)
        second = build_schedule(101, correlated=True)
        assert first.streams() == second.streams()
        assert first.operations != build_schedule(101).operations
