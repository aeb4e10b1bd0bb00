"""Tests for the experiment runners and reporting helpers.

These run every figure/table experiment at the ``quick`` scale and assert the
*shape* properties the paper reports, so a regression in the system or the
workloads that would change the headline conclusions is caught by the suite.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    ExperimentScale,
    run_adaptive_k_experiment,
    run_algorithm_comparison,
    run_btcrelay_experiment,
    run_eth_price_oracle_experiment,
    run_multitenant_gateway_experiment,
    run_parameter_k_sweep,
    run_ratio_sweep,
    run_record_size_sweep,
    run_threshold_ratio_experiment,
    run_workload_characterisation,
    run_ycsb_experiment,
)
from repro.analysis.reporting import (
    format_distribution,
    format_gas,
    format_percent,
    format_series,
    format_table,
    percent_difference,
)

QUICK = ExperimentScale.quick()


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in lines[-1]

    def test_format_series_downsamples(self):
        text = format_series("s", list(range(200)), max_points=10)
        assert "[200 points]" in text
        assert text.count(",") == 9

    def test_percent_difference(self):
        assert percent_difference(150, 100) == pytest.approx(50.0)
        assert percent_difference(100, 0) == 0.0

    def test_format_percent_and_gas(self):
        assert "+50.0%" in format_percent(150, 100)
        assert format_gas(2_500_000) == "2.5M"
        assert format_gas(1_500) == "1.5k"
        assert format_gas(42) == "42"

    def test_format_distribution(self):
        text = format_distribution({0: 0.7, 1: 0.3}, title="Table")
        assert "70.00%" in text


class TestRatioSweep:
    def test_figure3_shape(self):
        result = run_ratio_sweep(ratios=(0.0, 0.5, 4.0, 64.0), scale=QUICK)
        bl1, bl2 = result.series("BL1"), result.series("BL2")
        # BL1 rises with the read share, BL2 falls.
        assert bl1[0] < bl1[-1]
        assert bl2[0] > bl2[-1]
        # Static baselines trade places: BL1 wins write-heavy, BL2 read-heavy.
        assert bl1[0] < bl2[0]
        assert bl2[-1] < bl1[-1]
        assert result.crossover_ratio is not None
        assert 0.25 <= result.crossover_ratio <= 4.0

    def test_figure7_includes_dynamic_baselines(self):
        result = run_ratio_sweep(
            ratios=(0.5, 16.0), scale=QUICK, include_dynamic_baselines=True
        )
        assert set(result.gas_per_operation) == {"BL1", "BL2", "BL3", "BL4", "GRuB"}
        # Storing the trace on chain is strictly more expensive than GRuB.
        for index in range(2):
            assert result.series("BL3")[index] > result.series("GRuB")[index]
            assert result.series("BL4")[index] > result.series("GRuB")[index]

    def test_rows_for_printing(self):
        result = run_ratio_sweep(ratios=(0.0, 4.0), scale=QUICK)
        rows = result.rows()
        assert len(rows) == 2 and rows[0][0] == 0.0


class TestTraceExperiments:
    def test_figure5_table3_ordering(self):
        result = run_eth_price_oracle_experiment(scale=QUICK, with_stablecoin=False)
        # GRuB is the cheapest; the never-replicate baseline is the most expensive
        # (the paper's Table 3 ordering).
        assert result.feed_gas("GRuB") < result.feed_gas("BL2")
        assert result.feed_gas("GRuB") < result.feed_gas("BL1")
        assert result.overhead_versus_grub("BL1") > 0
        assert result.overhead_versus_grub("BL2") > 0

    def test_figure5_application_layer_adds_gas(self):
        result = run_eth_price_oracle_experiment(scale=QUICK, with_stablecoin=True)
        for name in ("BL1", "BL2", "GRuB"):
            assert result.application_gas[name] >= 0
            assert result.reports[name].gas_total >= result.reports[name].gas_feed

    def test_figure6_btcrelay_phases(self):
        result = run_btcrelay_experiment(scale=QUICK)
        series_bl1 = result.epoch_series["BL1"]
        series_bl2 = result.epoch_series["BL2"]
        half = len(series_bl1) // 2
        mean = lambda xs: sum(xs) / max(1, len(xs))
        # Phase 1 (write-intensive): BL1 beats BL2; phase 2 (read-intensive): BL2 beats BL1.
        assert mean(series_bl1[:half]) < mean(series_bl2[:half])
        assert mean(series_bl2[half:]) < mean(series_bl1[half:])
        # GRuB stays competitive with the best baseline overall.
        best = min(result.feed_gas("BL1"), result.feed_gas("BL2"))
        assert result.feed_gas("GRuB") <= best * 1.15

    def test_figure9_table4_ycsb(self):
        result = run_ycsb_experiment(phases=("A", "B"), scale=QUICK)
        assert result.feed_gas("GRuB") <= min(result.feed_gas("BL1"), result.feed_gas("BL2")) * 1.2
        assert len(result.epoch_series["GRuB"]) > 2


class TestAlgorithmAndParameterExperiments:
    def test_figure8a_memorizing_converges_below_memoryless(self):
        result = run_algorithm_comparison(k=4, scale=QUICK)
        assert result.totals["memorizing"] < result.totals["memoryless"]
        assert result.totals["offline"] <= result.totals["memorizing"] * 1.05

    def test_figure8b_record_size_monotone(self):
        result = run_record_size_sweep(record_sizes_words=(1, 4, 8), scale=QUICK)
        for name in ("BL1", "BL2", "GRuB"):
            series = result.gas_per_operation[name]
            assert series[0] < series[-1]
        # GRuB never exceeds the worse baseline.
        for index in range(3):
            worst = max(result.gas_per_operation["BL1"][index], result.gas_per_operation["BL2"][index])
            assert result.gas_per_operation["GRuB"][index] <= worst

    def test_figure11_k_sweep_has_workload_dependent_extremum(self):
        result = run_parameter_k_sweep(k_values=(1, 2, 8, 32), ratios=(2.0, 8.0), scale=QUICK)
        for label, series in result.gas_per_operation.items():
            assert len(series) == 4
            assert max(series) > min(series)  # K matters

    def test_figure12_threshold_ratio_trends(self):
        result = run_threshold_ratio_experiment(
            record_sizes_bytes=(32, 512), data_sizes=(64, 1024), scale=QUICK
        )
        small_record = result.by_record_size[32]
        large_record = result.by_record_size[512]
        assert small_record is not None and large_record is not None
        # Larger records shift the crossover towards more reads (Figure 12a).
        assert large_record >= small_record
        small_data = result.by_data_size[64]
        large_data = result.by_data_size[1024]
        assert small_data is not None and large_data is not None
        # Larger datasets (bigger proofs) shift it the other way (Figure 12b).
        assert large_data <= small_data

    def test_figure15_table5_adaptive_k(self):
        result = run_adaptive_k_experiment(scale=QUICK)
        assert set(result.totals) == {"static", "adaptive-k1", "adaptive-k2"}
        assert all(total > 0 for total in result.totals.values())
        # K1 ("the future repeats the past") stays close to the static policy,
        # matching Table 5's +0.8%.  The K2-beats-static result of Table 5
        # depends on the anti-correlated bursts of the real trace, which the
        # synthetic i.i.d. trace deliberately does not inject; EXPERIMENTS.md
        # discusses the difference.
        assert abs(result.relative_to_static("adaptive-k1")) < 35.0
        assert isinstance(result.relative_to_static("adaptive-k2"), float)
        assert len(result.epoch_series["static"]) > 1


class TestCharacterisationExperiment:
    def test_tables_one_and_six(self):
        result = run_workload_characterisation(scale=QUICK)
        eth = result.eth_price_oracle.reads_per_write_distribution()
        btc = result.btcrelay.reads_per_write_distribution()
        assert eth.get(0, 0) == pytest.approx(0.704, abs=0.08)
        assert btc.get(0, 0) == pytest.approx(0.937, abs=0.25)
        assert result.eth_price_target[0] == pytest.approx(0.704, abs=1e-6)


class TestGatewayVersusIsolation:
    def test_hosting_beats_isolation_and_amortises_with_fleet_size(self):
        """N feeds behind one gateway against N single-feed deployments on the
        same workloads: the batched base cost is split N ways and hot
        replicated reads come from the cache."""
        results = {
            num_feeds: run_multitenant_gateway_experiment(
                num_feeds, operations_per_feed=128
            )
            for num_feeds in (1, 4, 8)
        }
        for num_feeds in (4, 8):
            result = results[num_feeds]
            assert result.gateway_gas_feed < result.isolated_gas_feed
            assert result.gateway_gas_per_operation < result.isolated_gas_per_operation
            assert result.fleet.cache_hit_rate > 0.0
        # The saving does not shrink as the fleet grows (2 points of slack).
        assert results[8].saving >= results[4].saving - 0.02
