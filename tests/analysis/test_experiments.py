"""Tests for the paper's evaluation: every figure, once, at the ``quick`` scale.

``repro.analysis.figures.FIGURES`` is the one table of figures; this module
runs each key once (``quick``) and reads the result two ways: the *shape*
properties the paper reports (who wins, where the crossover falls), so a
regression that would change a headline conclusion is caught, and a committed
golden table of the exact Gas numbers, so one that moves every figure by 5 %
while keeping the orderings is caught too.
"""

from __future__ import annotations

import functools
import os
import pprint
import subprocess
import sys
from pathlib import Path
from statistics import fmean

import pytest
from multitenant_gateway import host_and_isolate

import repro
from repro.analysis import figures
from repro.analysis.experiments import ExperimentScale
from repro.analysis.figures import FIGURES, pins
from repro.analysis.reporting import (
    format_distribution,
    format_gas,
    format_percent,
    format_series,
    format_table,
    percent_difference,
)

#: Figure key → the numbers it pins at the quick scale (see ``figures.SHAPES``),
#: first computed with the runners as they stood before PR 21 folded their
#: loops.  A PR that means to move Gas pastes the row the failing assertion
#: prints, and says so; any other PR leaves this table alone.  Last moved by
#: PR 24 (one multiproof per ``deliver`` call): every row in which a system
#: delivers more than one record a call — not BL2 where it never delivers
#: (``fig03`` ``fig05`` ``fig06`` ``fig07`` ``fig08b``), not ``per-request``,
#: not ``tab1-6`` — and, where the runner configures no K, the GRuB, BL3 and
#: BL4 rows again: Equation 1's K there follows what delivers measurably cost.
GOLDEN = {
    "fig03": {"BL1": [1065.6875, 2219.234375, 3441.296875, 4368.515625,
                      6081.859375, 5815.484375, 5497.359375, 6442.359375],
              "BL2": [10954.4375, 10053.390625, 8259.09375, 6853.1875,
                      4414.171875, 3482.90625, 2367.484375, 1696.234375],
              "GRuB": [1065.6875, 2219.234375, 3441.296875, 4368.515625,
                       5633.828125, 3482.90625, 2367.484375, 1696.234375],
              "crossover": 2.7951277699801693},
    "fig05": {"BL1": [6625076, 456950], "BL2": [6977904, 456950], "GRuB": [3743560, 456950]},
    "fig06": {"BL1": [4957830, 123728], "BL2": [5589272, 123728], "GRuB": [5533996, 115995]},
    "fig07": {"BL1": [1065.6875, 3441.296875, 4368.515625, 5331.90625,
                      6081.859375, 5815.484375, 5497.359375, 6442.359375],
              "BL2": [10954.4375, 8259.09375, 6853.1875, 5505.515625,
                      4414.171875, 3482.90625, 2367.484375, 1696.234375],
              "BL3": [1065.6875, 5550.671875, 7337.265625, 10404.078125,
                      11376.015625, 9420.40625, 7836.234375, 6930.609375],
              "BL4": [1065.6875, 5550.671875, 7337.265625, 9622.828125,
                      10086.953125, 8639.15625, 7523.734375, 6774.359375],
              "GRuB": [1065.6875, 3441.296875, 4368.515625, 5833.765625,
                       5633.828125, 3482.90625, 2367.484375, 1696.234375],
              "crossover": 2.188572931782117},
    "fig08a": {"memoryless": [666740, 61161],
               "memorizing": [531304, 61161],
               "offline": [458132, 61161]},
    "fig08b": {"BL1": [5331.90625, 6422.90625, 8604.90625, 12968.90625,
                       21696.90625],
               "BL2": [5505.515625, 8484.953125, 14443.828125, 26361.578125,
                       50197.078125],
               "GRuB": [5833.765625, 7477.078125, 10763.703125, 17336.953125,
                        30483.453125],
               "crossover": None},
    "fig09-AB": {"BL1": [6134868, 266437],
                 "BL2": [10932968, 266437],
                 "GRuB": [6363918, 266437]},
    "fig09-AE": {"BL1": [18537806, 1476300],
                 "BL2": [19737288, 1476300],
                 "GRuB": [21445642, 1476300]},
    "fig09-AF": {"BL1": [5960946, 269952],
                 "BL2": [8339726, 269952],
                 "GRuB": [5997026, 269952]},
    "fig11": {"ratio=2": [5865.265625, 5946.65625, 5331.90625, 5331.90625, 5331.90625,
                          5331.90625, 5331.90625],
              "ratio=4": [4931.328125, 5314.6875, 5633.828125, 6081.859375, 6081.859375,
                          6081.859375, 6081.859375],
              "ratio=8": [4374.5, 4376.0625, 4376.0625, 4910.25, 6536.96875, 6536.96875,
                          6536.96875],
              "crossover": None},
    "fig12": {"by record size": {32: 3.957654405307835, 512: 8.0, 4096: 8.0},
              "by data size": {256: 3.957654405307835,
                               4096: 3.7412430481022536,
                               16384: 3.6330373694994633}},
    "fig14": {"GRuB": [20914.2890625, 15108.34375, 12429.52734375, 12001.109375,
                       11942.65234375],
              "BL1": 11982.1640625,
              "BL2": 21353.453125,
              "crossover": None},
    "fig15": {"static": [1591612, 53428],
              "adaptive-k1": [1570122, 53428],
              "adaptive-k2": [5990266, 53428]},
    "tab1-6": {"ethPriceOracle": {0: 0.7333333333333333,
                                  1: 0.175,
                                  2: 0.041666666666666664,
                                  3: 0.025,
                                  4: 0.008333333333333333,
                                  6: 0.008333333333333333,
                                  7: 0.008333333333333333},
               "BtcRelay": {0: 0.92, 1: 0.0775, 2: 0.0025}},
    "ablation-deliver-batching": {"epoch-batched": [560136, 59755],
                                  "per-request": [752644, 59755]},
    "ablation-slot-reuse": {"fresh slot per replica": [612232, 19684],
                            "reused slot pool": [612232, 19684]},
}

#: The figure keys some test below checks the shape of.
SHAPE_CHECKED = set()


def checks(*keys):
    """Mark a test as the shape check of these figure keys."""
    SHAPE_CHECKED.update(keys)
    return lambda test: test


@functools.lru_cache(maxsize=None)
def quick(key):
    """The figure's result at the quick scale; each figure runs once a session."""
    _title, run = FIGURES[key]
    return run(scale=ExperimentScale.quick())


@pytest.mark.parametrize("key", FIGURES)
def test_pinned_numbers_are_the_committed_ones(key):
    pinned = pins(quick(key))
    row = pprint.pformat(pinned, width=80, compact=True, sort_dicts=False)
    assert pinned == GOLDEN.get(key), f"{key} moved; if on purpose, its GOLDEN row is now\n{row}"


def test_every_figure_is_pinned_and_shape_checked():
    """A figure cannot be added unpinned, nor a golden row outlive its figure."""
    assert set(GOLDEN) == set(FIGURES)
    assert SHAPE_CHECKED == set(FIGURES)


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
    @checks("fig03")
    def test_figure3_shape(self):
        result = quick("fig03")
        bl1, bl2 = result.series("BL1"), result.series("BL2")
        # BL1 rises with the read share, BL2 falls.
        assert bl1[0] < bl1[-1]
        assert bl2[0] > bl2[-1]
        # Static baselines trade places: BL1 wins write-heavy, BL2 read-heavy.
        assert bl1[0] < bl2[0]
        assert bl2[-1] < bl1[-1]
        assert result.crossover is not None
        assert 0.25 <= result.crossover <= 4.0

    @checks("fig07")
    def test_figure7_includes_dynamic_baselines(self):
        result = quick("fig07")
        assert set(result.gas_per_operation) == {"BL1", "BL2", "BL3", "BL4", "GRuB"}
        grub = result.series("GRuB")
        # Storing the trace on chain is strictly more expensive than GRuB as
        # soon as there is a read to trace (at ratio 0 there is none).
        for index, ratio in enumerate(result.x_values):
            for traced in (result.series("BL3")[index], result.series("BL4")[index]):
                assert traced > grub[index] if ratio > 0 else traced == grub[index]
        # GRuB tracks the cheaper static baseline at both extremes.
        assert grub[0] <= result.series("BL2")[0] and grub[0] <= result.series("BL1")[0]
        assert grub[-1] <= result.series("BL1")[-1] and grub[-1] <= result.series("BL2")[-1]

    def test_rows_for_printing(self):
        result = quick("fig03")
        rows = result.rows()
        assert len(rows) == len(result.x_values) and rows[0][0] == 0.0


MIXES = ("fig09-AB", "fig09-AE", "fig09-AF")


class TestTraceExperiments:
    @checks("fig05")
    def test_figure5_table3_ordering(self):
        result = quick("fig05")
        # GRuB is the cheapest by far (the paper's Table 3 headline).  Table 3
        # also has never-replicate (BL1) as the dearest, and so did this run
        # while every request carried its own path.  It cannot any more: the
        # trace reads two hot assets ten times after each write, and requests
        # of one key are now one leaf of one multiproof (ISSUE 24's duplicate
        # fix), so BL1 — all delivers — fell from 14.9 M to 6.6 M, under BL2,
        # which never delivers and did not move.
        assert result.totals["GRuB"] * 1.5 < result.totals["BL1"] < result.totals["BL2"]
        assert result.versus_reference("BL1") > 0
        assert result.versus_reference("BL2") > 0

    def test_figure5_application_layer_adds_gas(self):
        for report in quick("fig05").reports.values():
            assert report.gas_application > 0
            assert report.gas_total == report.gas_feed + report.gas_application

    @checks("fig06")
    def test_figure6_btcrelay_phases(self):
        result = quick("fig06")
        series_bl1 = result.epoch_series["BL1"]
        series_bl2 = result.epoch_series["BL2"]
        half = len(series_bl1) // 2
        # Phase 1 (write-intensive): BL1 beats BL2; phase 2 (read-intensive): BL2 beats BL1.
        assert fmean(series_bl1[:half]) < fmean(series_bl2[:half])
        assert fmean(series_bl2[half:]) < fmean(series_bl1[half:])
        # GRuB stays competitive with the best baseline overall — at this
        # scale it lands between the two, not below both.
        best = min(result.totals["BL1"], result.totals["BL2"])
        assert result.totals["GRuB"] <= best * 1.15

    def test_figure9_table4_ycsb(self):
        result = quick("fig09-AB")
        assert result.totals["GRuB"] <= min(result.totals["BL1"], result.totals["BL2"]) * 1.2
        assert len(result.epoch_series["GRuB"]) > 2

    @checks(*MIXES)
    @pytest.mark.parametrize("key", MIXES)
    def test_figures9_13_ycsb_mixes(self, key):
        """GRuB stays below the worse static placement on the point-read
        mixes, and within 1.5x of the better one on every mix: 1.04x and 1.01x
        BL1 on A,B and the small-record A,F.  On the scan mix A,E it is the
        dearest of the three, 1.16x BL1 and 1.09x BL2 (it was between them,
        1.41x the better one, with a path per record): a scan's records share
        most of one multiproof, which made never-replicate 68 % cheaper there,
        and at 128 operations a phase the records GRuB replicates out of a
        scanned range are not scanned again often enough to pay for their
        storage (README, "Reproducing the paper")."""
        result = quick(key)
        baselines = result.totals["BL1"], result.totals["BL2"]
        assert result.totals["GRuB"] <= max(baselines) * (1.10 if key == "fig09-AE" else 1.0)
        assert result.totals["GRuB"] <= min(baselines) * 1.5


class TestAlgorithmAndParameterExperiments:
    @checks("fig08a")
    def test_figure8a_memorizing_converges_below_memoryless(self):
        result = quick("fig08a")
        assert result.totals["memorizing"] < result.totals["memoryless"]
        assert result.totals["offline"] <= result.totals["memorizing"] * 1.05

    @checks("fig08b")
    def test_figure8b_record_size_monotone(self):
        result = quick("fig08b")
        for name in ("BL1", "BL2", "GRuB"):
            series = result.gas_per_operation[name]
            assert series[0] < series[-1]
        # GRuB never exceeds the worse baseline — but for 1-word records, where
        # this ratio-2 workload sits on the BL1/BL2 crossover (it sat at 2
        # words with a path per record) and GRuB pays 6 % over both for the
        # three replicas its first epoch makes before any delivery is measured.
        for index, words in enumerate(result.x_values):
            worst = max(result.series("BL1")[index], result.series("BL2")[index])
            assert result.series("GRuB")[index] <= worst * (1.06 if words == 1 else 1.0)

    @checks("fig11")
    def test_figure11_k_sweep_has_workload_dependent_extremum(self):
        result = quick("fig11")
        assert len(result.gas_per_operation) == 3
        for series in result.gas_per_operation.values():
            assert len(series) == len(result.x_values)
            assert max(series) > min(series)  # K matters

    @checks("fig14")
    def test_figure14_k_sweep_under_ycsb(self):
        result = quick("fig14")
        assert result.baselines["BL1"] > 0 and result.baselines["BL2"] > 0
        series = result.series("GRuB")
        assert len(series) == len(result.x_values)
        assert max(series) > min(series)  # K matters

    @checks("fig12")
    def test_figure12_threshold_ratio_trends(self):
        result = quick("fig12")
        small_record, *_, large_record = result.by_record_size.values()
        assert small_record is not None and large_record is not None
        # Larger records shift the crossover towards more reads (Figure 12a).
        assert large_record >= small_record
        small_data, *_, large_data = result.by_data_size.values()
        assert small_data is not None and large_data is not None
        # Larger datasets (bigger proofs) shift it the other way (Figure 12b).
        assert large_data <= small_data

    @checks("fig15")
    def test_figure15_table5_adaptive_k(self):
        result = quick("fig15")
        assert set(result.totals) == {"static", "adaptive-k1", "adaptive-k2"}
        assert all(total > 0 for total in result.totals.values())
        # K1 ("the future repeats the past") stays close to the static policy,
        # matching Table 5's +0.8%.  Table 5's K2-beats-static does not
        # reproduce: it depends on the anti-correlated bursts of the real
        # trace, which the synthetic i.i.d. trace deliberately does not inject,
        # so K2 costs a multiple of static K here (3.8x at this scale).
        assert abs(result.versus_reference("adaptive-k1")) < 35.0
        assert result.versus_reference("adaptive-k2") > 0
        assert len(result.epoch_series["static"]) > 1


#: Ablation key → (the variant that must not cost more, the one it is read against).
ABLATIONS = {
    "ablation-deliver-batching": ("epoch-batched", "per-request"),
    "ablation-slot-reuse": ("reused slot pool", "fresh slot per replica"),
}


class TestAblations:
    @checks(*ABLATIONS)
    @pytest.mark.parametrize("key", ABLATIONS)
    def test_design_choice_never_costs_more(self, key):
        totals = quick(key).totals
        cheaper, dearer = ABLATIONS[key]
        assert totals[cheaper] <= totals[dearer]

    def test_only_deliver_batching_shows_on_these_workloads(self):
        """Batching saves a transaction per request.  Slot reuse is an
        equality at every scale, not a saving: the six keys re-replicate into
        their own invalidated slots, so the freed-slot pool is never drawn on
        (BtcRelay's ever-new block keys are what draw on it).  Pinned so that
        its starting to matter is noticed."""
        batched, per_request = quick("ablation-deliver-batching").totals.values()
        assert batched < per_request
        without, with_reuse = quick("ablation-slot-reuse").totals.values()
        assert with_reuse == without


class TestCharacterisationExperiment:
    @checks("tab1-6")
    def test_tables_one_and_six(self):
        result = quick("tab1-6")
        eth = result.eth_price_oracle.reads_per_write_distribution()
        btc = result.btcrelay.reads_per_write_distribution()
        assert eth.get(0, 0) == pytest.approx(0.704, abs=0.05)
        assert btc.get(0, 0) == pytest.approx(0.937, abs=0.05)
        assert result.eth_price_target[0] == pytest.approx(0.704, abs=1e-6)


class TestCommand:
    """``python -m repro.analysis``, the table's second reader."""

    def test_prints_a_figure_and_the_same_bytes_under_any_hash_seed(self):
        def run(hash_seed):
            env = {
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).parents[1]),
                "PYTHONHASHSEED": hash_seed,
                "PYTHONIOENCODING": "utf-8",
            }
            # Keys on both sides of the option.
            arguments = ["fig03", "--scale", "quick", "fig06", "fig08a"]
            command = [sys.executable, "-m", "repro.analysis", *arguments]
            return subprocess.run(command, env=env, capture_output=True, timeout=60)

        first, second = run("0"), run("12345")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        lines = first.stdout.decode("utf-8").splitlines()
        assert lines[0] == f"[fig03] {FIGURES['fig03'][0]}" and "(paper: " in lines[0]
        assert "BL1/BL2 crossover ratio ≈ 2.80" in lines

    def test_unknown_key_exits_nonzero_and_lists_the_keys(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            figures.main(["fig03", "fig99"])
        assert exit_.value.code != 0
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing is run before every key is known
        assert "fig99" in captured.err and all(key in captured.err for key in FIGURES)

    def test_no_arguments_prints_every_figure(self, monkeypatch, capsys):
        # The quick results above stand in for the default-scale runs (32 s).
        cached = {
            key: (title, lambda scale, key=key: quick(key))
            for key, (title, _run) in FIGURES.items()
        }
        monkeypatch.setattr(figures, "FIGURES", cached)
        assert figures.main([]) == 0
        headers = [line for line in capsys.readouterr().out.splitlines() if line[:1] == "["]
        assert headers == [f"[{key}] {title}" for key, (title, _run) in FIGURES.items()]


class TestGatewayVersusIsolation:
    def test_hosting_beats_isolation_and_amortises_with_fleet_size(self):
        """N feeds behind one gateway against N single-feed deployments on the
        same workloads (``examples/multitenant_gateway.py``'s comparison):
        the batched base cost is split N ways and hot replicated reads come
        from the cache."""
        ratios = (8.0, 4.0, 1.0, 0.5)
        savings = {}
        for num_feeds in (1, 4, 8):
            tenants = {
                f"feed-{index:03d}": dict(ratio=ratios[index % 4], algorithm="memoryless")
                for index in range(num_feeds)
            }
            fleet, isolated = host_and_isolate(tenants, operations_per_feed=128)
            isolated_gas = sum(report.gas_feed for report in isolated.values())
            isolated_ops = sum(report.operations for report in isolated.values())
            savings[num_feeds] = 1.0 - fleet.gas_feed / isolated_gas
            if num_feeds > 1:
                assert fleet.gas_feed < isolated_gas
                assert fleet.gas_per_operation < isolated_gas / isolated_ops
                assert fleet.cache_hit_rate > 0.0
        # The saving does not shrink as the fleet grows (2 points of slack).
        assert savings[8] >= savings[4] - 0.02
