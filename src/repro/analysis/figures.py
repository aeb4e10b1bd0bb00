"""The paper's evaluation as one table: figure key → title and the runner with
the paper's arguments; how a result prints and which numbers it pins go by its
*shape* (its result type), once per shape and not once per figure.

The table has three readers and no owner: ``tests/analysis/test_experiments.py``
runs every key at the quick scale (shape checks, and a committed golden table
of the pinned numbers), ``python -m repro.analysis [--scale quick|default|paper]
[key ...]`` prints them, and the README's results tables are that command's
output.  Simulated Gas is exact, so nothing here is timed.
"""

from __future__ import annotations

import argparse
from functools import partial
from statistics import fmean
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import experiments as ex
from repro.analysis.reporting import format_distribution, format_series, format_table


def _render_sweep(result: ex.SweepResult) -> List[str]:
    rows = [(f"{x:g}", *cells) for x, *cells in result.rows()]
    lines = [format_table([result.x_label, *result.gas_per_operation], rows)]
    if result.baselines:
        flat = (f"{name} {gas:,.0f}" for name, gas in result.baselines.items())
        lines.append(f"at every {result.x_label}: " + ", ".join(flat))
    if result.crossover is not None:
        lines.append(f"BL1/BL2 crossover ratio ≈ {result.crossover:.2f}")
    return lines


def _render_comparison(result: ex.ComparisonResult) -> List[str]:
    rows = []
    for name, report in result.reports.items():
        series = report.epoch_series()
        half = len(series) // 2
        versus = f"{result.versus_reference(name):+.1f}%"
        halves = (fmean(series[:half]), fmean(series[half:]))
        rows.append((name, report.gas_feed, versus, report.gas_total, *halves))
    headers = ["system", "feed Gas", f"vs {result.reference}", "feed + application Gas"]
    headers += ["Gas/op, first half", "Gas/op, second half"]
    epochs = (
        format_series(f"Gas/op per epoch, {name}", values, max_points=24)
        for name, values in result.epoch_series.items()
    )
    return [format_table(headers, rows), *epochs]


def _render_thresholds(result: ex.ThresholdRatioResult) -> List[str]:
    return [
        format_table(
            [varied, "threshold read/write ratio"],
            [(size, f"{ratio:.2f}") for size, ratio in thresholds.items()],
        )
        for varied, thresholds in (
            ("record size (bytes)", result.by_record_size),
            ("data size (records)", result.by_data_size),
        )
    ]


def _render_distributions(result: ex.CharacterisationResult) -> List[str]:
    lines = []
    for name, stats, paper in (
        ("ethPriceOracle (Table 1, Figure 2)", result.eth_price_oracle, result.eth_price_target),
        ("BtcRelay (Table 6, Figure 16a)", result.btcrelay, result.btcrelay_target),
    ):
        title = f"{name} — paper: {paper[0]:.1%} of writes followed by no read"
        lines.append(format_distribution(stats.reads_per_write_distribution(), title))
        series = stats.reads_per_write_series()
        lines.append(format_series("reads after each write", series, precision=0, max_points=48))
    return lines


#: Result type → (how it prints, the numbers it pins).
SHAPES: Dict[type, Tuple[Callable[..., List[str]], Callable[..., Dict[str, object]]]] = {
    ex.SweepResult: (
        _render_sweep,
        lambda r: {**r.gas_per_operation, **r.baselines, "crossover": r.crossover},
    ),
    ex.ComparisonResult: (
        _render_comparison,
        lambda r: {name: [rep.gas_feed, rep.gas_application] for name, rep in r.reports.items()},
    ),
    ex.ThresholdRatioResult: (
        _render_thresholds,
        lambda r: {"by record size": r.by_record_size, "by data size": r.by_data_size},
    ),
    ex.CharacterisationResult: (
        _render_distributions,
        lambda r: {
            "ethPriceOracle": r.eth_price_oracle.reads_per_write_distribution(),
            "BtcRelay": r.btcrelay.reads_per_write_distribution(),
        },
    ),
}


def render(result: object) -> List[str]:
    """The lines a figure's result prints as, under its title."""
    return SHAPES[type(result)][0](result)


def pins(result: object) -> Dict[str, object]:
    """The numbers a figure's result pins: exact values, nothing rounded."""
    return SHAPES[type(result)][1](result)


#: Figure key → (title, the runner with the paper's arguments: ``run(scale=...)``).
FIGURES: Dict[str, Tuple[str, Callable[..., object]]] = {
    "fig03": (
        "Figure 3 — static baselines vs read/write ratio (paper: BL1/BL2 crossover ≈1.5)",
        partial(ex.run_ratio_sweep, (0.0, 0.125, 0.5, 1.0, 4.0, 16.0, 64.0, 256.0)),
    ),
    "fig05": (
        "Figure 5 / Table 3 — ethPriceOracle trace with the stablecoin application",
        partial(ex.run_eth_price_oracle_experiment, with_stablecoin=True),
    ),
    "fig06": (
        "Figure 6 — BtcRelay trace (write-intensive half, then read-intensive half)",
        ex.run_btcrelay_experiment,
    ),
    "fig07": (
        "Figure 7 — all baselines vs read/write ratio (paper: BL1/BL2 crossover ≈2)",
        partial(
            ex.run_ratio_sweep,
            (0.0, 0.5, 1.0, 2.0, 4.0, 16.0, 64.0, 256.0),
            include_dynamic_baselines=True,
        ),
    ),
    "fig08a": (
        "Figure 8a — memoryless (K=8) vs memorizing (K'=8, D=1) vs offline optimal",
        partial(ex.run_algorithm_comparison, k=8, window_d=1),
    ),
    "fig08b": (
        "Figure 8b — Gas per operation vs record size",
        partial(ex.run_record_size_sweep, (1, 2, 4, 8, 16)),
    ),
    "fig09-AB": (
        "Table 4 / Figure 9 — mixed YCSB workload A,B",
        partial(ex.run_ycsb_experiment, ("A", "B", "A", "B")),
    ),
    "fig09-AE": (
        "Table 4 / Figures 9, 13 — mixed YCSB workload A,E",
        partial(ex.run_ycsb_experiment, ("A", "E", "A", "E")),
    ),
    "fig09-AF": (
        "Table 4 / Figures 9, 13 — mixed YCSB workload A,F (32-byte records)",
        partial(ex.run_ycsb_experiment, ("A", "F", "A", "F"), record_size_bytes=32),
    ),
    "fig11": (
        "Figure 11 — memoryless GRuB Gas per operation vs parameter K",
        partial(ex.run_parameter_k_sweep, (1, 2, 4, 8, 16, 32, 64), (2.0, 4.0, 8.0)),
    ),
    "fig12": (
        "Figure 12 — BL1/BL2 threshold ratio vs record size (12a) and data size (12b)",
        partial(ex.run_threshold_ratio_experiment, (32, 512, 4096), (256, 4096, 16384)),
    ),
    "fig14": (
        "Figure 14 — GRuB Gas per operation vs K under mixed YCSB A,B",
        partial(ex.run_ycsb_parameter_k_sweep, (1, 2, 4, 8, 16)),
    ),
    "fig15": (
        "Figure 15 / Table 5 — static K vs adaptive K1, K2, ethPriceOracle (paper: K1 +0.8%)",
        ex.run_adaptive_k_experiment,
    ),
    "tab1-6": (
        "Tables 1, 6 / Figures 2, 16a — reads per write in the two traces",
        ex.run_workload_characterisation,
    ),
    "ablation-deliver-batching": (
        "Ablation — one deliver transaction per epoch vs one per request",
        ex.run_deliver_batching_ablation,
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis", description="Print the paper's figures, in Gas."
    )
    parser.add_argument("keys", nargs="*", metavar="key", help="default: every figure")
    parser.add_argument("--scale", choices=("quick", "default", "paper"), default="default")
    args = parser.parse_intermixed_args(argv)  # `fig03 --scale quick fig06` is fine
    unknown = [key for key in args.keys if key not in FIGURES]
    if unknown:
        parser.error(f"unknown figure {', '.join(unknown)}; the keys are: {', '.join(FIGURES)}")
    scale = getattr(ex.ExperimentScale, args.scale)()
    for key in args.keys or FIGURES:
        title, run = FIGURES[key]
        print(f"[{key}] {title}", *render(run(scale=scale)), sep="\n", end="\n\n", flush=True)
    return 0
