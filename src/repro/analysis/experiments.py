"""Experiment runners: one function per table/figure of the paper's evaluation.

Each runner builds the systems under comparison (GRuB plus the relevant
baselines), drives the corresponding workload, and returns a structured result
object.  :mod:`repro.analysis.figures` names each figure's runner and the
paper's arguments for it; ``python -m repro.analysis`` prints the rows/series
the paper reports, and the tests assert the *shape* properties (who wins, where
the crossover falls) and pin the gas numbers at the ``quick`` scale.

Every runner accepts an :class:`ExperimentScale` so the same code can run the
paper's full parameters (slow) or a scaled-down configuration (``default`` in
CI, ``quick`` in tests) without changing the experiment logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.reporting import percent_difference
from repro.common.types import KVRecord, Operation
from repro.core.baselines import (
    AlwaysReplicateSystem,
    NoReplicationSystem,
    OnChainReadTraceSystem,
    OnChainTraceSystem,
)
from repro.core.config import GrubConfig
from repro.core.grub import GrubSystem, RunReport
from repro.workloads.btcrelay_trace import BtcRelayTrace
from repro.workloads.eth_price_oracle import EthPriceOracleTrace
from repro.workloads.operations import WorkloadStats, characterise
from repro.workloads.synthetic import AlternatingPhaseWorkload, SyntheticWorkload
from repro.workloads.ycsb import MixedYCSBWorkload


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling knobs shared by all experiment runners.

    ``paper()`` returns the parameters used in the paper; ``default()`` is a
    laptop-scale configuration that keeps each experiment under a few seconds.
    """

    synthetic_operations: int = 512
    epoch_size: int = 32
    eth_price_writes: int = 790
    eth_price_store_records: int = 256
    eth_price_assets_per_update: int = 10
    btcrelay_blocks: int = 204
    btcrelay_epoch_size: int = 4
    ycsb_record_count: int = 2048
    ycsb_operations_per_phase: int = 1024
    ycsb_record_size_bytes: int = 256

    @classmethod
    def default(cls) -> "ExperimentScale":
        return cls()

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Very small configuration for unit tests."""
        return cls(
            synthetic_operations=128,
            eth_price_writes=120,
            eth_price_store_records=64,
            eth_price_assets_per_update=4,
            btcrelay_blocks=60,
            ycsb_record_count=256,
            ycsb_operations_per_phase=128,
            ycsb_record_size_bytes=64,
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        return cls(
            synthetic_operations=2048,
            eth_price_writes=790,
            eth_price_store_records=4096,
            eth_price_assets_per_update=10,
            btcrelay_blocks=204,
            ycsb_record_count=65536,
            ycsb_operations_per_phase=4096,
            ycsb_record_size_bytes=1024,
        )


# ---------------------------------------------------------------------------
# What every comparison shares: the workloads at a scale, the build-and-run
# loop, and the shapes its results take
# ---------------------------------------------------------------------------

BASELINES: Dict[str, type] = {
    "BL1": NoReplicationSystem,
    "BL2": AlwaysReplicateSystem,
    "BL3": OnChainTraceSystem,
    "BL4": OnChainReadTraceSystem,
}
STATIC_COMPARISON = ("BL1", "BL2", "GRuB")


def _run_systems(
    configs: Mapping[str, GrubConfig],
    operations: Sequence[Operation],
    *,
    preload: Optional[Sequence[KVRecord]] = None,
    prepare: Optional[Callable[[GrubSystem], object]] = None,
    phase_markers: Optional[Dict[int, str]] = None,
) -> Dict[str, RunReport]:
    """Drive the same operations through one freshly built system per label.

    A label naming a baseline (BL1–BL4) builds that baseline — BL1 and BL2
    fix their own replication policy, whatever algorithm and K the config
    carries — and any other label builds GRuB.  ``prepare`` sees each system
    before its run (to deploy an application on it, say).
    """
    reports: Dict[str, RunReport] = {}
    for name, config in configs.items():
        system = BASELINES.get(name, GrubSystem)(config, preload=preload)
        if prepare is not None:
            prepare(system)
        reports[name] = system.run(operations, phase_markers=phase_markers)
    return reports


def _synthetic_operations(scale: ExperimentScale, ratio: float, **workload) -> List[Operation]:
    """``scale.synthetic_operations`` operations over four keys at one read/write ratio."""
    workload = {"num_operations": scale.synthetic_operations, "num_keys": 4, **workload}
    return SyntheticWorkload(read_write_ratio=ratio, **workload).operations()


def _eth_price_oracle(
    scale: ExperimentScale, **trace_options
) -> Tuple[List[Operation], List[KVRecord]]:
    """The ethPriceOracle trace at ``scale`` and the records its store starts with."""
    trace = EthPriceOracleTrace(
        num_writes=scale.eth_price_writes,
        assets_per_update=scale.eth_price_assets_per_update,
        num_assets=scale.eth_price_store_records,
        **trace_options,
    )
    preload = [
        KVRecord.make(trace.asset_key(index), b"\x00" * 32)
        for index in range(scale.eth_price_store_records)
    ]
    return trace.operations(), preload


def _mixed_ycsb(
    scale: ExperimentScale, phases: Sequence[str], record_size_bytes: int
) -> MixedYCSBWorkload:
    return MixedYCSBWorkload(
        phases=phases,
        record_count=scale.ycsb_record_count,
        record_size_bytes=record_size_bytes,
        operations_per_phase=scale.ycsb_operations_per_phase,
    )


@dataclass
class SweepResult:
    """Per-operation gas of each named series along one swept parameter
    (Figures 3, 7, 8b, 11 and 14)."""

    x_label: str
    x_values: List[float]
    gas_per_operation: Dict[str, List[float]]
    #: Where BL1 stops being cheaper than BL2 (the read/write-ratio sweeps).
    crossover: Optional[float] = None
    #: Systems the swept parameter does not touch, as flat lines (Figure 14).
    baselines: Dict[str, float] = field(default_factory=dict)

    def series(self, name: str) -> List[float]:
        return self.gas_per_operation[name]

    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (x, *[round(series[index]) for series in self.gas_per_operation.values()])
            for index, x in enumerate(self.x_values)
        ]


@dataclass
class ComparisonResult:
    """Several systems over one workload — GRuB against the static baselines
    (Figures 5, 6, 9, 13), or variants of GRuB against one another (Figures 8a
    and 15, the ablations) — each read against ``reference``."""

    reports: Dict[str, RunReport]
    reference: str = "GRuB"

    @property
    def totals(self) -> Dict[str, int]:
        return {name: report.gas_feed for name, report in self.reports.items()}

    @property
    def epoch_series(self) -> Dict[str, List[float]]:
        return {name: report.epoch_series() for name, report in self.reports.items()}

    def versus_reference(self, system: str) -> float:
        """How far a system's feed gas is above the reference's, in percent."""
        totals = self.totals
        return percent_difference(totals[system], totals[self.reference])


# ---------------------------------------------------------------------------
# Figures 3 and 7: per-operation gas versus read/write ratio
# ---------------------------------------------------------------------------

DEFAULT_RATIOS = (0.0, 0.125, 0.5, 1.0, 2.0, 4.0, 16.0, 64.0, 256.0)


def run_ratio_sweep(
    ratios: Sequence[float] = DEFAULT_RATIOS,
    *,
    scale: Optional[ExperimentScale] = None,
    record_size_bytes: int = 32,
    include_dynamic_baselines: bool = False,
    grub_algorithm: str = "memoryless",
    num_keys: int = 4,
) -> SweepResult:
    """Figure 3 (static baselines only) and Figure 7 (plus BL3/BL4 and GRuB)."""
    scale = scale or ExperimentScale.default()
    config = GrubConfig(
        epoch_size=scale.epoch_size,
        record_size_bytes=record_size_bytes,
        algorithm=grub_algorithm,
    )
    dynamic = ("BL3", "BL4") if include_dynamic_baselines else ()
    configs = dict.fromkeys(("BL1", "BL2", *dynamic, "GRuB"), config)
    results: Dict[str, List[float]] = {name: [] for name in configs}
    for ratio in ratios:
        operations = _synthetic_operations(
            scale, ratio, num_keys=num_keys, record_size_bytes=record_size_bytes
        )
        for name, report in _run_systems(configs, operations).items():
            results[name].append(report.gas_per_operation)
    return SweepResult(
        x_label="read/write ratio",
        x_values=list(ratios),
        gas_per_operation=results,
        crossover=_find_crossover(list(ratios), results["BL1"], results["BL2"]),
    )


def _find_crossover(
    ratios: List[float], series_a: List[float], series_b: List[float]
) -> Optional[float]:
    """Ratio where series A stops being cheaper than series B (linear interpolation)."""
    for index in range(1, len(ratios)):
        prev_diff = series_a[index - 1] - series_b[index - 1]
        curr_diff = series_a[index] - series_b[index]
        if prev_diff == 0:
            return ratios[index - 1]
        if prev_diff < 0 <= curr_diff or prev_diff > 0 >= curr_diff:
            span = curr_diff - prev_diff
            if span == 0:
                return ratios[index]
            fraction = -prev_diff / span
            return ratios[index - 1] + fraction * (ratios[index] - ratios[index - 1])
    return None


# ---------------------------------------------------------------------------
# Figure 5 / Table 3 (ethPriceOracle + stablecoin), Figure 6 (BtcRelay) and
# Figures 9, 13 / Table 4 (mixed YCSB): GRuB versus BL1 and BL2 under a trace
# ---------------------------------------------------------------------------


def run_eth_price_oracle_experiment(
    *,
    scale: Optional[ExperimentScale] = None,
    with_stablecoin: bool = True,
    grub_algorithm: str = "memoryless",
    grub_k: int = 1,
    read_fanout: int = 10,
) -> ComparisonResult:
    """Figure 5 and Table 3: GRuB vs BL1/BL2 under the ethPriceOracle workload."""
    from repro.apps.stablecoin import build_stablecoin_deployment

    scale = scale or ExperimentScale.default()
    operations, preload = _eth_price_oracle(scale, read_fanout=read_fanout, hot_assets=2)
    config = GrubConfig(
        epoch_size=scale.epoch_size, record_size_bytes=32, algorithm=grub_algorithm, k=grub_k
    )
    return ComparisonResult(
        _run_systems(
            dict.fromkeys(STATIC_COMPARISON, config),
            operations,
            preload=preload,
            prepare=build_stablecoin_deployment if with_stablecoin else None,
        )
    )


def run_btcrelay_experiment(
    *,
    scale: Optional[ExperimentScale] = None,
    grub_k: int = 2,
    evict_after_epochs: int = 8,
) -> ComparisonResult:
    """Figure 6: GRuB vs BL1/BL2 under the BtcRelay block-read workload."""
    scale = scale or ExperimentScale.default()
    baseline = GrubConfig(
        epoch_size=scale.btcrelay_epoch_size, record_size_bytes=96, k=grub_k, k_prime=grub_k
    )
    grub = baseline.with_algorithm(
        "memorizing",
        reuse_replica_slots=True,
        continuous_decisions=True,
        evict_unused_after_epochs=evict_after_epochs,
    )
    return ComparisonResult(
        _run_systems(
            {"BL1": baseline, "BL2": baseline, "GRuB": grub},
            BtcRelayTrace(num_blocks=scale.btcrelay_blocks).operations(),
        )
    )


def run_ycsb_experiment(
    phases: Sequence[str] = ("A", "B", "A", "B"),
    *,
    scale: Optional[ExperimentScale] = None,
    record_size_bytes: Optional[int] = None,
    grub_algorithm: str = "memoryless",
    grub_k: Optional[int] = None,
) -> ComparisonResult:
    """Figure 9 / 13 and Table 4: GRuB vs baselines under mixed YCSB workloads."""
    scale = scale or ExperimentScale.default()
    record_size = record_size_bytes or scale.ycsb_record_size_bytes
    workload = _mixed_ycsb(scale, phases, record_size)
    config = GrubConfig(
        epoch_size=scale.epoch_size,
        record_size_bytes=record_size,
        algorithm=grub_algorithm,
        k=grub_k,
    )
    return ComparisonResult(
        _run_systems(
            dict.fromkeys(STATIC_COMPARISON, config),
            workload.operations(),
            preload=workload.preload_records(),
            phase_markers=workload.phase_markers(),
        )
    )


# ---------------------------------------------------------------------------
# Figure 8a: memoryless vs memorizing vs offline optimal
# ---------------------------------------------------------------------------


def run_algorithm_comparison(
    *,
    k: int = 8,
    window_d: int = 1,
    scale: Optional[ExperimentScale] = None,
    num_keys: int = 4,
) -> ComparisonResult:
    """Figure 8a: the workload of ratio K+1 that separates the two algorithms."""
    scale = scale or ExperimentScale.default()
    operations = _synthetic_operations(scale, k + 1, num_keys=num_keys)
    memoryless = GrubConfig(epoch_size=scale.epoch_size, algorithm="memoryless", k=k)
    memorizing = memoryless.with_algorithm("memorizing", k=None, k_prime=k, window_d=window_d)
    reports = _run_systems({"memoryless": memoryless, "memorizing": memorizing}, operations)
    # The yardstick: the same system, told the whole trace before it starts.
    reports.update(
        _run_systems(
            {"offline": memoryless},
            operations,
            prepare=lambda system: system.set_future_trace(operations),
        )
    )
    return ComparisonResult(reports, reference="memoryless")


# ---------------------------------------------------------------------------
# Figure 8b: record size sweep
# ---------------------------------------------------------------------------


def run_record_size_sweep(
    record_sizes_words: Sequence[int] = (1, 2, 4, 8, 16),
    *,
    read_write_ratio: float = 2.0,
    scale: Optional[ExperimentScale] = None,
) -> SweepResult:
    """Figure 8b: per-operation gas versus record size for BL1, BL2 and GRuB."""
    scale = scale or ExperimentScale.default()
    results: Dict[str, List[float]] = {name: [] for name in STATIC_COMPARISON}
    for words in record_sizes_words:
        config = GrubConfig(epoch_size=scale.epoch_size, record_size_bytes=words * 32)
        operations = _synthetic_operations(
            scale, read_write_ratio, record_size_bytes=words * 32
        )
        reports = _run_systems(dict.fromkeys(STATIC_COMPARISON, config), operations)
        for name, report in reports.items():
            results[name].append(report.gas_per_operation)
    return SweepResult(
        x_label="record size (words)",
        x_values=list(record_sizes_words),
        gas_per_operation=results,
    )


# ---------------------------------------------------------------------------
# Figures 11 and 14: parameter K sweeps
# ---------------------------------------------------------------------------


def _memoryless_k_series(
    k_values: Sequence[int], config: GrubConfig, operations: Sequence[Operation], **run
) -> List[float]:
    """Memoryless GRuB's gas per operation over one workload, for each K."""
    configs = {f"K={k}": config.with_algorithm("memoryless", k=int(k)) for k in k_values}
    reports = _run_systems(configs, operations, **run)
    return [report.gas_per_operation for report in reports.values()]


def run_parameter_k_sweep(
    k_values: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    ratios: Sequence[float] = (2.0, 4.0, 8.0),
    *,
    scale: Optional[ExperimentScale] = None,
) -> SweepResult:
    """Figure 11: memoryless GRuB's gas versus K for several read/write ratios."""
    scale = scale or ExperimentScale.default()
    config = GrubConfig(epoch_size=scale.epoch_size)
    return SweepResult(
        x_label="K",
        x_values=[float(k) for k in k_values],
        gas_per_operation={
            f"ratio={ratio:g}": _memoryless_k_series(
                k_values, config, _synthetic_operations(scale, ratio)
            )
            for ratio in ratios
        },
    )


def run_ycsb_parameter_k_sweep(
    k_values: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    phases: Sequence[str] = ("A", "B", "A", "B"),
    *,
    scale: Optional[ExperimentScale] = None,
) -> SweepResult:
    """Figure 14: GRuB's gas versus K under the mixed YCSB workload, with baselines."""
    scale = scale or ExperimentScale.default()
    workload = _mixed_ycsb(scale, phases, scale.ycsb_record_size_bytes)
    operations = workload.operations()
    preload = workload.preload_records()
    config = GrubConfig(
        epoch_size=scale.epoch_size, record_size_bytes=scale.ycsb_record_size_bytes
    )
    baselines = _run_systems({"BL1": config, "BL2": config}, operations, preload=preload)
    return SweepResult(
        x_label="K",
        x_values=[float(k) for k in k_values],
        gas_per_operation={
            "GRuB": _memoryless_k_series(k_values, config, operations, preload=preload)
        },
        baselines={name: report.gas_per_operation for name, report in baselines.items()},
    )


# ---------------------------------------------------------------------------
# Figure 12: threshold read/write ratio versus record size and data size
# ---------------------------------------------------------------------------


@dataclass
class ThresholdRatioResult:
    by_record_size: Dict[int, Optional[float]]
    by_data_size: Dict[int, Optional[float]]


def run_threshold_ratio_experiment(
    record_sizes_bytes: Sequence[int] = (32, 512, 4096),
    data_sizes: Sequence[int] = (256, 4096, 65536),
    *,
    ratios: Sequence[float] = (0.125, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0),
    scale: Optional[ExperimentScale] = None,
) -> ThresholdRatioResult:
    """Figure 12: where the BL1/BL2 crossover falls as record and data size vary."""
    scale = scale or ExperimentScale.default()

    def crossover_for(record_size: int, data_size: int) -> Optional[float]:
        """BL1/BL2 crossover ratio; the largest tested ratio is reported as a
        lower bound when the curves do not cross within the grid."""
        preload = [
            KVRecord.make(f"key-{index:08d}", b"\x00" * record_size)
            for index in range(data_size)
        ]
        config = GrubConfig(epoch_size=scale.epoch_size, record_size_bytes=record_size)
        series: Dict[str, List[float]] = {"BL1": [], "BL2": []}
        for ratio in ratios:
            operations = _synthetic_operations(
                scale,
                ratio,
                num_operations=scale.synthetic_operations // 2,
                num_keys=min(4, data_size),
                record_size_bytes=record_size,
                key_prefix="key",
            )
            reports = _run_systems(dict.fromkeys(series, config), operations, preload=preload)
            for name, report in reports.items():
                series[name].append(report.gas_per_operation)
        crossover = _find_crossover(list(ratios), series["BL1"], series["BL2"])
        return crossover if crossover is not None else float(max(ratios))

    by_record_size = {
        size: crossover_for(size, data_sizes[0]) for size in record_sizes_bytes
    }
    by_data_size = {
        size: crossover_for(record_sizes_bytes[0], size) for size in data_sizes
    }
    return ThresholdRatioResult(by_record_size=by_record_size, by_data_size=by_data_size)


# ---------------------------------------------------------------------------
# Figure 15 / Table 5: adaptive-K policies
# ---------------------------------------------------------------------------


def run_adaptive_k_experiment(
    *,
    scale: Optional[ExperimentScale] = None,
    static_k: int = 1,
) -> ComparisonResult:
    """Figure 15 / Table 5: static K vs adaptive policies K1 and K2 on ethPriceOracle."""
    scale = scale or ExperimentScale.default()
    operations, preload = _eth_price_oracle(scale)
    static = GrubConfig(
        epoch_size=scale.epoch_size, record_size_bytes=32, algorithm="memoryless", k=static_k
    )
    configs = {
        "static": static,
        "adaptive-k1": static.with_algorithm("adaptive-k1"),
        "adaptive-k2": static.with_algorithm("adaptive-k2"),
    }
    return ComparisonResult(
        _run_systems(configs, operations, preload=preload), reference="static"
    )


# ---------------------------------------------------------------------------
# Ablations: one design choice switched, everything else equal
# ---------------------------------------------------------------------------


def _ablation(
    configs: Mapping[str, GrubConfig], operations: Sequence[Operation]
) -> ComparisonResult:
    """GRuB under each config, read against the first."""
    return ComparisonResult(_run_systems(configs, operations), reference=next(iter(configs)))


def run_deliver_batching_ablation(*, scale: Optional[ExperimentScale] = None) -> ComparisonResult:
    """One epoch-batched deliver transaction against one per request."""
    scale = scale or ExperimentScale.default()
    batched = GrubConfig(epoch_size=scale.epoch_size)
    configs = {"epoch-batched": batched, "per-request": batched.with_overrides(batch_deliver=False)}
    return _ablation(configs, _synthetic_operations(scale, 8))


def _replica_churn_operations(scale: ExperimentScale, num_keys: int) -> List[Operation]:
    """Read-heavy and write-only phases in turn, so replicas come and go."""
    return AlternatingPhaseWorkload(
        phase_ratios=(8.0, 0.0, 8.0, 0.0),
        operations_per_phase=scale.synthetic_operations // 4,
        num_keys=num_keys,
    ).operations()


def run_slot_reuse_ablation(*, scale: Optional[ExperimentScale] = None) -> ComparisonResult:
    """A fresh storage slot per replica against the BtcRelay experiment's reused pool."""
    scale = scale or ExperimentScale.default()
    fresh = GrubConfig(epoch_size=scale.epoch_size)
    reusing = fresh.with_overrides(reuse_replica_slots=True)
    configs = {"fresh slot per replica": fresh, "reused slot pool": reusing}
    return _ablation(configs, _replica_churn_operations(scale, num_keys=6))


# ---------------------------------------------------------------------------
# Tables 1 and 6 / Figures 2 and 16: workload characterisation
# ---------------------------------------------------------------------------


@dataclass
class CharacterisationResult:
    eth_price_oracle: WorkloadStats
    btcrelay: WorkloadStats
    eth_price_target: Dict[int, float]
    btcrelay_target: Dict[int, float]


def run_workload_characterisation(
    *, scale: Optional[ExperimentScale] = None
) -> CharacterisationResult:
    """Tables 1 and 6: reads-per-write distributions of the two real-trace workloads."""
    scale = scale or ExperimentScale.default()
    eth_trace = EthPriceOracleTrace(
        num_writes=scale.eth_price_writes, assets_per_update=1, spread_reads=False
    )
    btc_trace = BtcRelayTrace(
        num_blocks=max(scale.btcrelay_blocks, 400),
        read_boost=1.0,
        write_phase_fraction=0.0,
        verification_rate=0.0,
    )
    return CharacterisationResult(
        eth_price_oracle=characterise(eth_trace.operations()),
        btcrelay=characterise(btc_trace.operations()),
        eth_price_target={k: v / 100.0 for k, v in eth_trace.reads_per_write_target().items()},
        btcrelay_target={k: v / 100.0 for k, v in btc_trace.reads_per_write_target().items()},
    )
