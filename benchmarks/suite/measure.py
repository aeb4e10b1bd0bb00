"""One measured run of one workload: repetitions, output checks, metrics.

A plain run repeats the workload in fresh state for ``seconds`` seconds
(never fewer than ``min_reps`` repetitions), each repetition bracketed by two
slices of the host-speed reference (``reference.py``), and reports throughput
and set-up time as medians across repetitions of the host-normalised timings.
A traced run makes one plain, one ``Observability()``-attached and one
benchmark-timer-wrapped repetition and reports the per-layer metrics, raw.
Either way every output check runs, and a violated check makes the run
incorrect.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.frontdoor import latency_percentile as percentile
from repro.obs import Observability

from .harness import (
    LATENCY_LIMIT_MS,
    clock,
    peak_rss_mib,
    require_cpus,
    run_door_step,
    run_fleet,
)
from .metrics import END_TO_END, GAS_CATEGORIES, PER_LAYER
from .reference import NOMINAL_SLICE_SECONDS, Reference, normalised
from .trace import LayerTrace
from .workloads import Workload, generate

#: Traced runs write their spans here (inside the checkout, git-ignored).
TRACE_DIR = Path(__file__).resolve().parent / "out"
#: A plain run tops its repetitions' set-ups up to this many samples with
#: set-up-only builds (bracketed by reference slices like a repetition).
SETUP_SAMPLES = 9
#: Reference slices run and discarded before the first one that counts.
WARM_UP_SLICES = 3
#: Rates (by position in ``Workload.rates``) a plain door run offers, twice
#: each; the lowest rate only feeds per-layer metrics.
E2E_RATE_INDICES = (1, 2)


@dataclass
class Outcome:
    """What one run reports: metrics, the attempted/failed count, violations."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    #: Every raw timing behind the metrics (seconds), for the record.
    #: ``slice_s`` is every reference slice in order: the warm-ups, one before
    #: the first set-up, then one after each set-up and one after each run.
    samples: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.violations and self.failed == 0

    def result_line(self) -> Dict[str, object]:
        """The driver's result object (units come from the metric definitions)."""
        units = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in self.metrics.items()
            },
        }


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    *,
    min_reps: int = 3,
    reference: Optional[Reference] = None,
    trace_dir: Path = TRACE_DIR,
    log: Callable[[str], None] = print,
) -> Outcome:
    """Generate ``workload``'s inputs from ``seed`` and measure one run."""
    require_cpus(workload)
    outcome = Outcome()
    trace: Optional[LayerTrace] = None
    if reference is None:
        reference = Reference()
    if workload.is_door:
        steps = 5 if traced else 2 * len(E2E_RATE_INDICES)
        inputs = generate(workload, seed, step_seconds=seconds / steps)
        if traced:
            trace = _trace_door(workload, inputs, reference, outcome, log)
        else:
            _measure_door(workload, inputs, reference, outcome, log)
    else:
        inputs = generate(workload, seed)
        if traced:
            trace = _trace_fleet(workload, inputs, reference, outcome, log)
        else:
            _measure_fleet(workload, inputs, seconds, min_reps, reference, outcome, log)
    if trace is not None:
        _dump(trace, trace_dir / f"trace-{workload.name}.json", log)
    return outcome


def _warm_up(reference: Reference) -> float:
    """Let the reference reach its steady speed; the slice before the first set-up."""
    for _ in range(WARM_UP_SLICES):
        reference.slice()
    return reference.slice()


def _normalise(sample: dict, before: float) -> float:
    """Add a repetition's host-normalised timings; the slice before the next.

    A repetition takes one slice between its set-up and its run and one after
    the run (``slice_s``); ``before`` is the slice taken before the set-up.
    """
    after_setup = sample["slice_s"][0]
    sample["setup_norm_s"] = normalised(sample["setup_s"], before, after_setup)
    if len(sample["slice_s"]) > 1:
        sample["run_norm_s"] = normalised(sample["run_s"], *sample["slice_s"])
    return sample["slice_s"][-1]


def _normalised_setups(
    samples: List[dict], set_up_once: Callable[[], dict], reference: Reference
) -> List[float]:
    """The repetitions' host-normalised set-up times, topped up to
    ``SETUP_SAMPLES`` with set-up-only builds."""
    setups = [sample["setup_norm_s"] for sample in samples]
    if len(setups) < SETUP_SAMPLES:
        before = reference.slice()
    while len(setups) < SETUP_SAMPLES:
        sample = set_up_once()
        before = _normalise(sample, before)
        setups.append(sample["setup_norm_s"])
    return setups


def _host_speed(slices: Sequence[float]) -> float:
    """The host's speed while ``slices`` ran: 1.0 is the quiet recording host."""
    return NOMINAL_SLICE_SECONDS / statistics.median(slices)


# ---------------------------------------------------------------------------
# Batch fleets
# ---------------------------------------------------------------------------


def _log_fleet(log, label: str, sample: dict) -> None:
    log(
        f"  {label}: setup {sample['setup_s']:.3f} s, run {sample['run_s']:.3f} s "
        f"between slices of {sample['slice_s'][0] * 1e3:.1f} and {sample['slice_s'][1] * 1e3:.1f} ms, "
        f"{sample['executed']} ops in {sample['epochs']} epochs, "
        f"{sample['gas_feed'] / sample['executed']:.2f} gas/op"
    )


def _check_fleet(workload: Workload, inputs, samples: List[dict], outcome: Outcome) -> None:
    """The output checks of a batch run (``samples`` share one seed)."""
    flag = outcome.violations.append
    for sample in samples:
        outcome.attempted += sample["submitted"] - sample["cancelled"]
        outcome.failed += sample["lost"]
        if sample["wrong_values"]:
            flag(f"{sample['wrong_values']} keys do not hold their last written value")
        if sample["unscoped_gas"]:
            flag(f"{sample['unscoped_gas']} feed-layer gas billed to no tenant")
    if len({sample["digest"] for sample in samples}) != 1:
        flag("fingerprints differ between repetitions of the same inputs")
    if len({(sample["gas_feed"], sample["executed"]) for sample in samples}) != 1:
        flag("gas_per_op differs between repetitions of the same inputs")
    if workload.needs_serial_twin:
        twin = run_fleet(workload, inputs, serial_twin=True)
        if twin["digest"] != samples[0]["digest"]:
            flag("process-mode fingerprint differs from the serial run of the same inputs")
    if workload.joins:
        ipc = samples[0]["ipc"]
        if ipc["migrations_total"] < 1:
            flag("churn run migrated no feed between lanes")
        if ipc["lane_spawns_total"] < 2:
            flag(f"churn run spawned {ipc['lane_spawns_total']} lanes (need >= 2)")
        if any(sample["overflow"] for sample in samples):
            flag("block_gas_limit_overflow is not zero")


def _measure_fleet(workload, inputs, seconds, min_reps, reference, outcome, log) -> None:
    samples: List[dict] = []
    before = _warm_up(reference)
    started = clock()
    while len(samples) < min_reps or clock() - started < seconds:
        samples.append(run_fleet(workload, inputs, reference=reference))
        before = _normalise(samples[-1], before)
        _log_fleet(log, f"repetition {len(samples)}", samples[-1])
    _check_fleet(workload, inputs, samples, outcome)
    setups = _normalised_setups(
        samples,
        lambda: run_fleet(workload, inputs, reference=reference, setup_only=True),
        reference,
    )
    outcome.samples = {
        "run_s": [s["run_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in samples],
        "slice_s": list(reference.slices),
    }
    outcome.metrics = {
        "ops_per_s": statistics.median(s["executed"] / s["run_norm_s"] for s in samples),
        "gas_per_op": samples[0]["gas_feed"] / samples[0]["executed"],
        "peak_rss_mb": peak_rss_mib(reference.resident_mib),
        "setup_s": statistics.median(setups),
    }


def _trace_fleet(workload, inputs, reference, outcome, log) -> LayerTrace:
    trace = LayerTrace()
    before = _warm_up(reference)
    repetitions = []
    for label, attached in (
        ("plain", {}),
        ("obs attached", {"obs": Observability()}),
        ("timers wrapped", {"trace": trace}),
    ):
        repetitions.append(run_fleet(workload, inputs, reference=reference, **attached))
        before = _normalise(repetitions[-1], before)
        _log_fleet(log, label, repetitions[-1])
    plain, observed, traced = repetitions
    _check_fleet(workload, inputs, repetitions, outcome)
    outcome.metrics = _layer_metrics(plain, observed, traced, trace)
    # Three single repetitions, seconds apart: compared in host-normalised time.
    outcome.metrics["obs.overhead_ratio"] = observed["run_norm_s"] / plain["run_norm_s"]
    outcome.metrics["runtime.trace_overhead_ratio"] = traced["run_norm_s"] / plain["run_norm_s"]
    outcome.metrics["runtime.ops_per_s_wall"] = plain["executed"] / plain["run_s"]
    outcome.metrics["runtime.host_speed"] = _host_speed(
        [slice_s for sample in repetitions for slice_s in sample["slice_s"]]
    )
    return trace


# ---------------------------------------------------------------------------
# The live front door
# ---------------------------------------------------------------------------


def _log_door(log, label: str, sample: dict) -> None:
    latency = sample["latency_ms"]
    log(
        f"  {label} at {sample['rate']} req/s: setup {sample['setup_s']:.3f} s, "
        f"{sample['settled']}/{sample['submitted']} settled in {sample['run_s']:.3f} s, "
        f"p50 {percentile(latency, 50):.2f} ms, p99 {percentile(latency, 99):.2f} ms, "
        f"generator late p99 {percentile(sample['gen_late_ms'], 99):.2f} ms"
    )


def _check_door(samples: List[dict], outcome: Outcome) -> None:
    flag = outcome.violations.append
    for sample in samples:
        outcome.attempted += sample["submitted"]
        outcome.failed += sample["submitted"] - sample["settled"]
        if sample["unresolved"]:
            flag(f"{sample['unresolved']} request futures were never resolved")
        if sample["unattributed_gas"]:
            flag(
                f"per-request gas differs from the fleet bill by {sample['unattributed_gas']}"
            )
        if sample["wrong_values"]:
            flag(f"{sample['wrong_values']} keys do not hold their last written value")
        if sample["lost"]:
            flag(f"{sample['lost']} admitted operations neither executed nor cancelled")


def _measure_door(workload, inputs, reference, outcome, log) -> None:
    rates = [workload.rates[index] for index in E2E_RATE_INDICES]
    samples = []
    for repetition in (1, 2):
        for rate in rates:
            samples.append(run_door_step(workload, inputs, rate))
            _log_door(log, f"repetition {repetition}", samples[-1])
    _check_door(samples, outcome)
    # A step lasts seconds, so its set-up has no slice close before it: the
    # set-up samples all come from set-up-only builds.
    _warm_up(reference)
    setups = _normalised_setups(
        [],
        lambda: run_door_step(workload, inputs, rates[0], reference=reference, setup_only=True),
        reference,
    )
    outcome.samples = {
        "run_s": [s["run_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in samples],
        "slice_s": list(reference.slices),
    }
    outcome.metrics = {
        "ops_per_s": sum(s["settled"] for s in samples) / sum(s["run_s"] for s in samples),
        "gas_per_op": sum(s["gas_feed"] for s in samples)
        / sum(s["executed"] for s in samples),
        "peak_rss_mb": peak_rss_mib(reference.resident_mib),
        "setup_s": statistics.median(setups),
    }


def _trace_door(workload, inputs, reference, outcome, log) -> LayerTrace:
    r1, r2, r3 = workload.rates
    before = _warm_up(reference)
    plain = {rate: run_door_step(workload, inputs, rate) for rate in workload.rates}
    for sample in plain.values():
        _log_door(log, "plain", sample)
    observed = run_door_step(workload, inputs, r2, obs=Observability())
    _log_door(log, "obs attached", observed)
    trace = LayerTrace()
    traced = run_door_step(workload, inputs, r2, trace=trace)
    _log_door(log, "timers wrapped", traced)
    _check_door([*plain.values(), observed, traced], outcome)

    metrics = _layer_metrics(plain[r2], observed, traced, trace)
    metrics["frontdoor.req_p50_ms_r2"] = percentile(plain[r2]["latency_ms"], 50)
    for label, rate in (("r1", r1), ("r2", r2), ("r3", r3)):
        metrics[f"frontdoor.req_p99_ms_{label}"] = percentile(plain[rate]["latency_ms"], 99)
    stages = traced["stages"]
    metrics["frontdoor.queue_wait_ms_p50"] = percentile(stages["queue_wait_ms"], 50)
    metrics["frontdoor.queue_wait_ms_p99"] = percentile(stages["queue_wait_ms"], 99)
    metrics["frontdoor.exec_ms_p50"] = percentile(stages["exec_ms"], 50)
    metrics["frontdoor.resolve_ms_p99"] = percentile(stages["resolve_ms"], 99)
    metrics["frontdoor.batch_ops_per_epoch"] = plain[r2]["executed"] / plain[r2]["epochs"]
    metrics["frontdoor.backlog_max"] = plain[r2]["backlog_max"]
    metrics["frontdoor.rejected"] = sum(s["rejected"] for s in plain.values())
    metrics["frontdoor.gen_late_ms_p99"] = percentile(plain[r2]["gen_late_ms"], 99)
    slow = sum(1 for ms in plain[r3]["latency_ms"] if ms > LATENCY_LIMIT_MS)
    missed = slow + plain[r3]["submitted"] - plain[r3]["settled"]
    metrics["frontdoor.slo_miss_share_r3"] = missed / plain[r3]["submitted"]
    metrics["frontdoor.max_rate_ok"] = max(
        (
            rate
            for rate, s in plain.items()
            if s["settled"] == s["submitted"]
            and not s["backlog_growing"]
            and percentile(s["latency_ms"], 99) <= LATENCY_LIMIT_MS
        ),
        default=0,
    )
    # The open loop fixes the wall time, so overhead shows in latency instead.
    base = percentile(plain[r2]["latency_ms"], 50)
    metrics["obs.overhead_ratio"] = percentile(observed["latency_ms"], 50) / base
    metrics["runtime.trace_overhead_ratio"] = percentile(traced["latency_ms"], 50) / base
    metrics["runtime.ops_per_s_wall"] = plain[r2]["settled"] / plain[r2]["run_s"]
    metrics["runtime.host_speed"] = _host_speed([before, reference.slice()])
    outcome.metrics = metrics
    return trace


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _layer_metrics(plain: dict, observed: dict, traced: dict, trace: LayerTrace) -> Dict[str, float]:
    """Every per-layer metric (zero where the layer did no work).

    Counts come from the plain repetition's telemetry, stage attribution from
    the obs-attached one, and per-entry-point seconds from the timer-wrapped
    one — each from the repetition that perturbs it least.
    """
    metrics = {metric.name: 0.0 for metric in PER_LAYER}
    for key, value in observed["gateway"].items():
        metrics[f"gateway.{key}"] = value
    if plain["cache_lookups"]:
        metrics["gateway.cache_hit_rate"] = plain["cache_hits"] / plain["cache_lookups"]
    metrics["gateway.cache_lookups"] = plain["cache_lookups"]
    metrics["gateway.deferred_ops"] = plain["deferred_ops"]
    metrics["gateway.cancelled_ops"] = plain["cancelled"]
    metrics["core.replications"] = plain["replications"]
    metrics["core.evictions"] = plain["evictions"]
    metrics["chain.blocks"] = plain["blocks"]
    for category in GAS_CATEGORIES:
        metrics[f"chain.gas_by_category.{category}"] = plain["gas_by_category"].get(category, 0)
    ipc = plain["ipc"]
    if ipc is not None:
        metrics["gateway.migrations"] = ipc["migrations_total"]
        metrics["gateway.installs"] = ipc["installs_total"]
        metrics["gateway.migration_bytes_per_epoch"] = ipc["migration_bytes_per_epoch"]
        metrics["gateway.lane_spawns"] = ipc["lane_spawns_total"]
        metrics["gateway.lane_retirements"] = ipc["lane_retirements_total"]
        metrics["common.wire_bytes_per_epoch"] = ipc["bytes_per_epoch"]
        metrics["common.wire_encode_s"] = ipc["encode_seconds"]
        metrics["common.wire_decode_s"] = ipc["decode_seconds"]
    for key, value in plain.get("storage", {}).items():
        metrics[f"storage.{key}"] = value

    totals = trace.totals()
    for name, row in totals.items():
        if f"{name}_s" in metrics:
            metrics[f"{name}_s"] = row["seconds"]
        if f"{name}_calls" in metrics:
            metrics[f"{name}_calls"] = row["calls"]
        if f"{name}_keys" in metrics:
            metrics[f"{name}_keys"] = trace.work[name]
    # A compaction only ever runs inside the flush that triggered it.
    metrics["storage.flush_compact_s"] = sum(
        totals.get(name, {}).get("self_seconds", 0.0)
        for name in ("storage.flush", "storage.compact")
    )
    metrics["runtime.gc_pause_s"] = trace.gc_pause_s
    metrics["runtime.gc_gen2_collections"] = trace.gc_gen2_collections
    return metrics


def _dump(trace: LayerTrace, path: Path, log) -> None:
    path.parent.mkdir(exist_ok=True)
    trace.dump(path)
    log(f"  {len(trace.spans)} spans written to {path}")
    for name, row in sorted(trace.totals().items()):
        log(
            f"    {name:<22} {row['calls']:>8} calls  {row['seconds']:9.4f} s  "
            f"self {row['self_seconds']:9.4f} s"
        )
