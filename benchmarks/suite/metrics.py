"""Metric definitions: names, units, directions, bounds and predictions.

``BENCHMARK.json`` at the repo root is :func:`manifest` written out; the
smoke test fails if the two drift apart.  A per-layer metric's ``moves``
entry is the prediction written down before anything is optimised: which
end-to-end metric it should move, on which workload ("none" is a prediction
too).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from .workloads import WORKLOADS

#: How long one run measures; a run lasts ~3 s longer, and 4 + 22 x 5 of them
#: fit the driver's 3420 s cap with a quarter to spare.
RUN_SECONDS = 18
COMMAND = ["python3", "benchmarks/suite/run.py"]
PATHS = ["benchmarks/suite"]

GAS_CATEGORIES = (
    "transaction",
    "sstore_insert",
    "sstore_update",
    "sload",
    "log",
    "hash",
    "call",
)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "ops_per_s", "ops/s", "higher", 0.25,
        "executed operations per host-normalised second of scheduler.run() wall, "
        "median across repetitions (door_open: settled requests per wall second, "
        "which the open loop pins to the offered rate)",
    ),
    EndToEnd(
        "gas_per_op", "gas", "lower", 0.25,
        "feed-layer gas per executed operation, the paper's figure of merit; "
        "repeats exactly for a fixed seed on the batch workloads (checked in every "
        "run), but door_open's follows its live batching and so the host's speed",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.25,
        "benchmark process peak RSS plus the largest lane child's, less the "
        "benchmark's own reference store; steady to 2 % on the batch workloads, "
        "but door_open's grows with the epochs its live batching makes of a step",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "registry build + preload + scheduler/door construction in host-normalised "
        "seconds, median of the run's set-ups (input generation excluded)",
    ),
]

_DOOR = "request latency on door_open (not guarded end to end, see README); none elsewhere"
_ALL_FLEETS = "ops_per_s on every batch workload"
_LANES = "ops_per_s on lanes_read and churn_lanes; none on serial workloads"
_CHURN = "ops_per_s on churn_lanes; none elsewhere"
_READ = "ops_per_s on fleet_read"
_WRITE = "ops_per_s on fleet_write"
_STORAGE = "ops_per_s and setup_s on fleet_write; none elsewhere"
_GAS = "gas_per_op on every workload"

PER_LAYER: List[PerLayer] = [
    # frontdoor: measured on door_open only
    PerLayer("frontdoor.req_p50_ms_r2", "ms", "lower", _DOOR),
    PerLayer("frontdoor.req_p99_ms_r1", "ms", "lower", _DOOR),
    PerLayer("frontdoor.req_p99_ms_r2", "ms", "lower", _DOOR),
    PerLayer("frontdoor.req_p99_ms_r3", "ms", "lower", _DOOR),
    PerLayer("frontdoor.queue_wait_ms_p50", "ms", "lower", _DOOR),
    PerLayer("frontdoor.queue_wait_ms_p99", "ms", "lower", _DOOR),
    PerLayer("frontdoor.exec_ms_p50", "ms", "lower", _DOOR),
    PerLayer("frontdoor.resolve_ms_p99", "ms", "lower", _DOOR),
    PerLayer("frontdoor.batch_ops_per_epoch", "count", "higher", _DOOR),
    PerLayer("frontdoor.backlog_max", "count", "lower", _DOOR),
    PerLayer("frontdoor.rejected", "count", "lower", "failed count on door_open"),
    PerLayer("frontdoor.gen_late_ms_p99", "ms", "lower", "none: the generator's own lateness"),
    PerLayer("frontdoor.slo_miss_share_r3", "ratio", "lower", _DOOR),
    PerLayer("frontdoor.max_rate_ok", "1/s", "higher", _DOOR),
    # gateway
    PerLayer("gateway.epochs", "count", "lower", _ALL_FLEETS),
    PerLayer("gateway.epoch_ms_p50", "ms", "lower", _ALL_FLEETS),
    PerLayer("gateway.epoch_ms_p99", "ms", "lower", _ALL_FLEETS),
    PerLayer("gateway.phase_drive_s", "s", "lower", _ALL_FLEETS),
    PerLayer("gateway.phase_deliver_s", "s", "lower", _READ + " and lanes_read"),
    PerLayer("gateway.phase_update_s", "s", "lower", _WRITE),
    PerLayer("gateway.phase_settle_s", "s", "lower", _ALL_FLEETS),
    PerLayer("gateway.phase_merge_s", "s", "lower", _LANES),
    PerLayer("gateway.run_head_s", "s", "lower", _LANES),
    PerLayer("gateway.run_tail_s", "s", "lower", _LANES),
    PerLayer("gateway.unattributed_s", "s", "lower", _ALL_FLEETS),
    PerLayer("gateway.plan_s", "s", "lower", _CHURN),
    PerLayer("gateway.plan_calls", "count", "lower", _CHURN),
    PerLayer(
        "gateway.cache_hit_rate", "ratio", "higher",
        "gas_per_op and ops_per_s on fleet_read; none on fleet_write",
    ),
    PerLayer("gateway.cache_lookups", "count", "lower", _READ),
    PerLayer("gateway.deferred_ops", "count", "lower", _CHURN),
    PerLayer("gateway.cancelled_ops", "count", "lower", "none: withdrawn by the schedule's own evictions"),
    PerLayer("gateway.migrations", "count", "lower", _CHURN),
    PerLayer("gateway.installs", "count", "lower", _CHURN),
    PerLayer("gateway.migration_bytes_per_epoch", "B", "lower", _CHURN),
    PerLayer("gateway.lane_spawns", "count", "lower", _CHURN),
    PerLayer("gateway.lane_retirements", "count", "lower", _CHURN),
    # core
    PerLayer("core.drive_s", "s", "lower", _READ),
    PerLayer("core.drive_calls", "count", "lower", _READ),
    PerLayer("core.prepare_update_s", "s", "lower", _WRITE),
    PerLayer("core.deliver_build_s", "s", "lower", _READ),
    PerLayer("core.decide_s", "s", "lower", _WRITE),
    PerLayer("core.replications", "count", "lower", _GAS),
    PerLayer("core.evictions", "count", "lower", _GAS),
    # ads
    PerLayer("ads.query_s", "s", "lower", _READ),
    PerLayer("ads.query_keys", "count", "lower", _READ),
    PerLayer("ads.apply_s", "s", "lower", _WRITE),
    PerLayer("ads.apply_keys", "count", "lower", _WRITE),
    PerLayer("ads.prove_s", "s", "lower", _READ),
    PerLayer("ads.recompute_s", "s", "lower", _WRITE),
    # chain
    PerLayer("chain.exec_s", "s", "lower", "ops_per_s on every workload"),
    PerLayer("chain.exec_calls", "count", "lower", "ops_per_s on every workload"),
    PerLayer("chain.mine_s", "s", "lower", "ops_per_s on every workload"),
    PerLayer("chain.blocks", "count", "lower", "ops_per_s on every workload"),
    PerLayer("chain.absorb_s", "s", "lower", "ops_per_s on every workload"),
    *(
        PerLayer(f"chain.gas_by_category.{category}", "gas", "lower", _GAS)
        for category in GAS_CATEGORIES
    ),
    # storage
    PerLayer("storage.put_s", "s", "lower", _STORAGE),
    PerLayer("storage.get_s", "s", "lower", _STORAGE),
    PerLayer("storage.flushes", "count", "lower", _STORAGE),
    PerLayer("storage.compactions", "count", "lower", _STORAGE),
    PerLayer("storage.flush_compact_s", "s", "lower", _STORAGE),
    PerLayer("storage.disk_bytes_per_user_byte", "ratio", "lower", _STORAGE),
    # common (wire codec, from the public fleet.ipc summary)
    PerLayer("common.wire_bytes_per_epoch", "B", "lower", _LANES),
    PerLayer("common.wire_encode_s", "s", "lower", _LANES),
    PerLayer("common.wire_decode_s", "s", "lower", _LANES),
    # obs / runtime
    PerLayer(
        "obs.overhead_ratio", "ratio", "lower",
        "none: end-to-end runs are obs-off (base: the same run's plain repetition)",
    ),
    PerLayer("runtime.gc_pause_s", "s", "lower", _DOOR + "; ops_per_s weakly elsewhere"),
    PerLayer("runtime.gc_gen2_collections", "count", "lower", _DOOR),
    PerLayer(
        "runtime.trace_overhead_ratio", "ratio", "lower",
        "none: what the benchmark's own timers cost (base: the plain repetition)",
    ),
    PerLayer(
        "runtime.ops_per_s_wall", "ops/s", "higher",
        "ops_per_s, of which it is the wall-clock reading before host normalisation",
    ),
    PerLayer(
        "runtime.host_speed", "ratio", "higher",
        "none: the host's speed during the run (nominal slice seconds / measured; "
        "1.0 is the quiet recording host)",
    ),
]


def manifest() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why}
            for workload in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
