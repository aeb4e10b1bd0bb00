"""Observability smoke: tracing changes nothing, and the exports are sound.

Drives one small mixed fleet through both execution backends with the
observability plane on and off, then validates every exit the plane has:

* **zero-entropy** — telemetry fingerprints, per-feed gas bills and chain
  state are bit-identical across serial/process with tracing on or
  off; the plane observes the run, it never steers it;
* **span-tree completeness** — the traced serial run has one ``run`` root,
  every epoch under it, every phase under each epoch, and every shard under
  each phase; the process run grafts its lanes' shard spans in fixed shard
  order and adds its main-side ``merge`` phase last;
* **percentiles** — every instrumented phase reports non-empty p50/p95/p99;
* **JSONL** — every exported line passes the schema validator (meta line
  first, pre-order span ids, histogram bucket invariants);
* **Prometheus** — the text snapshot parses under the strict parser and
  round-trips the counter values.

Any violation exits non-zero, which is what the CI ``obs-smoke`` job gates
on.  Runs standalone::

    PYTHONPATH=src python benchmarks/obs_smoke.py
"""

from __future__ import annotations

import sys
import time
from typing import List, Optional, Tuple

from repro.common.types import KVRecord
from repro.core.config import GrubConfig
from repro.gateway import EXECUTION_MODES, EpochScheduler, FeedRegistry, FeedSpec
from repro.obs import PHASE_ORDER, Observability
from repro.obs.export import parse_prometheus, validate_jsonl
from repro.workloads.synthetic import SyntheticWorkload

NUM_FEEDS = 8
NUM_SHARDS = 4
EPOCH_SIZE = 8
OPS_PER_FEED = 64
SERIAL_PHASES = ("drive", "deliver", "update", "settle")
PROCESS_LANES = 3
#: ``(execution mode, num_workers)`` for every backend the scheduler has.
MODES: Tuple[Tuple[str, int], ...] = tuple(
    (mode, 1 if mode == "serial" else PROCESS_LANES) for mode in EXECUTION_MODES
)


def build_fleet():
    registry = FeedRegistry()
    workloads = {}
    for index in range(NUM_FEEDS):
        feed_id = f"feed-{index:02d}"
        config = GrubConfig(
            epoch_size=EPOCH_SIZE,
            algorithm=("memoryless", "memorizing", "adaptive-k1", "always")[index % 4],
            k=(1, 2, 4)[index % 3],
        )
        preload = [
            KVRecord.make(f"asset{index:02d}-{j:03d}", bytes(24)) for j in range(16)
        ]
        registry.create_feed(
            FeedSpec(feed_id=feed_id, config=config, preload=preload)
        )
        workloads[feed_id] = SyntheticWorkload(
            read_write_ratio=(8.0, 2.0, 0.5)[index % 3],
            num_operations=OPS_PER_FEED,
            num_keys=16,
            key_prefix=f"asset{index:02d}-",
            seed=index + 1,
        ).operations()
    return registry, workloads


def run_fleet(mode: str, workers: int, obs: Optional[Observability]):
    registry, workloads = build_fleet()
    scheduler = EpochScheduler(
        registry,
        num_shards=NUM_SHARDS,
        num_workers=workers,
        execution_mode=mode,
        obs=obs,
    )
    fleet = scheduler.run(workloads)
    gas_bills = {
        feed_id: (t.gas_feed, t.gas_application) for feed_id, t in fleet.feeds.items()
    }
    chain = registry.chain
    # Block hashes cover wall-clock timestamps, so the comparable chain state
    # is height, the event stream (with block stamps) and the gas ledger.
    chain_state = (
        chain.height,
        tuple(
            (e.contract, e.name, e.block_number, e.transaction_index)
            for e in chain.event_log
        ),
        chain.ledger.total,
        tuple(sorted(chain.ledger.by_scope.items())),
    )
    return fleet.fingerprint(), gas_bills, chain_state


def check_tree(obs: Observability, mode: str, violations: List[str]) -> None:
    label = f"span tree ({mode})"
    roots = obs.tracer.roots
    if len(roots) != 1 or roots[0].name != "run":
        violations.append(f"{label}: expected exactly one 'run' root")
        return
    epochs = roots[0].children
    expected_epochs = OPS_PER_FEED // EPOCH_SIZE
    if [span.attrs.get("epoch") for span in epochs] != list(range(expected_epochs)):
        violations.append(f"{label}: missing or misordered epoch spans")
        return
    expected_phases = list(PHASE_ORDER) if mode == "process" else list(SERIAL_PHASES)
    for epoch_span in epochs:
        phases = [span.attrs.get("phase") for span in epoch_span.children]
        if phases != expected_phases:
            violations.append(
                f"{label}: epoch {epoch_span.attrs['epoch']} phases {phases}"
            )
            return
        for phase_span in epoch_span.children:
            phase = phase_span.attrs["phase"]
            if phase == "merge":
                continue  # main-side only, not per shard
            shards = [span.attrs.get("shard") for span in phase_span.children]
            if shards != list(range(NUM_SHARDS)):
                violations.append(
                    f"{label}: phase {phase} shard spans out of order: {shards}"
                )
                return


def check_percentiles(obs: Observability, mode: str, violations: List[str]) -> None:
    expected = set(PHASE_ORDER) if mode == "process" else set(SERIAL_PHASES)
    percentiles = obs.phase_percentiles()
    if set(percentiles) != expected:
        violations.append(
            f"percentiles ({mode}): phases {sorted(percentiles)} != {sorted(expected)}"
        )
        return
    for phase, row in percentiles.items():
        if row["count"] == 0 or any(
            row[q] is None for q in ("p50", "p95", "p99")
        ):
            violations.append(f"percentiles ({mode}): {phase} is empty")


def check_exports(obs: Observability, mode: str, violations: List[str]) -> None:
    try:
        events = validate_jsonl(obs.export_jsonl(meta={"benchmark": "obs_smoke"}))
    except Exception as exc:  # validator raises ReproError with the bad line
        violations.append(f"jsonl ({mode}): {exc}")
        return
    kinds = {event["type"] for event in events}
    if not {"meta", "span", "counter", "histogram"} <= kinds:
        violations.append(f"jsonl ({mode}): event kinds incomplete: {sorted(kinds)}")
    try:
        samples = parse_prometheus(obs.export_prometheus())
    except Exception as exc:
        violations.append(f"prometheus ({mode}): {exc}")
        return
    counters = {
        event["name"]: event["value"] for event in events if event["type"] == "counter"
    }
    for name, value in counters.items():
        rows = samples.get(name)
        if not rows or abs(rows[0][1] - value) > 1e-9:
            violations.append(
                f"prometheus ({mode}): {name} does not round-trip the JSONL value"
            )


def main() -> int:
    started = time.perf_counter()
    violations: List[str] = []

    baseline = run_fleet("serial", 1, None)
    traced = {}
    for mode, workers in MODES:
        obs = Observability()
        outputs = run_fleet(mode, workers, obs)
        traced[mode] = obs
        if outputs != baseline:
            violations.append(
                f"zero-entropy: traced {mode}/{workers} diverged from untraced serial"
            )
    for mode, workers in MODES[1:]:
        if run_fleet(mode, workers, None) != baseline:
            violations.append(
                f"zero-entropy: untraced {mode}/{workers} diverged from serial"
            )

    for mode in EXECUTION_MODES:
        check_tree(traced[mode], mode, violations)
        check_percentiles(traced[mode], mode, violations)
        check_exports(traced[mode], mode, violations)

    if violations:
        print("obs-smoke FAILED:")
        for violation in violations:
            print(f"  - {violation}")
        return 1

    print(traced["serial"].render_report(title="obs-smoke — traced serial run"))
    print()
    print(
        f"obs-smoke OK: {len(MODES)} traced + {len(MODES) - 1} untraced runs "
        "bit-identical to the serial baseline; span trees complete; JSONL and "
        f"Prometheus exports validated ({time.perf_counter() - started:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
