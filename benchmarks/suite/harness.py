"""One repetition of one workload: set up, run, check, tear down.

A repetition builds a fresh fleet from the generated inputs (timed as
set-up), runs it through the program's public API (timed as the run), checks
the outputs, and always cleans up: temporary LSM directories are removed and
lane processes reaped even when the repetition fails.  What comes back is a
plain dict of measurements; the registry and fleet objects are dropped so a
later repetition's GC does not pay for an earlier one's heap.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.ads.merkle import clear_pair_memo
from repro.chain.gas import LAYER_FEED
from repro.common.hashing import clear_leaf_cache
from repro.frontdoor import FrontDoor, latency_percentile as percentile
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec, GasAwareShardPlanner
from repro.obs import PHASE_HISTOGRAM, PHASE_ORDER, Observability

from .reference import Reference
from .trace import LayerTrace
from .workloads import DoorInputs, FleetInputs, Workload

#: Scratch space for LSM stores: inside the checkout, removed after each use.
WORK_DIR = Path(__file__).resolve().parent / ".work"
#: The door's latency limit: a request slower than this (or failed) misses.
LATENCY_LIMIT_MS = 250.0
#: A door step is abandoned (its open requests counted as failed) this long
#: after its last request was due.
DOOR_GRACE_SECONDS = 30.0

clock = time.perf_counter


class CheckFailed(Exception):
    """An output check did not hold; the run exits non-zero."""


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------


def effective_cpus() -> int:
    return len(os.sched_getaffinity(0))


def host_facts() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "effective_cpus": effective_cpus(),
        "loadavg": list(os.getloadavg()),
    }


def require_cpus(workload: Workload) -> None:
    """Refuse to oversubscribe: lanes may not outnumber the CPUs granted."""
    if workload.num_workers > effective_cpus():
        raise CheckFailed(
            f"{workload.name} needs {workload.num_workers} worker lanes but this "
            f"process may run on {effective_cpus()} CPU(s)"
        )


def peak_rss_mib(benchmark_mib: float = 0.0) -> float:
    """This process's peak RSS plus the largest reaped child's, in MiB.

    ``benchmark_mib`` is resident memory the benchmark itself holds (the
    reference store): it is taken off this process's peak, and off a forked
    lane's, which inherits it.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - benchmark_mib
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if children and multiprocessing.get_start_method() == "fork":
        children = max(0.0, children - benchmark_mib)
    return own + children


def _reap_children() -> None:
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _fresh_state() -> None:
    """Start a repetition as a newly started gateway would.

    Repetitions replay byte-identical inputs, so the program's process-wide
    hash memos would otherwise answer a later repetition from an earlier one;
    the earlier repetition's garbage is collected outside the timed sections.
    """
    clear_leaf_cache()
    clear_pair_memo()
    gc.collect()


def _place(spec: FeedSpec, store_root: Optional[Path]) -> FeedSpec:
    """Give an LSM-backed feed its private directory for this repetition."""
    if store_root is None:
        return spec
    return replace(spec, store_directory=store_root / spec.feed_id)


def _digest(fingerprint: dict) -> str:
    return hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def _wrong_final_values(registry: FeedRegistry, streams) -> int:
    """Keys whose stored value is not the last value the workload wrote.

    Only feeds still hosted at run end are checked: they executed their whole
    stream, so the expected value of a key is its last write.
    """
    wrong = 0
    for feed_id, (_, operations) in streams.items():
        if feed_id not in registry:
            continue
        last = {op.key: op.value for op in operations if op.is_write}
        store = registry.get(feed_id).system.sp_store
        for key, value in last.items():
            record = store.get_record(key)
            if record is None or record.value != value:
                wrong += 1
    return wrong


def _store_stats(registry: FeedRegistry, streams, store_root: Path) -> Dict[str, float]:
    """LSM counters, and bytes on disk per byte the workload stored."""
    flushes = compactions = 0
    for handle in registry.handles:
        backing = handle.system.sp_store.backing
        backing.close()
        flushes += backing.flushes
        compactions += backing.compactions
    disk = sum(path.stat().st_size for path in store_root.rglob("*") if path.is_file())
    user = 0
    for spec, operations in streams.values():
        user += sum(len(record.value) for record in spec.preload or ())
        user += sum(len(op.value) for op in operations if op.is_write)
    return {
        "flushes": flushes,
        "compactions": compactions,
        "disk_bytes_per_user_byte": disk / user if user else 0.0,
    }


def _gateway_spans(obs: Observability) -> Dict[str, float]:
    """Per-stage attribution of one observed run from the obs plane's spans.

    Phase seconds are the sums of ``gateway_phase_seconds``.  In process mode
    drive/deliver/update/settle are lane-side busy time (summed over lanes,
    running in parallel) and only ``merge`` is on the main clock, so
    ``unattributed_s`` there is mostly the main process waiting for lanes
    (and, behind the live door, the scheduler waiting for arrivals).
    """
    run = obs.tracer.find("run")[0]
    epochs = [span for span in run.children if span.name == "epoch"]
    phases = {
        dict(histogram.labels)["phase"]: histogram.total
        for histogram in obs.registry.histograms(PHASE_HISTOGRAM)
    }
    on_main_clock = ("merge",) if run.attrs.get("mode") == "process" else PHASE_ORDER
    out = {f"phase_{phase}_s": phases.get(phase, 0.0) for phase in PHASE_ORDER}
    out["epochs"] = len(epochs)
    if epochs:
        durations = [span.duration * 1e3 for span in epochs]
        out["epoch_ms_p50"] = percentile(durations, 50)
        out["epoch_ms_p99"] = percentile(durations, 99)
        out["run_head_s"] = epochs[0].start - run.start
        out["run_tail_s"] = run.end - epochs[-1].end
    out["unattributed_s"] = (
        run.duration
        - out.get("run_head_s", 0.0)
        - out.get("run_tail_s", 0.0)
        - sum(phases.get(phase, 0.0) for phase in on_main_clock)
    )
    return out


def _common_sample(registry: FeedRegistry, fleet, streams) -> Dict[str, object]:
    ledger = registry.chain.ledger
    lost = 0
    for feed_id, (_, operations) in streams.items():
        row = fleet.feeds.get(feed_id)
        done = row.operations + row.cancelled_ops if row is not None else 0
        lost += len(operations) - done
    billed = sum(ledger.scope_total(feed_id, LAYER_FEED) for feed_id in ledger.scopes())
    return {
        "submitted": sum(len(operations) for _, operations in streams.values()),
        "executed": fleet.operations,
        "cancelled": fleet.cancelled_ops,
        "lost": lost,
        "wrong_values": _wrong_final_values(registry, streams),
        "unscoped_gas": ledger.layer_total(LAYER_FEED) - billed,
        "gas_feed": fleet.gas_feed,
        "digest": _digest(fleet.fingerprint()),
        "epochs": fleet.epochs_run,
        "blocks": fleet.blocks_mined,
        "cache_hits": fleet.cache_hits,
        "cache_lookups": fleet.cache_lookups,
        "deferred_ops": fleet.deferred_ops,
        "replications": fleet.replications,
        "evictions": fleet.evictions,
        "gas_by_category": dict(ledger.by_category),
        "ipc": fleet.ipc,
    }


# ---------------------------------------------------------------------------
# Batch fleets (fleet_read, fleet_write, lanes_read, churn_lanes)
# ---------------------------------------------------------------------------


def run_fleet(
    workload: Workload,
    inputs: FleetInputs,
    *,
    reference: Optional[Reference] = None,
    serial_twin: bool = False,
    setup_only: bool = False,
    obs: Optional[Observability] = None,
    trace: Optional[LayerTrace] = None,
) -> Dict[str, object]:
    """One repetition of a batch workload in fresh state.

    ``reference`` runs a host-speed slice between the set-up and the run and
    another right after the run (``slice_s``), outside both timed sections.
    ``serial_twin`` runs the same inputs with ``execution_mode="serial"``:
    the fingerprint a process-mode run's must equal.
    ``setup_only`` stops after the set-up (one more ``setup_s`` sample).
    """
    mode = "serial" if serial_twin else workload.execution_mode
    workers = 1 if serial_twin else workload.num_workers
    store_root = None
    if workload.store_backend == "lsm":
        WORK_DIR.mkdir(exist_ok=True)
        store_root = Path(tempfile.mkdtemp(dir=WORK_DIR))
    _fresh_state()
    try:
        started = clock()
        registry = FeedRegistry()
        for spec in inputs.specs:
            registry.create_feed(_place(spec, store_root))
        planner = (
            GasAwareShardPlanner(block_gas_fraction=workload.block_gas_fraction)
            if workload.block_gas_fraction is not None
            else None
        )
        scheduler = EpochScheduler(
            registry,
            num_shards=workload.num_shards,
            num_workers=workers,
            epoch_size=workload.epoch_size,
            planner=planner,
            execution_mode=mode,
            obs=obs,
        )
        for at_epoch, spec, operations in inputs.joins:
            scheduler.admit(_place(spec, store_root), operations, at_epoch=at_epoch)
        for at_epoch, feed_id in inputs.leaves:
            scheduler.evict(feed_id, at_epoch=at_epoch)
        setup_s = clock() - started
        slices = [reference.slice()] if reference is not None else []
        if setup_only:
            return {"setup_s": setup_s, "slice_s": slices}

        with trace if trace is not None else nullcontext():
            started = clock()
            fleet = scheduler.run(inputs.operations)
            run_s = clock() - started
        if reference is not None:
            slices.append(reference.slice())

        streams = inputs.streams()
        sample = _common_sample(registry, fleet, streams)
        sample.update(setup_s=setup_s, run_s=run_s, slice_s=slices)
        sample["overflow"] = registry.chain.ledger.by_category.get(
            "block_gas_limit_overflow", 0
        )
        if store_root is not None:
            sample["storage"] = _store_stats(registry, streams, store_root)
        if obs is not None:
            sample["gateway"] = _gateway_spans(obs)
        return sample
    finally:
        if store_root is not None:
            shutil.rmtree(store_root, ignore_errors=True)
            if not any(WORK_DIR.iterdir()):
                WORK_DIR.rmdir()
        _reap_children()


# ---------------------------------------------------------------------------
# The live front door (door_open)
# ---------------------------------------------------------------------------


class _DoorTap:
    """Per-request stage stamps, taken at the door's ``poll``/``settled`` seam.

    Requests are admitted in send order and each tenant's queue is FIFO, so
    the ``n`` requests a boundary takes are the next ``n`` sent, and the
    ``executed`` requests a feed settles are that tenant's next ``executed``.
    """

    def __init__(self, door: FrontDoor, requests) -> None:
        self.taken_at = [0.0] * len(requests)
        self.settled_at = [0.0] * len(requests)
        self._taken = 0
        self._by_tenant: Dict[str, List[int]] = {}
        for index, request in enumerate(requests):
            self._by_tenant.setdefault(request.tenant, []).append(index)
        self._settled = {tenant: 0 for tenant in self._by_tenant}
        poll, settled = door.poll, door.settled

        def tapped_poll(epoch, *, wait):
            arrivals = poll(epoch, wait=wait)
            now = clock()
            count = sum(len(operations) for operations in arrivals.values())
            self.taken_at[self._taken : self._taken + count] = [now] * count
            self._taken += count
            return arrivals

        def tapped_settled(epoch, feed_id, *, executed, deferred, gas):
            now = clock()
            first = self._settled.get(feed_id, 0)
            for index in self._by_tenant.get(feed_id, ())[first : first + executed]:
                self.settled_at[index] = now
            self._settled[feed_id] = first + executed
            settled(epoch, feed_id, executed=executed, deferred=deferred, gas=gas)

        door.poll = tapped_poll
        door.settled = tapped_settled


async def _open_loop(door: FrontDoor, requests, rate: int) -> Dict[str, object]:
    """Pace ``requests`` at ``rate`` per second whatever the door does.

    One generator task: request ``i`` is due at ``t0 + i / rate``; whenever
    the generator runs it sends everything that is due, then sleeps until the
    next request is.  Latency is taken from the due time, so a stall shows up
    as latency of the requests it delayed.
    """
    loop = asyncio.get_running_loop()
    count = len(requests)
    sent = [0.0] * count
    done = [0.0] * count
    responses: List[object] = [None] * count

    async def submit(index: int) -> None:
        responses[index] = await door.submit(requests[index])
        done[index] = clock()

    async with door.serving() as serving:
        t0 = clock() + 0.005
        tasks = []
        index = 0
        while index < count:
            due = min(count, int((clock() - t0) * rate) + 1)
            while index < due:
                sent[index] = clock()
                tasks.append(loop.create_task(submit(index)))
                index += 1
            if index < count:
                await asyncio.sleep(max(0.0, t0 + index / rate - clock()))
        _, pending = await asyncio.wait(tasks, timeout=DOOR_GRACE_SECONDS)
        for task in pending:
            task.cancel()
        serving.close()
    return {"t0": t0, "sent": sent, "done": done, "responses": responses}


def _backlog(intended: Sequence[float], done: Sequence[float]) -> Dict[str, float]:
    """Requests due but unresolved over time: its peak, and whether it grew
    (mean over the last quarter of the step against the first quarter)."""
    events = sorted(
        [(at, 1) for at in intended] + [(at, -1) for at in done if at > 0.0]
    )
    depth = peak = 0
    depth_at_send = []
    for _, change in events:
        depth += change
        peak = max(peak, depth)
        if change > 0:
            depth_at_send.append(depth)
    quarter = max(1, len(depth_at_send) // 4)
    early = sum(depth_at_send[:quarter]) / quarter
    late = sum(depth_at_send[-quarter:]) / quarter
    return {"backlog_max": peak, "backlog_growing": late > 2.0 * early + 8.0}


def run_door_step(
    workload: Workload,
    inputs: DoorInputs,
    rate: int,
    *,
    reference: Optional[Reference] = None,
    setup_only: bool = False,
    obs: Optional[Observability] = None,
    trace: Optional[LayerTrace] = None,
) -> Dict[str, object]:
    """One open-loop step at ``rate`` req/s against a fresh fleet and door.

    ``reference`` runs a host-speed slice right after the set-up (``slice_s``).
    """
    requests = dict(inputs.steps)[rate]
    _fresh_state()
    try:
        started = clock()
        registry = FeedRegistry()
        for spec in inputs.specs:
            registry.create_feed(spec)
        scheduler = EpochScheduler(
            registry,
            num_shards=workload.num_shards,
            epoch_size=workload.epoch_size,
            execution_mode="serial",
            obs=obs,
        )
        door = FrontDoor(scheduler)
        setup_s = clock() - started
        slices = [reference.slice()] if reference is not None else []
        if setup_only:
            return {"setup_s": setup_s, "slice_s": slices}

        tap = _DoorTap(door, requests) if trace is not None else None
        with trace if trace is not None else nullcontext():
            outcome = asyncio.run(_open_loop(door, requests, rate))
        fleet = door.fleet

        t0, sent, done = outcome["t0"], outcome["sent"], outcome["done"]
        responses = outcome["responses"]
        intended = [t0 + index / rate for index in range(len(requests))]
        settled = [
            index
            for index, response in enumerate(responses)
            if response is not None and response.ok
        ]
        sample = _common_sample(registry, fleet, inputs.streams(rate))
        sample.update(
            setup_s=setup_s,
            slice_s=slices,
            run_s=max(done) - t0,
            rate=rate,
            settled=len(settled),
            unresolved=sum(1 for response in responses if response is None),
            rejected=door.telemetry.rejected,
            unattributed_gas=sum(responses[index].gas for index in settled)
            - sum(feed.gas_total for feed in fleet.feeds.values()),
            latency_ms=[(done[index] - intended[index]) * 1e3 for index in settled],
            gen_late_ms=[(sent[i] - intended[i]) * 1e3 for i in range(len(requests))],
            **_backlog(intended, done),
        )
        if tap is not None:
            sample["stages"] = {
                "queue_wait_ms": [(tap.taken_at[i] - sent[i]) * 1e3 for i in settled],
                "exec_ms": [(tap.settled_at[i] - tap.taken_at[i]) * 1e3 for i in settled],
                "resolve_ms": [(done[i] - tap.settled_at[i]) * 1e3 for i in settled],
            }
        if obs is not None:
            sample["gateway"] = _gateway_spans(obs)
        return sample
    finally:
        _reap_children()
