"""The five workloads and their seeded input generators.

Everything here is the benchmark's: the program under test receives only
``FeedSpec`` / ``KVRecord`` / ``Operation`` / ``Request`` values.  The same
``--seed`` always yields the same inputs (string-seeded ``random.Random``
streams, so nothing depends on hash randomisation), and workloads that must
run identical inputs (``fleet_read`` / ``lanes_read``) share one stream.

Sizes are constants, fixed so that one repetition's timed section lasts about
a second on the 2-CPU recording host: long enough to run 32-64 epochs, short
enough that a run holds 6-16 repetitions, each paired with its own reading of
the host's speed (``reference.py``).  There is no scale flag;
``Workload.toy()`` exists only for the smoke test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.types import KVRecord, Operation
from repro.core.config import GrubConfig
from repro.frontdoor import Request
from repro.gateway import FeedSpec

#: Key popularity follows a Zipf law with the YCSB exponent; which key is
#: the hot one differs per feed (a seeded permutation of the ranks).
ZIPF_EXPONENT = 0.99
#: Inputs are rejected unless this share of reads hits a preloaded key, so a
#: workload can never silently degrade into inserts on empty stores.
MIN_PRELOADED_READ_SHARE = 0.9
#: Decision algorithms the churn tenants draw from (as heterogeneous as the
#: legacy churn benchmark's fleet).
_ALGORITHMS = ("memoryless", "memoryless", "adaptive-k1", "always", "memorizing")
_CHURN_UPDATE_SHARES = (0.5, 0.33, 0.2, 0.11)


@dataclass(frozen=True)
class Workload:
    """One named workload: fleet shape, execution mode and load shape."""

    name: str
    why: str
    feeds: int
    preload_keys: int
    ops_per_feed: int
    update_share: float
    epoch_size: int
    num_shards: int = 8
    execution_mode: str = "serial"
    num_workers: int = 1
    record_bytes: int = 32
    store_backend: str = "memory"
    #: Churn (``churn_lanes`` only): mid-run joins (``burst_tenants`` of them
    #: NFT-mint shaped), leaves, quota-capped residents, and the gas-aware
    #: planner's per-shard budget (``None`` keeps the round-robin planner).
    joins: int = 0
    burst_tenants: int = 0
    leaves: int = 0
    quota_feeds: int = 0
    block_gas_fraction: Optional[float] = None
    #: Open-loop request rates in req/s (``door_open`` only).
    rates: Tuple[int, ...] = ()

    @property
    def is_door(self) -> bool:
        return bool(self.rates)

    @property
    def needs_serial_twin(self) -> bool:
        """Process-mode runs are checked against a serial run of the same inputs."""
        return self.execution_mode == "process"

    def toy(self) -> "Workload":
        """The same code path at smoke-test size."""
        return replace(
            self,
            feeds=min(self.feeds, 4),
            preload_keys=min(self.preload_keys, 48),
            ops_per_feed=min(self.ops_per_feed, 96),
            num_shards=min(self.num_shards, 2),
            joins=min(self.joins, 3),
            burst_tenants=min(self.burst_tenants, 1),
            leaves=min(self.leaves, 2),
            quota_feeds=min(self.quota_feeds, 1),
            rates=tuple(rate // 10 for rate in self.rates),
        )


_FLEET_READ = Workload(
    name="fleet_read",
    why=(
        "Read-heavy zipfian fleet, serial: the deliver path (ADS proofs, chain "
        "verification, read cache, replication) dominates; the reference other modes must match."
    ),
    feeds=16,
    preload_keys=1024,
    ops_per_feed=1024,
    update_share=0.05,
    epoch_size=16,
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        _FLEET_READ,
        replace(
            _FLEET_READ,
            name="fleet_write",
            why=(
                "Same fleet at 50% updates on LSM-backed stores: the update path "
                "(prepare_epoch_update, apply_updates) and the only workload where "
                "storage (WAL, flush, compaction) works."
            ),
            update_share=0.5,
            store_backend="lsm",
            # 32 B records never fill the LSM's 64 KiB memtable (1024 keys are
            # ~45 KiB), so flush and compaction would never run; 256 B records
            # flush four times per feed during preload, and once more - the
            # fifth table, which triggers a compaction - during the timed run.
            record_bytes=256,
        ),
        replace(
            _FLEET_READ,
            name="lanes_read",
            why=(
                "fleet_read's exact inputs on 2 process lanes (pinned pipelined "
                "engine): what the lane boundary costs or buys (wire codec, pipes, "
                "merge, spawn) against a known serial time."
            ),
            execution_mode="process",
            num_workers=2,
        ),
        Workload(
            name="churn_lanes",
            why=(
                "Tenants join, burst and leave all run long under the gas-aware "
                "planner on 2 elastic lanes: the only workload running admission, "
                "planning, migration and snapshot frames."
            ),
            feeds=16,
            preload_keys=256,
            # A migration costs ~5 ms here and the planner orders ~7 per
            # epoch, so 96 operations per resident (24 epochs) take 0.9 s.
            ops_per_feed=96,
            update_share=0.2,
            epoch_size=8,
            num_shards=1,
            execution_mode="process",
            num_workers=2,
            joins=10,
            burst_tenants=4,
            leaves=10,
            quota_feeds=2,
            block_gas_fraction=0.02,
        ),
        Workload(
            name="door_open",
            why=(
                "Open-loop requests at fixed rates below capacity through the live "
                "FrontDoor: where queue wait, epoch batching, loop/scheduler hand-off "
                "and GC pauses reach a user-visible latency."
            ),
            feeds=8,
            preload_keys=256,
            ops_per_feed=0,
            update_share=0.05,
            epoch_size=16,
            num_shards=4,
            rates=(1500, 3000, 4500),
        ),
    )
}


@dataclass(frozen=True)
class FleetInputs:
    """A batch run's inputs: resident feeds, their operations, churn events."""

    specs: Tuple[FeedSpec, ...]
    operations: Dict[str, Tuple[Operation, ...]]
    #: ``(at_epoch, spec, operations)`` per mid-run arrival.
    joins: Tuple[Tuple[int, FeedSpec, Tuple[Operation, ...]], ...] = ()
    #: ``(at_epoch, feed_id)`` per departure.
    leaves: Tuple[Tuple[int, str], ...] = ()

    def streams(self) -> Dict[str, Tuple[FeedSpec, Tuple[Operation, ...]]]:
        """feed id → (spec, operations) for residents and joiners alike."""
        out = {spec.feed_id: (spec, self.operations[spec.feed_id]) for spec in self.specs}
        out.update({spec.feed_id: (spec, ops) for _, spec, ops in self.joins})
        return out


@dataclass(frozen=True)
class DoorInputs:
    """A live run's inputs: the tenants and one request sequence per rate."""

    specs: Tuple[FeedSpec, ...]
    steps: Tuple[Tuple[int, Tuple[Request, ...]], ...]

    def streams(
        self, rate: Optional[int] = None
    ) -> Dict[str, Tuple[FeedSpec, Tuple[Operation, ...]]]:
        """feed id → (spec, operations), of one rate's step or of all steps."""
        by_tenant: Dict[str, List[Operation]] = {spec.feed_id: [] for spec in self.specs}
        for step_rate, requests in self.steps:
            if rate is None or step_rate == rate:
                for request in requests:
                    by_tenant[request.tenant].append(request.operation)
        return {
            spec.feed_id: (spec, tuple(by_tenant[spec.feed_id])) for spec in self.specs
        }


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _stream(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _zipf_weights(keys: int) -> List[float]:
    return list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(keys))
    )


def _key(feed_id: str, index: int) -> str:
    return f"{feed_id}-{index:05d}"


def _preload(rng: random.Random, feed_id: str, keys: int, record_bytes: int) -> List[KVRecord]:
    return [
        KVRecord.make(_key(feed_id, index), rng.randbytes(record_bytes))
        for index in range(keys)
    ]


def _zipf_key_indices(rng: random.Random, keys: int, count: int) -> List[int]:
    ranks = list(range(keys))
    rng.shuffle(ranks)
    return rng.choices(ranks, cum_weights=_zipf_weights(keys), k=count)


def _operation(
    rng: random.Random, key: str, update_share: float, record_bytes: int, sequence: int
) -> Operation:
    if rng.random() < update_share:
        return Operation.write(key, rng.randbytes(record_bytes), sequence=sequence)
    return Operation.read(key, size_bytes=record_bytes, sequence=sequence)


def _zipf_operations(
    rng: random.Random,
    feed_id: str,
    keys: int,
    count: int,
    update_share: float,
    record_bytes: int,
) -> Tuple[Operation, ...]:
    return tuple(
        _operation(rng, _key(feed_id, index), update_share, record_bytes, sequence)
        for sequence, index in enumerate(_zipf_key_indices(rng, keys, count))
    )


def fleet_inputs(workload: Workload, seed: int) -> FleetInputs:
    """A static fleet: every feed preloaded, zipfian reads/updates over it.

    The stream label is the same for every static fleet workload, so two
    workloads of equal shape (``fleet_read`` / ``lanes_read``) get
    byte-identical inputs from the same seed.
    """
    rng = _stream(seed, "fleet")
    config = GrubConfig(epoch_size=workload.epoch_size, algorithm="memoryless", k=2)
    specs = []
    operations = {}
    for index in range(workload.feeds):
        feed_id = f"feed-{index:02d}"
        specs.append(
            FeedSpec(
                feed_id=feed_id,
                config=config,
                preload=_preload(
                    rng, feed_id, workload.preload_keys, workload.record_bytes
                ),
                store_backend=workload.store_backend,
            )
        )
        operations[feed_id] = _zipf_operations(
            rng,
            feed_id,
            workload.preload_keys,
            workload.ops_per_feed,
            workload.update_share,
            workload.record_bytes,
        )
    return FleetInputs(specs=tuple(specs), operations=operations)


def _spread(count: int, first: int, last: int) -> List[int]:
    """``count`` epochs spaced evenly over ``[first, last]``."""
    width = (last - first) / max(1, count)
    return [first + int(width * (slot + 0.5)) for slot in range(count)]


def _mint_operations(
    rng: random.Random, feed_id: str, epoch_size: int, record_bytes: int
) -> Tuple[Operation, ...]:
    """The NFT-mint burst: mint writes, then hot reads of the early tokens."""
    minted = epoch_size + epoch_size // 2
    operations = [
        Operation.write(_key(feed_id, index), rng.randbytes(record_bytes), sequence=index)
        for index in range(minted)
    ]
    hot = max(1, minted // 4)
    for _ in range(2 * minted):
        operations.append(
            Operation.read(
                _key(feed_id, rng.randrange(hot)),
                size_bytes=record_bytes,
                sequence=len(operations),
            )
        )
    return tuple(operations)


def churn_inputs(workload: Workload, seed: int) -> FleetInputs:
    """Residents plus joins and leaves spread over the whole run.

    The schedule's *shape* is fixed — who joins and leaves when, each
    tenant's algorithm, update share and quota — and the seed draws only
    keys, values and the read/update coin flips, so every seed is the same
    amount of work and the metrics of different seeds are comparable.

    The run lasts as long as its slowest tenant: quota-capped residents drive
    half an epoch per epoch, so churn events are spread over twice an
    unthrottled resident's lifetime.
    """
    rng = _stream(seed, "churn")
    epoch_size = workload.epoch_size
    quota_ops = max(1, epoch_size // 2)
    unthrottled_epochs = workload.ops_per_feed // epoch_size
    run_epochs = max(8, workload.ops_per_feed // quota_ops)
    tenants = itertools.count()

    def config(ordinal: int) -> GrubConfig:
        return GrubConfig(
            epoch_size=epoch_size,
            algorithm=_ALGORITHMS[ordinal % len(_ALGORITHMS)],
            k=(1, 2, 4)[ordinal % 3],
        )

    def tenant(feed_id: str, count: int, **quota) -> Tuple[FeedSpec, Tuple[Operation, ...]]:
        ordinal = next(tenants)
        spec = FeedSpec(
            feed_id=feed_id,
            config=config(ordinal),
            preload=_preload(rng, feed_id, workload.preload_keys, workload.record_bytes),
            **quota,
        )
        operations = _zipf_operations(
            rng,
            feed_id,
            workload.preload_keys,
            count,
            _CHURN_UPDATE_SHARES[ordinal % len(_CHURN_UPDATE_SHARES)],
            workload.record_bytes,
        )
        return spec, operations

    specs = []
    operations = {}
    for index in range(workload.feeds):
        quota = {}
        if index < workload.quota_feeds:
            quota["max_ops_per_epoch"] = quota_ops
            if index == 0:
                # Loose enough for a few operations, tight on write-heavy epochs.
                quota["max_gas_per_epoch"] = 400_000
        spec, ops = tenant(f"res-{index:02d}", workload.ops_per_feed, **quota)
        specs.append(spec)
        operations[spec.feed_id] = ops

    joins = []
    leaves = []
    burst_slots = set(range(1, 2 * workload.burst_tenants, 2))
    for slot, at_epoch in enumerate(_spread(workload.joins, 1, int(run_epochs * 0.85))):
        if slot in burst_slots:
            feed_id = f"mint-{slot:02d}"
            spec = FeedSpec(feed_id=feed_id, config=config(next(tenants)))
            ops = _mint_operations(rng, feed_id, epoch_size, workload.record_bytes)
            leaves.append((at_epoch + 4, feed_id))
        else:
            lifetime = min(run_epochs - at_epoch, unthrottled_epochs)
            spec, ops = tenant(f"join-{slot:02d}", max(2, lifetime // 2) * epoch_size)
        joins.append((at_epoch, spec, ops))

    # Every other unthrottled resident departs before its work is done.
    departing = [
        spec.feed_id
        for spec in specs[workload.quota_feeds :: 2][: workload.leaves - workload.burst_tenants]
    ]
    leaves.extend(zip(_spread(len(departing), 2, unthrottled_epochs), departing))
    return FleetInputs(
        specs=tuple(specs),
        operations=operations,
        joins=tuple(joins),
        leaves=tuple(leaves),
    )


def door_inputs(workload: Workload, seed: int, step_seconds: float) -> DoorInputs:
    """One seeded request sequence per rate, ``rate * step_seconds`` long."""
    rng = _stream(seed, "door")
    config = GrubConfig(epoch_size=workload.epoch_size, algorithm="memoryless", k=2)
    specs = tuple(
        FeedSpec(
            feed_id=f"tenant-{index:02d}",
            config=config,
            preload=_preload(
                rng, f"tenant-{index:02d}", workload.preload_keys, workload.record_bytes
            ),
        )
        for index in range(workload.feeds)
    )
    steps = []
    for rate in workload.rates:
        count = max(1, int(rate * step_seconds))
        tenants = rng.choices(range(workload.feeds), k=count)
        indices = _zipf_key_indices(rng, workload.preload_keys, count)
        steps.append(
            (
                rate,
                tuple(
                    Request(
                        tenant=specs[tenant].feed_id,
                        operation=_operation(
                            rng,
                            _key(specs[tenant].feed_id, index),
                            workload.update_share,
                            workload.record_bytes,
                            sequence,
                        ),
                    )
                    for sequence, (tenant, index) in enumerate(zip(tenants, indices))
                ),
            )
        )
    return DoorInputs(specs=specs, steps=tuple(steps))


def generate(workload: Workload, seed: int, step_seconds: float = 0.0):
    """The inputs of ``workload`` for ``seed`` (checked before they are used)."""
    if workload.is_door:
        inputs = door_inputs(workload, seed, step_seconds)
    elif workload.joins or workload.leaves:
        inputs = churn_inputs(workload, seed)
    else:
        inputs = fleet_inputs(workload, seed)
    share = preloaded_read_share(inputs.streams().values())
    if share < MIN_PRELOADED_READ_SHARE:
        raise ValueError(
            f"{workload.name}: only {share:.1%} of reads hit preloaded keys "
            f"(need {MIN_PRELOADED_READ_SHARE:.0%})"
        )
    return inputs


def preloaded_read_share(
    streams: Sequence[Tuple[FeedSpec, Sequence[Operation]]]
) -> float:
    """Share of read operations whose key the feed's preload holds."""
    reads = hits = 0
    for spec, operations in streams:
        preloaded = {record.key for record in spec.preload or ()}
        for operation in operations:
            if operation.is_read:
                reads += 1
                hits += operation.key in preloaded
    return hits / reads if reads else 1.0
