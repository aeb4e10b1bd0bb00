"""Execution backends for the epoch engine: the epoch body + process lanes.

The :class:`~repro.gateway.scheduler.EpochScheduler` orchestrates epochs; this
module owns *how an epoch's work actually executes*.  It has two halves:

**The epoch body.**  :func:`run_epoch_phases` is the one place the epoch's
phase order is written down: per-feed gas marks, drive every shard, absorb in
shard order, one watchdog poll, per shard deliver build + settle + memo
warm-up, per shard update prepare + settle, per-feed accounting — over a
:class:`~repro.gateway.registry.FeedRegistry` and an ordered
``[(shard_index, feed_ids)]``.  Everything a run keeps per feed — workload
queue, dirty keys, read memo, bill — sits on the feed's
:class:`~repro.gateway.registry.FeedHandle`, so the body looks a feed up once
and has it all.  The serial backend calls it against the main registry; the
process backend calls the very same function inside worker processes against
lane-local registries.  The two differ only in the ``settle`` callable
they hand it (land the batch and check for a revert, or land it and capture
what the main chain must record), which is what makes the bit-identical
guarantee a property of the code path rather than of careful duplication.

**Process backend.**  :class:`LaneEngine` ships each shard's epoch work to
long-lived worker processes:

* every worker **lane** is one long-lived child process on one duplex pipe
  that builds its :class:`_LaneWorker` as it starts and then serves
  ``(method, args)`` orders as calls on it, sending back the result or the
  exception, so the worker-side state of a feed — its contracts on
  a worker-local chain, SP store, control plane, read memo, bill, workload
  queue — persists across epochs and only *per-epoch deltas* cross the
  process boundary;
* per order, a lane receives a tiny ``(start, count, epoch_size)`` tuple
  plus its shard assignment and sends back **one packed frame** per epoch,
  each as soon as it is packed
  (:class:`LaneEpochEnvelope`) covering all of its shards' phases: each
  shard's driving-phase :class:`~repro.chain.chain.ExecutionBuffer` itself,
  and each of the shard's settlement transactions *executed* against the
  worker's mirror of the shard's contracts, as a :data:`Settlement`: the
  lane chain's own receipt (its transaction's ``args`` emptied when its
  block was sealed, as every receipt's are) and the exact
  :class:`~repro.chain.gas.GasLedger` delta it charged;
* the main process merges results in **fixed shard order** — absorb every
  drive buffer, stamping its events at the epoch-start height, then record
  each shard's deliver receipt in a block of its own, then each update
  receipt (:meth:`~repro.chain.chain.Blockchain.mine_recorded_block`, the
  block production a serial run executes with) — reproducing the serial
  merge exactly, so fingerprints, per-feed gas bills, receipts and chain
  state are bit-identical to a serial run;
* at run end the workers ship their final feed state back — the same packed
  :class:`~repro.gateway.feed_state.FeedState` a feed moves between lanes
  as, a copy that descends from the main mirror holding only what diverged
  from it — and the scheduler applies it to the main registry's mirrors, so
  post-run inspection (contract storage, roots, replica counts, bills,
  memos) sees exactly what a serial run would have left, and the
  registry's next run continues from it.

The lane boundary has one format, the one a feed's state already crosses in
(:mod:`repro.gateway.feed_state`): a lane packs its epoch — ``(epoch,
[ShardOutcome, …])`` as :func:`run_epoch_phases` returned it, the engine's
own objects (buffers, ledgers, spans) — once, where it is produced, and the
main process opens it once, where it is merged (:func:`open_lane_epoch`).
Every frame is self-contained, and is metered once, as the main process takes
it, into the ``ipc_bytes_per_epoch`` / ``ipc_encode_seconds`` /
``ipc_decode_seconds`` histograms per lane that :func:`ipc_summary` reads
back as ``FleetTelemetry.ipc``.  Lanes
are this program's own children, so the byte layout is no protocol; what the
boundary checks is that the bytes open, hold the type they should, and are
for the epoch and the feeds they were handed over for — each failure a
:class:`~repro.common.errors.WireError` before anything is merged.

**How a feed reaches a lane.**  One way a lane starts: forked, at an epoch
boundary, with the main registry as its process argument — handed over
copy-on-write, never pickled — keeping the feeds it *adopts* and holding
every other one it inherited (:meth:`LaneEngine.ensure_lanes`).  A feed the
main process hosts is adopted by the lane its plan assigns it when that lane
is spawned at the same boundary: the built feed — contracts, SP store,
queue, memo and bill — is the lane's as the fork left it, and an LSM opener
the main process closed before the fork is reopened there.  Every other move
is an *install* of one :class:`~repro.gateway.feed_state.FeedState`, packed
into self-contained bytes where it is captured and applied where it lands
(:mod:`repro.gateway.feed_state`: one capture, one apply, whoever sends and
whoever receives).  A lane keeps every feed it inherited without adopting
it, and every feed that left it, as a *held copy* at a version — the main
mirror's, or the state the feed left as — and :class:`LaneEngine` records
which version each lane holds of each feed.  A move to a lane holding one
is cut against it when the source's copy arrived as that version: only the
changed records, the tree nodes above them and how many operations left the
queue's head cross, and the destination re-hosts its held copy and applies
them.  Anything else
ships whole — a feed's complete mirror: contract attrs and storage slots,
the SP store's records, slot layout and Merkle tree, SP counters,
control-plane and monitor state, read memo, workload queue, dirty keys,
bill.  Admission, eviction, gas-aware re-sharding and lane
spawn/retire reduce to the same lane operations (install / migrate-out /
teardown, and a drop of an evicted feed's held copies).  LSM-backed SP
stores move by closing the source's exclusive directory opener before the
destination re-opens it (single-opener enforced by
:class:`~repro.storage.lsm.LSMStore`).

Every lane takes its shards from each epoch order.  A run whose plan cannot
change is ordered ahead: because event stamps are assigned by the *main*
chain at merge time, its lanes never wait for the previous epoch's merge —
the scheduler orders every epoch the remaining workloads already guarantee,
lanes run them back-to-back and send each epoch's frame as it is packed, and
the main process merges epoch *n* while the lanes run epoch *n + 1*.  Any
other run is ordered one lockstep epoch at a time.  Lanes run batch inputs
only, so a lane's queues only ever lose operations from their heads.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection
from types import GeneratorType
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.chain.chain import ExecutionBuffer
from repro.chain.gas import (
    GasLedger,
    LAYER_APPLICATION,
    LAYER_FEED,
)
from repro.chain.transaction import Transaction, TransactionReceipt
from repro.common.errors import ConfigurationError, LaneDied, ReproError, WireError
from repro.common.types import (
    EpochSummary,
    OperationKind,
    ReplicationState,
)
from repro.gateway import feed_state
from repro.gateway.metrics import FeedTelemetry
from repro.gateway.placement import FeedMove
from repro.gateway.registry import (
    MAIN_VERSION,
    FeedHandle,
    FeedRegistry,
    FeedSpec,
    FeedVersion,
)
from repro.gateway.router import (
    GATEWAY_OPERATOR,
    DeliverGroup,
    UpdateGroup,
    scope_weights_for_deliver,
    scope_weights_for_update,
)
from repro.gateway.runtime import CollectorOwner
from repro.obs import DISABLED
from repro.obs.metrics import Histogram, LabelSet, MetricsRegistry, log_buckets
from repro.obs.tracing import Span, Tracer

#: The scheduler's execution backends.
EXECUTION_MODES = ("serial", "process")


# ---------------------------------------------------------------------------
# The epoch body (the serial and process backends both run this)
# ---------------------------------------------------------------------------


def drive_shard(
    registry: FeedRegistry,
    shard: Sequence[str],
    epoch: int,
    epoch_size: int,
) -> Tuple[ExecutionBuffer, Dict[str, EpochSummary]]:
    """Phase 1: drive every feed of one shard through its epoch slice.

    Chain side effects land in the returned isolation buffer for the ordered
    merge.  Each feed consumes from the head of its own queue — up to
    ``epoch_size`` operations, capped by ``max_ops_per_epoch``, cut short once
    ``max_gas_per_epoch`` is reached (checked after each operation against the
    feed's scoped gas in this shard's buffer).  Whatever the epoch could not
    take stays queued and is counted as deferred.

    The loop is deliberately flat: per-feed attribute lookups are hoisted out
    of the per-operation path (this is the scheduler's hottest loop), and the
    read route — memo probe, miss drive, replica memoisation — is inlined
    rather than dispatched per operation.
    """
    chain = registry.chain
    shard_summaries: Dict[str, EpochSummary] = {}
    with chain.isolated_execution() as buffer:
        by_scope = buffer.ledger.by_scope
        for feed_id in shard:
            handle = registry.get(feed_id)
            bill = handle.bill
            queue = handle.queue
            memo = handle.memo
            dirty = handle.dirty
            spec = handle.spec
            system = handle.system
            planned = min(len(queue), epoch_size)
            take = planned
            if spec.max_ops_per_epoch is not None:
                take = min(take, spec.max_ops_per_epoch)
            summary = EpochSummary(index=epoch, operations=take)
            shard_summaries[feed_id] = summary
            executed = 0
            gas_cap = spec.max_gas_per_epoch
            popleft = queue.popleft
            drive_op = system.drive_operation
            manager = handle.storage_manager
            replica_of = manager.replica_of
            continuous = spec.config.continuous_decisions
            observe_reads = handle.data_owner.control_plane.observe_chain_reads
            for _ in range(take):
                operation = popleft()
                kind = operation.kind
                if kind is OperationKind.READ:
                    key = operation.key
                    if key in memo:
                        # Served from the gateway's memo of verified chain
                        # state: no on-chain call and no gas, but the read
                        # enters the feed's read trace where its gGet would
                        # (the list is looked up per hit: a fetch swaps it).
                        bill.cache_hits += 1
                        summary.reads += 1
                        manager.call_history.append(key)
                        if continuous:
                            observe_reads()
                    else:
                        bill.cache_misses += 1
                        drive_op(operation, summary)
                        replica = replica_of(key)
                        if replica is not None and key not in dirty:
                            # Served by a verified on-chain replica with no
                            # buffered write about to supersede it: memoise.
                            memo[key] = replica
                else:
                    if kind is OperationKind.WRITE:
                        memo.pop(operation.key, None)
                        dirty.add(operation.key)
                    drive_op(operation, summary)
                executed += 1
                if (
                    gas_cap is not None
                    and executed < take
                    # O(1) per-op: the feed's two layer buckets, not a scan
                    # of every scope in the shard buffer.
                    and by_scope.get((feed_id, LAYER_FEED), 0)
                    + by_scope.get((feed_id, LAYER_APPLICATION), 0)
                    >= gas_cap
                ):
                    break
            summary.operations = executed
            deferred = planned - executed
            if deferred:
                bill.deferred_ops += deferred
    return buffer, shard_summaries


def build_deliver_groups(
    registry: FeedRegistry, shard: Sequence[str]
) -> List[DeliverGroup]:
    """Phase 2 (build): drain one shard's pending requests into deliver groups
    (record lookups plus one multiproof a feed, no chain I/O)."""
    groups: List[DeliverGroup] = []
    for feed_id in shard:
        handle = registry.get(feed_id)
        items, proof = handle.service_provider.drain_pending_items()
        if not items:
            continue
        groups.append(
            DeliverGroup(
                feed_id=feed_id,
                manager=handle.storage_manager.address,
                items=items,
                proof=proof,
            )
        )
    return groups


def prepare_update_groups(
    registry: FeedRegistry, shard: Sequence[str]
) -> Tuple[List[UpdateGroup], Dict[str, Dict[str, ReplicationState]]]:
    """Phase 3 (build): run one shard's control planes and ADS updates,
    returning the prepared update groups plus per-feed transitions."""
    groups: List[UpdateGroup] = []
    shard_transitions: Dict[str, Dict[str, ReplicationState]] = {}
    for feed_id in shard:
        handle = registry.get(feed_id)
        prepared = handle.data_owner.prepare_epoch_update()
        shard_transitions[feed_id] = prepared.transitions
        if not prepared.has_payload:
            continue
        assert prepared.root is not None
        groups.append(
            UpdateGroup(
                feed_id=feed_id,
                manager=handle.storage_manager.address,
                entries=prepared.entries,
                digest=prepared.root,
            )
        )
    return groups, shard_transitions


def deliver_transaction(router_address: str, groups: List[DeliverGroup]) -> Transaction:
    """The batched cross-feed deliver transaction for one shard's groups (one
    group a feed, so the per-feed weights add up to its calldata)."""
    scopes = scope_weights_for_deliver(groups)
    return Transaction(
        sender=GATEWAY_OPERATOR,
        contract=router_address,
        function="deliver_batch",
        args={"groups": groups},
        calldata_bytes=sum(scopes.values()),
        layer=LAYER_FEED,
        scopes=scopes,
    )


def update_transaction(router_address: str, groups: List[UpdateGroup]) -> Transaction:
    """The grouped cross-feed update transaction for one shard's groups."""
    scopes = scope_weights_for_update(groups)
    return Transaction(
        sender=GATEWAY_OPERATOR,
        contract=router_address,
        function="update_batch",
        args={"groups": groups},
        calldata_bytes=sum(scopes.values()),
        layer=LAYER_FEED,
        scopes=scopes,
    )


def warm_cache_from_deliveries(
    registry: FeedRegistry, groups: Sequence[DeliverGroup]
) -> None:
    """Memoise records the deliver batches just verified *and* replicated.

    Once the chain has verified a delivered record's proof and stored it as a
    replica, its value is public replicated state — exactly what the memo
    serves — so it is memoised immediately instead of waiting for the first
    post-deliver read.  Keys written during the current epoch are skipped
    (their replica is about to be superseded by the pending epoch update).
    """
    for group in groups:
        handle = registry.get(group.feed_id)
        memo = handle.memo
        dirty = handle.dirty
        for item in group.items:
            if item.replicate and item.key not in dirty:
                memo[item.key] = item.value


def settle_feed_epoch(
    registry: FeedRegistry,
    feed_id: str,
    summary: EpochSummary,
    *,
    deliveries: int,
    update_transactions: int,
    transitions: Dict[str, ReplicationState],
    gas_before: Tuple[int, int],
) -> int:
    """Phase 4 (per feed): settle epoch accounting and memo invalidation.

    Drops the memo entries of records that went R→NR (an evicted replica must
    not be served from the memo), clears the feed's dirty-key set (the epoch
    update has landed, replicas are fresh again), folds the epoch into the
    feed's bill, and returns the epoch's total gas (the planner's observation
    input).
    """
    ledger = registry.chain.ledger
    handle = registry.get(feed_id)
    memo = handle.memo
    for key, state in transitions.items():
        if state is ReplicationState.NOT_REPLICATED:
            memo.pop(key, None)
    handle.dirty.clear()
    feed_after = ledger.scope_total(feed_id, LAYER_FEED)
    app_after = ledger.scope_total(feed_id, LAYER_APPLICATION)
    handle.bill.record_epoch(
        summary,
        deliveries=deliveries,
        update_transactions=update_transactions,
        transitions=transitions,
        gas_feed=feed_after - gas_before[0],
        gas_application=app_after - gas_before[1],
    )
    return summary.gas_total


@dataclass
class ShardOutcome:
    """What one epoch left behind for one shard (see :func:`run_epoch_phases`);
    a lane ships it back as itself."""

    shard_index: int
    #: The drive phase's isolation buffer, already absorbed into the chain
    #: that ran the epoch (a lane's: the main chain absorbs it at merge).
    drive: ExecutionBuffer
    #: What ``settle`` returned for the shard's deliver / update batch (a
    #: lane's is a :data:`Settlement`); ``None`` when it had nothing to land.
    deliver: object = None
    update: object = None
    #: feed id → ``(operations executed, settled epoch gas)``.
    settled: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: The shard's finished phase spans, in phase order (empty when untraced);
    #: a lane's are from its own clock, grafted in shard order, never compared.
    spans: List[Span] = field(default_factory=list)


def run_epoch_phases(
    registry: FeedRegistry,
    shards: Sequence[Tuple[int, Sequence[str]]],
    epoch: int,
    epoch_size: int,
    *,
    settle: Callable[[Transaction], object],
    tracer: Tracer,
    phase: Callable = DISABLED.phase,
) -> List[ShardOutcome]:
    """One lockstep epoch over ``shards`` — monitor, decide, replicate, settle
    — against ``registry``'s chain: the only copy of the epoch's phase order.

    ``settle(transaction)`` lands one shard's batch in its own block (so the
    block gas limit bounds exactly what the planner budgeted) and returns
    whatever the caller wants kept on the shard's outcome.  ``phase(name,
    epoch=…)`` scopes each phase; a span it yields adopts the phase's
    per-shard spans in shard order.  Outcomes come back in ``shards`` order.
    """
    chain = registry.chain
    ledger = chain.ledger
    router = registry.router.address
    gas_before = {
        feed_id: (
            ledger.scope_total(feed_id, LAYER_FEED),
            ledger.scope_total(feed_id, LAYER_APPLICATION),
        )
        for _, shard in shards
        for feed_id in shard
    }
    outcomes: List[ShardOutcome] = []

    def close(parent: Optional[Span], outcome: ShardOutcome, span: Optional[Span]):
        if span is not None:
            tracer.finish(span)
            outcome.spans.append(span)
            if parent is not None:
                tracer.adopt(parent, span)

    # Phase 1 — every shard drives its feeds' slice of the epoch (reads
    # execute against per-feed contract state or hit the feed's memo;
    # writes buffer at the feed's DO).  Gas charges and emitted events land
    # in per-shard buffers, merged in shard order once all have driven.
    summaries: Dict[str, EpochSummary] = {}
    with phase("drive", epoch=epoch) as parent:
        for shard_index, shard in shards:
            span = tracer.detached("shard", phase="drive", shard=shard_index)
            buffer, shard_summaries = drive_shard(registry, shard, epoch, epoch_size)
            summaries.update(shard_summaries)
            outcome = ShardOutcome(shard_index, buffer)
            outcomes.append(outcome)
            close(parent, outcome, span)
        for outcome in outcomes:
            chain.absorb(outcome.drive)

    # Phase 2 — the shared watchdog scans the merged log once; each shard
    # then builds its deliver groups (record lookups + batched Merkle proofs)
    # and settles them in one batched deliver transaction, and the records
    # the chain just verified and replicated warm the memos.
    delivered = dict.fromkeys(gas_before, 0)
    with phase("deliver", epoch=epoch) as parent:
        registry.watchdog.poll()
        for (shard_index, shard), outcome in zip(shards, outcomes):
            span = tracer.detached("shard", phase="deliver", shard=shard_index)
            groups = build_deliver_groups(registry, shard)
            if groups:
                outcome.deliver = settle(deliver_transaction(router, groups))
                for group in groups:
                    delivered[group.feed_id] += 1
                warm_cache_from_deliveries(registry, groups)
            close(parent, outcome, span)

    # Phase 3 — every shard prepares its feeds' epoch updates (control plane
    # + ADS); each shard's payloads land in one grouped update transaction.
    updated = dict.fromkeys(gas_before, 0)
    transitions: Dict[str, Dict[str, ReplicationState]] = {}
    with phase("update", epoch=epoch) as parent:
        for (shard_index, shard), outcome in zip(shards, outcomes):
            span = tracer.detached("shard", phase="update", shard=shard_index)
            update_groups, shard_transitions = prepare_update_groups(registry, shard)
            transitions.update(shard_transitions)
            if update_groups:
                outcome.update = settle(update_transaction(router, update_groups))
                for group in update_groups:
                    updated[group.feed_id] += 1
            close(parent, outcome, span)

    # Phase 4 — per-feed accounting for the epoch, plus replication-keyed
    # memo invalidation (an evicted replica must not be served from the memo).
    with phase("settle", epoch=epoch) as parent:
        for (shard_index, shard), outcome in zip(shards, outcomes):
            span = tracer.detached("shard", phase="settle", shard=shard_index)
            for feed_id in shard:
                summary = summaries[feed_id]
                outcome.settled[feed_id] = (
                    summary.operations,
                    settle_feed_epoch(
                        registry,
                        feed_id,
                        summary,
                        deliveries=delivered[feed_id],
                        update_transactions=updated[feed_id],
                        transitions=transitions.get(feed_id, {}),
                        gas_before=gas_before[feed_id],
                    ),
                )
            close(parent, outcome, span)
    return outcomes


def close_feed_bill(
    registry: FeedRegistry, feed_id: str, epoch: int, *, poll: bool
) -> FeedTelemetry:
    """The eviction boundary's accounting, wherever the feed's live mirror is
    hosted: cancel the departing feed's undelivered requests and still-queued
    operations *visibly* — counted on its bill, which becomes final — and
    stamp the departure epoch.

    ``poll`` first pulls any still-unrouted request events while the feed's
    route exists, so their cancellation is counted instead of events dangling
    toward a dead handle.  The main side of a process run passes ``False``
    for a feed no lane hosts yet: the main chain's absorbed events were
    already routed and consumed inside the lanes, so a main poll would stuff
    main-side mirrors with requests that can never be delivered.
    """
    watchdog = registry.watchdog
    if poll:
        watchdog.poll()
    handle = registry.get(feed_id)
    bill = handle.bill
    bill.cancelled_requests += watchdog.cancel_pending(handle)
    bill.cancelled_ops += len(handle.queue)
    handle.queue.clear()
    bill.departed_epoch = epoch
    return bill


# ---------------------------------------------------------------------------
# Process backend: boundary types
# ---------------------------------------------------------------------------

#: Lanes always fork, whatever the interpreter's default start method;
#: ``None`` where the platform cannot.
_FORK = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else None
)


def fork_context():
    """The context every lane starts from; a platform that cannot fork has
    no process backend (a lane inherits the main registry, nothing else)."""
    if _FORK is None:
        raise ConfigurationError(
            "execution_mode='process' forks its worker lanes, and this "
            "platform cannot fork; use execution_mode='serial'"
        )
    return _FORK


@dataclass(frozen=True)
class LaneConfig:
    """How a lane builds its worker; a process argument of the lane, beside
    the main registry it forks with (see :meth:`LaneEngine.ensure_lanes`).

    The worker keeps the feeds :attr:`adopts` names of that registry — the
    fully built feeds, workload queue and memo with them, bit-for-bit the
    state a packed one would have to be rebuilt into — and holds every other
    one, out of its registry, at the main mirror's version; every other feed
    reaches it later as a packed state, a delta where it holds a copy at the
    version the delta was cut against.
    """

    #: When set, the lane times per-shard phase spans (its own monotonic
    #: clock) and ships them back in :attr:`ShardOutcome.spans`.
    obs_enabled: bool = False
    #: The main-hosted feeds this lane adopts as it forks; set by the engine.
    adopts: Tuple[str, ...] = ()


#: One settlement transaction as a lane executed it: the lane chain's receipt
#: and the gas-ledger delta its execution charged.  The main chain records the
#: receipt (:meth:`~repro.chain.chain.Blockchain.mine_recorded_block`
#: restamps its block position, events and id) and merges the delta.
Settlement = Tuple[TransactionReceipt, GasLedger]


@dataclass(frozen=True)
class LaneEpochEnvelope:
    """One lane's whole epoch as it crosses the lane's pipe: one reply, sent
    as soon as the epoch is packed.

    :attr:`frame` is the lane's ``(epoch, [ShardOutcome, …])``, packed in
    the lane (:func:`repro.gateway.feed_state.pack`) so the pipe's own pickle
    of this envelope copies bytes instead of walking an object graph, and the
    main process opens it where it merges it (:func:`open_lane_epoch`) with
    its size and both costs metered.
    """

    frame: bytes
    #: Worker-side wall time spent packing the frame (what
    #: ``ipc_encode_seconds`` observes).
    encode_seconds: float
    #: Boundary collections the lane has taken so far, this epoch's included.
    gc_collections: int = 0


def open_lane_epoch(frame: bytes) -> Tuple[int, List[ShardOutcome]]:
    """Open one lane's packed epoch: the epoch index and the lane's
    :class:`ShardOutcome`\\ s in the lane's shard order.  Bytes that do not
    open to exactly that shape are a :class:`WireError`."""
    opened = feed_state.open_packed(frame, tuple, "lane epoch frame")
    epoch, outcomes = opened if len(opened) == 2 else (None, None)
    if not (
        isinstance(epoch, int)
        and isinstance(outcomes, list)
        and all(isinstance(outcome, ShardOutcome) for outcome in outcomes)
    ):
        raise WireError("lane epoch frame does not hold (epoch, [ShardOutcome, ...])")
    return epoch, outcomes


# ---------------------------------------------------------------------------
# Process backend: the lane boundary's instruments
# ---------------------------------------------------------------------------

#: Frame sizes need byte-scaled buckets (the default ones are seconds):
#: 64 B–128 MB, doubling.
_FRAME_BYTE_BUCKETS = log_buckets(start=64.0, factor=2.0, count=22)
#: Lane-to-lane moves per epoch (counts, not latencies).
_MOVE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)
#: Per-lane frame histograms → the ``fleet.ipc`` lane-row field each sums to.
_LANE_ROW = {
    "ipc_bytes_per_epoch": "wire_bytes",
    "ipc_encode_seconds": "encode_seconds",
    "ipc_decode_seconds": "decode_seconds",
}
#: Run-wide counters: ``fleet.ipc`` keys of the same name, except merged lane
#: epochs (``epochs``); ``migrations_total`` also counts by its ``reason``.
#: ``migration_deltas_total`` counts the moves that crossed as a delta
#: against a held copy (every other move crossed whole), with their bytes.
_COUNTERS = (
    "ipc_epochs_total", "migrations_total", "migration_bytes_total",
    "migration_deltas_total", "migration_delta_bytes_total", "installs_total",
    "install_bytes_total", "lane_spawns_total", "lane_retirements_total",
)
#: Where each lane-boundary counter and histogram stands: ``(count, sum)``.
IpcReadings = Dict[Tuple[str, LabelSet], Tuple[float, float]]


def ipc_readings(metrics: MetricsRegistry) -> IpcReadings:
    """Read every lane-boundary counter (its value is both count and sum) and
    histogram — each of them only grows."""
    return {
        (instrument.name, instrument.labels): (
            (instrument.count, instrument.total)
            if isinstance(instrument, Histogram)
            else (instrument.value, instrument.value)
        )
        for instrument in metrics.instruments()
        if instrument.name in _LANE_ROW or instrument.name in _COUNTERS
    }


def ipc_summary(metrics: MetricsRegistry, since: Optional[IpcReadings] = None) -> dict:
    """``FleetTelemetry.ipc``: what the instruments :class:`LaneEngine`
    records into gained since the ``since`` readings (all they hold, without
    them), so a plane that outlives runs still yields one run's record — frame
    bytes per merged epoch, seconds packing and opening them, a row per lane
    that shipped a frame, and the feed-mobility totals.  A row's
    ``gc_collections`` is a level, the lane's collections so far.
    """
    since = since or {}
    totals = dict.fromkeys(_COUNTERS, 0)
    lanes: Dict[str, dict] = {}
    by_reason: Dict[str, int] = {}
    for key, (count, total) in ipc_readings(metrics).items():
        count_before, total_before = since.get(key, (0, 0))
        count, total = count - count_before, total - total_before
        name, label = key[0], dict(key[1])
        if name in _LANE_ROW:
            if count:
                lanes.setdefault(label["lane"], {"epochs": count})[_LANE_ROW[name]] = total
        else:
            totals[name] += count
            if "reason" in label and count:
                by_reason[label["reason"]] = count
    for lane, row in lanes.items():
        row["wire_bytes"] = int(row["wire_bytes"])
        row["gc_collections"] = int(metrics.find("lane_gc_collections", lane=lane).value)
    epochs = totals.pop("ipc_epochs_total")
    wire_total = sum(row["wire_bytes"] for row in lanes.values())
    return {
        "epochs": epochs,
        "wire_bytes_total": wire_total,
        "bytes_per_epoch": wire_total / epochs if epochs else 0.0,
        "encode_seconds": sum(row["encode_seconds"] for row in lanes.values()),
        "decode_seconds": sum(row["decode_seconds"] for row in lanes.values()),
        "lanes": {lane: lanes[lane] for lane in sorted(lanes, key=int)},
        "migrations_by_reason": dict(sorted(by_reason.items())),
        "migration_bytes_per_epoch": (
            totals["migration_bytes_total"] / epochs if epochs else 0.0
        ),
        **totals,
    }


# ---------------------------------------------------------------------------
# Process backend: the worker side (runs inside each lane process)
# ---------------------------------------------------------------------------


class _LaneWorker:
    """A worker process's resident runtime: full mirrors of its shards' feeds.

    Built once, in its lane's process (:func:`_lane_main`), whose orders
    name its methods; lives for the whole run.  Every epoch it executes the
    complete epoch for each of its shards — drive, watchdog poll, deliver
    settlement, memo warm-up, update settlement, per-feed accounting —
    against its *local* chain, in the same per-feed order a serial run uses,
    and ships back only the deltas the main chain must record, as one packed
    frame per epoch.

    The local chain's heights are private bookkeeping: the main chain
    restamps drive events when it absorbs their buffer, and settlement
    receipts are restamped by ``mine_recorded_block`` on the main side, so the
    worker neither tracks nor pads toward the main chain's height — which is
    what allows it to run epochs ahead of the main process's merge.
    """

    def __init__(self, config: LaneConfig, registry: FeedRegistry) -> None:
        #: Lane-local tracer (own process, own clock).  It only ever creates
        #: detached spans; the finished spans ship back as themselves and the
        #: main process owns the tree they end up in.
        self.tracer = Tracer(enabled=config.obs_enabled)
        #: The lane owns its process's collector until the process exits (so
        #: nothing is ever restored): a forked lane inherits the main
        #: process's frozen heap and switched-off collector, and this is who
        #: collects in its stead — between epochs, never inside one.
        self.collector = CollectorOwner().__enter__()
        self.shards: List[Tuple[int, List[str]]] = []
        #: The forked copy of the main registry (every feed's contracts,
        #: stores, control planes and run state exactly as the main process
        #: built them, for free via copy-on-write), down to the feeds this
        #: lane adopts.  The chain's obs hook is severed: metrics belong to
        #: the main process, and worker-side mining must not pay for them.
        self.registry = registry
        registry.chain.obs = None
        # A lane forked mid-run inherits the main watchdog's cursor from
        # where the run began, while the main log has since absorbed every
        # merged epoch's request events — answered already, on other lanes.
        # The lane routes only what its own chain logs from here on.
        registry.watchdog.skip_to_end()
        #: feed id → ``(version, handle)`` of every copy this lane holds
        #: without hosting it: an inherited feed it did not adopt (the main
        #: mirror's version — and never freed, because freeing it would write
        #: to, and so copy, every shared page it sits on) and a feed that
        #: left it (the version it left as).  A delta cut against that
        #: version re-hosts it; eviction drops it.
        self._held: Dict[str, Tuple[int, FeedHandle]] = {}
        for handle in registry.handles:
            if handle.feed_id not in config.adopts:
                self._held[handle.feed_id] = (
                    MAIN_VERSION,
                    registry.remove_feed(handle.feed_id),
                )
                continue
            # The SP store as the fork left it is what the main mirror still
            # holds — so at run end only what diverged from it ships, and a
            # move to a lane holding its fork copy ships a delta.
            feed_state.open_store(handle)
            store = handle.system.sp_store.baseline()
            handle.baseline = FeedVersion(MAIN_VERSION, store)
            handle.arrival = FeedVersion(MAIN_VERSION, store, len(handle.queue))

    # -- one epoch -----------------------------------------------------------

    def epochs(
        self,
        start: int,
        count: int,
        epoch_size: int,
        shards: Sequence[Tuple[int, Sequence[str]]],
    ) -> Iterator[LaneEpochEnvelope]:
        """The lane's one epoch order: take ``shards`` as the assignment,
        then run ``count`` consecutive epochs from ``start`` back-to-back,
        yielding each packed frame as it is made — :func:`_lane_main` sends
        it at once, one reply per epoch.

        A run whose plan cannot change is ordered in batches (every epoch the
        remaining workloads guarantee as one order), so its lanes never wait
        on the main process between epochs, and the main process merges each
        epoch as soon as its frame arrives.  Any other run is lockstep, one
        epoch per order: the next plan needs this epoch's observed gas."""
        self.set_assignment(shards)
        for epoch in range(start, start + count):
            yield self.run_epoch(epoch, epoch_size)

    # -- feed mobility (assignment / admission / migration / eviction) --------

    def set_assignment(self, shards: Sequence[Tuple[int, Sequence[str]]]) -> None:
        """Take this order's shard→feed assignment, each feed named by its
        handle's own id string, which the epoch's frame then packs once."""
        for _, feed_ids in shards:
            for feed_id in feed_ids:
                if feed_id not in self.registry:
                    raise WireError(
                        f"epoch assignment names feed {feed_id!r}, which this "
                        "lane does not host — the engine's migration "
                        "bookkeeping is broken"
                    )
        self.shards = [
            (index, [self.registry.get(feed_id).feed_id for feed_id in feed_ids])
            for index, feed_ids in shards
        ]

    def install(self, items: Sequence[Tuple[FeedSpec, bytes]]) -> None:
        """Install one epoch's arriving feeds, one packed state each: a delta
        into the copy this lane holds at the version it was cut against, a
        whole state into a fresh handle (:func:`feed_state.install`)."""
        for spec, blob in items:
            feed_state.install(self.registry, spec, blob, self._held.get(spec.feed_id))
            self._held.pop(spec.feed_id, None)

    def migrate_out(
        self, moves: Sequence[Tuple[str, Optional[int], int]]
    ) -> List[Tuple[bytes, bool]]:
        """Detach one epoch's departing feeds, each ``(feed_id, version its
        destination holds or None, version it leaves as)``, and hold them at
        the version they leave as; one ``(packed state, is a delta)`` per
        feed, in order.

        A feed that arrived as the version its destination holds ships only
        what changed since; any other ships whole.  An LSM-backed store's
        directory is closed *before* returning, so by the time the
        destination lane's install order runs, the single-opener lock is
        free.
        """
        shipped = []
        for feed_id, held, version in moves:
            handle = self.registry.get(feed_id)
            since = handle.arrival if handle.arrival.token == held else None
            blob = feed_state.detach(handle, version, since)
            shipped.append((blob, since is not None))
            self._release(feed_id)
            handle.arrival = None
            self._held[feed_id] = (version, handle)
        return shipped

    def teardown(self, feed_id: str, epoch: int) -> FeedTelemetry:
        """Evict the feed from this lane, returning its final bill.

        :func:`close_feed_bill` polls first, which routes the lane chain's
        unconsumed request events to their SPs' pending lists for all of this
        lane's feeds — other lanes route theirs at their next epoch's poll,
        with identical per-feed content.
        """
        bill = close_feed_bill(self.registry, feed_id, epoch, poll=True)
        feed_state.close_store(self.registry.get(feed_id))
        self._release(feed_id)
        return bill

    def drop(self, feed_id: str) -> None:
        """Let go of the copy this lane holds of an evicted feed."""
        self._held.pop(feed_id, None)

    def _release(self, feed_id: str) -> None:
        """Stop hosting a feed that left this lane (migrated out or evicted):
        out of the registry and the shards."""
        self.registry.remove_feed(feed_id)
        self.shards = [
            (index, [fid for fid in feed_ids if fid != feed_id])
            for index, feed_ids in self.shards
        ]

    def run_epoch(self, epoch: int, epoch_size: int) -> LaneEpochEnvelope:
        """Run the epoch body over this lane's shards against the lane-local
        chain and pack what the main chain must record into one frame."""
        outcomes = run_epoch_phases(
            self.registry,
            self.shards,
            epoch,
            epoch_size,
            settle=self._settle,
            tracer=self.tracer,
        )
        started = time.perf_counter()
        frame = feed_state.pack((epoch, outcomes))
        encode_seconds = time.perf_counter() - started
        # A lane cannot see whether its run ends, so it insures against
        # what it cannot see either (cycles that outlive a boundary).
        self.collector.boundary(insure=True)
        return LaneEpochEnvelope(
            frame=frame,
            encode_seconds=encode_seconds,
            gc_collections=self.collector.collections,
        )

    def _settle(self, transaction: Transaction) -> Settlement:
        """Execute one settlement transaction on the local chain; ship its
        receipt (sealed, so its groups are already dropped) and the exact
        ledger delta it charged."""
        # The settlement charges a ledger of its own, merged into the
        # chain's afterwards, so nothing copies the chain's whole ledger.
        # Correct only while no gas meter or call frame made during ``land``
        # outlives it: one that did would stay bound to ``charged`` and its
        # later charges would reach neither the chain's ledger nor a shipped
        # delta.  Today every call frame lives inside ``isolated_execution``,
        # which drops its frames on exit.
        chain = self.registry.chain
        ledger, chain.ledger = chain.ledger, GasLedger()
        try:
            receipt = chain.land(transaction)
        finally:
            charged, chain.ledger = chain.ledger, ledger
            ledger.merge(charged)
        # ``since`` an empty ledger: the charges without their zero entries.
        ledger_delta = charged.since(GasLedger())
        # Block-gas-limit overflow is *derived* accounting: the worker's local
        # mine_block recorded it from this block's gas, and the main chain's
        # mine_recorded_block re-derives it from the receipt's gas_used.
        # Shipping it in the delta too would double-count it.
        ledger_delta.by_category.pop("block_gas_limit_overflow", None)
        return receipt, ledger_delta

    # -- run-end state shipping ----------------------------------------------

    def collect(self) -> List[bytes]:
        """Detach every hosted feed for the main registry's mirror of it: a
        copy that descends from the mirror cut against it, so only what the
        run changed crosses; any other whole, resetting the mirror."""
        registry = self.registry
        return [
            feed_state.detach(handle, since=handle.baseline)
            for _, shard in self.shards
            for handle in map(registry.get, shard)
        ]


def _lane_main(conn: Connection, config: LaneConfig, registry: FeedRegistry) -> None:
    """A lane process's whole life: build its worker and answer ``None`` —
    or the exception that stopped it, and exit — then take ``(method, args)``
    orders off the pipe, in order, until the stop order (``None``) or the
    main process's end closes, and answer each with ``worker.method(*args)``
    — one reply per item when that is a generator (:meth:`_LaneWorker.epochs`)
    — or with the exception it raised (:func:`_crossing`)."""
    try:
        worker = _LaneWorker(config, registry)
    except Exception as error:
        conn.send(_crossing(error))
        return
    conn.send(None)
    while True:
        try:
            order = conn.recv()
        except EOFError:
            return
        if order is None:
            return
        method, args = order
        try:
            result = getattr(worker, method)(*args)
            for reply in result if isinstance(result, GeneratorType) else (result,):
                conn.send(reply)
        except Exception as error:
            conn.send(_crossing(error))


def _crossing(error: Exception) -> Exception:
    """The exception a lane answers with, the lane's traceback attached as a
    note: ``error`` itself when it survives the pipe's pickle round trip,
    else a :class:`ReproError` naming its class and message (one that cannot
    cross would crash the lane as it is sent, or the main process's read)."""
    note = f"raised in the lane:\n{traceback.format_exc()}"
    error.add_note(note)
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        error = ReproError(f"{type(error).__qualname__}: {error}")
        error.add_note(note)
    return error


# ---------------------------------------------------------------------------
# Process backend: the main-process engine
# ---------------------------------------------------------------------------

#: What a pipe raises once the process at its other end is gone.
_PIPE_BROKEN = (EOFError, BrokenPipeError, ConnectionResetError)
#: How long stopping lanes get to exit on their own before they are
#: terminated (a lane that is idle exits at once).
_STOP_SECONDS = 2.0


class _Reply:
    """One reply a lane owes: the answer to its ``phase`` order for
    ``epoch``, read off the lane's pipe in the order the lane sends."""

    __slots__ = ("lane", "phase", "epoch", "value", "received")

    def __init__(self, lane: "_Lane", phase: str, epoch: int) -> None:
        self.lane = lane
        self.phase = phase
        self.epoch = epoch
        self.value: object = None
        self.received = False

    def result(self, timeout: Optional[float] = None):
        """This reply's value, reading the lane's earlier replies first;
        the exception the lane answered with raises.  ``timeout`` bounds
        each read (:class:`TimeoutError`)."""
        while not self.received:
            self.lane.receive(timeout)
        if isinstance(self.value, BaseException):
            raise self.value
        return self.value


class _Lane:
    """One live lane: its process, the main process's end of its pipe, the
    replies it still owes in the order it sends them, and its epoch replies
    not yet merged."""

    __slots__ = ("index", "process", "conn", "owed", "epochs", "failed")

    def __init__(
        self,
        index: int,
        config: LaneConfig,
        registry: FeedRegistry,
        epoch: int = 0,
    ) -> None:
        """Fork the lane's process; its first reply, owed from here, is its
        ``start``: ``None`` once its worker is built (see :func:`_lane_main`)."""
        context = fork_context()
        self.index = index
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_lane_main,
            args=(child, config, registry),
            name=f"lane-{index}",
            daemon=True,
        )
        self.process.start()
        # The lane now holds the only copy of its end, so its death reads as
        # a broken pipe here.
        child.close()
        self.owed: Deque[_Reply] = deque([_Reply(self, "start", epoch)])
        self.epochs: Deque[_Reply] = deque()
        #: Set once a send or receive failed or a frame was refused: replies
        #: this lane owes may never come.
        self.failed = False

    def send(self, method: str, epoch: int, *args, replies: int = 1) -> List[_Reply]:
        """The engine's one send site: order the worker's ``method(*args)``;
        returns the ``replies`` it will answer with, reply ``i`` for ``epoch +
        i``.  ``method`` is also the phase a :class:`LaneDied` names.

        The order is pickled whole before a byte is written, so one that
        cannot be pickled raises here and leaves the pipe as it was.
        """
        try:
            self.conn.send((method, args))
        except _PIPE_BROKEN as broken:
            self.failed = True
            raise LaneDied(self.index, epoch, method) from broken
        owed = [_Reply(self, method, epoch + offset) for offset in range(replies)]
        self.owed.extend(owed)
        return owed

    def receive(self, timeout: Optional[float] = None) -> None:
        """The engine's one receive site: read the lane's next reply into
        the reply it answers; an exception the lane answered with raises."""
        reply = self.owed[0]
        try:
            if timeout is not None and not self.conn.poll(timeout):
                self.failed = True
                raise TimeoutError(
                    f"lane {self.index} sent no {reply.phase} reply in {timeout} s"
                )
            value = self.conn.recv()
        except _PIPE_BROKEN as broken:
            self.failed = True
            raise LaneDied(self.index, reply.epoch, reply.phase) from broken
        self.owed.popleft()
        reply.value, reply.received = value, True
        if isinstance(value, BaseException):
            self.failed = True
            raise value

    def drain(self, deadline: float) -> None:
        """Read and drop what the lane still owes, until ``deadline``, so a
        lane blocked sending a reply gets to its stop order."""
        conn = self.conn
        while self.owed and conn.poll(max(0.0, deadline - time.monotonic())):
            try:
                conn.recv()
            except _PIPE_BROKEN:
                return
            self.owed.popleft()


def _stop(lanes: Sequence[_Lane]) -> None:
    """Stop ``lanes``: ask each to stop — after reading what they still owe,
    unless one of them failed, in which case a lane still owing replies is
    terminated at once — then join each with a timeout, and terminate and
    kill whichever is still alive."""
    deadline = time.monotonic() + _STOP_SECONDS
    drain = not any(lane.failed for lane in lanes)
    for lane in lanes:
        if drain:
            lane.drain(deadline)
        try:
            lane.conn.send(None)
        except _PIPE_BROKEN:
            pass  # already gone
    for lane in lanes:
        process = lane.process
        if lane.owed and not drain:
            # Nobody will read what it owes, so it may be blocked sending a
            # reply and never see its stop order: the run is over for it.
            process.terminate()
        process.join(max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.terminate()
            process.join(_STOP_SECONDS)
        if process.is_alive():
            process.kill()
            process.join()
        lane.conn.close()


class LaneEngine:
    """The process backend's main-side engine: the worker lanes, the feeds'
    way into and between them, and the per-epoch frame exchange.

    Each lane is one long-lived child process on one duplex pipe, so its
    feeds' state stays resident across epochs.  A lane answers its orders in
    the order they were sent, so an order sent behind an install already
    sees the installed feed, and a failure surfaces at the main process's
    next read of that lane; its frames are self-contained, and are opened in
    epoch order because that is the order the main chain merges in.  A lane
    whose pipe breaks — its process killed or crashed — is a
    :class:`~repro.common.errors.LaneDied` naming the lane, the epoch and the
    order it left unanswered.

    **No pipe deadlock.**  The main process never sends an order larger than
    the pipe buffer to a lane that may be blocked sending a reply the main
    process has not read.  The order sequence keeps it so: installs,
    migrate-outs and teardowns go to lanes whose epoch replies have all been
    read (at most small install replies are unread), and a lane ordered
    ahead, whose frames stream ahead of the merge, is sent nothing large
    after its first epoch order — only its next small epoch order, the
    run-end collect and the stop.

    Lanes start, and come to host feeds, the one way the module docstring
    describes: :meth:`ensure_lanes` (forked, adopting main-hosted feeds and
    holding the rest) / :meth:`retire_lanes`, plus :meth:`transfer` /
    :meth:`teardown` (feeds as packed states, whole or cut against the
    version the destination holds); each epoch order carries the lane's
    shard assignment.

    Each boundary event — a merged frame, an install or move, a spawn or
    retirement — is counted once, where it happens, into ``metrics``.
    """

    def __init__(
        self,
        max_lanes: int,
        registry: FeedRegistry,
        metrics: MetricsRegistry,
        *,
        obs_enabled: bool = False,
    ) -> None:
        """Capture the lane startup template.  No lanes spawn here."""
        if max_lanes <= 0:
            raise ConfigurationError("process backend needs at least one lane")
        self.max_lanes = max_lanes
        self.metrics = metrics
        self._lanes: Dict[int, _Lane] = {}
        #: The main registry (its specs accompany every install order).
        self._registry = registry
        self._template = LaneConfig(obs_enabled=obs_enabled)
        #: shard index → lane, as of the latest order (span labels).
        self._shard_lane: Dict[int, int] = {}
        #: The first epoch not yet merged: what an order placed between
        #: epochs is for.
        self._boundary = 0
        #: feed id → lane → the version of the feed that lane holds without
        #: hosting it (the lane's ``_LaneWorker._held``, kept in step with it
        #: order by order): what a move to that lane is cut against.
        self._copies: Dict[str, Dict[int, int]] = {}
        #: Lane-to-lane moves so far: each numbers the version it leaves.
        self._departures = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def lanes(self) -> List[int]:
        """The live lanes' ids."""
        return sorted(self._lanes)

    def ensure_lanes(self, count: int, adopts: Mapping[int, Sequence[str]]) -> List[int]:
        """Spawn lanes until lanes ``0..count-1`` are all live, and wait
        until every new worker is up; returns the lane ids spawned.

        Each lane forks with the main registry as its process argument —
        handed over copy-on-write, never pickled — and keeps of it the feeds
        ``adopts`` names for that lane (:attr:`LaneConfig.adopts`), holding
        every other one at the main mirror's version.
        """
        spawned = [lane for lane in range(count) if lane not in self._lanes]
        try:
            for lane in spawned:
                config = replace(self._template, adopts=tuple(adopts.get(lane, ())))
                self._lanes[lane] = _Lane(
                    lane, config, self._registry, self._boundary
                )
            for lane in spawned:
                self._lanes[lane].owed[0].result()
        except BaseException:
            self.shutdown()
            raise
        if spawned:
            self.metrics.counter("lane_spawns_total").inc(len(spawned))
        # A lane holds every feed it did not adopt at the main mirror's version.
        for lane in spawned:
            kept = set(adopts.get(lane, ()))
            for feed_id in self._registry.feed_ids:
                if feed_id not in kept:
                    self._copies.setdefault(feed_id, {})[lane] = MAIN_VERSION
        return spawned

    def retire_lanes(self, keep: int) -> List[int]:
        """Shut down every lane with index ``>= keep``, with the copies they
        held.  The caller must have drained them first (migrated every
        hosted feed away)."""
        retired = sorted(lane for lane in self._lanes if lane >= keep)
        _stop([self._lanes.pop(lane) for lane in retired])
        for copies in self._copies.values():
            for lane in retired:
                copies.pop(lane, None)
        if retired:
            self.metrics.counter("lane_retirements_total").inc(len(retired))
        return retired

    # -- feed lifecycle ------------------------------------------------------

    def transfer(
        self,
        moves: Sequence[FeedMove],
        snapshot_local: Callable[[str], bytes],
    ) -> None:
        """Carry out one epoch's feed moves: one migrate-out order per source
        lane, then one install order per destination lane.

        Source lanes detach in parallel while ``snapshot_local`` detaches the
        feeds the main process still hosts (``source is None``), whole.  A
        lane-to-lane move is cut against the version its destination holds
        (:attr:`_copies`), which the source ships as a delta when its copy
        arrived as that version, and whole otherwise; the source then holds
        the feed at a new version, and the destination holds none.  Every
        migrate-out resolves — mirror held, LSM opener closed — before any
        state reaches a destination (single-opener rule); migrated states
        pass *through* the main process packed, never opened there.  The
        installs are not waited on: a failed one re-raises at the engine's
        next read of its lane (:meth:`results` / :meth:`teardown` /
        :meth:`collect`).  Each install and each lane-to-lane move is counted
        with its bytes, a move under the reason the placement gave it, and a
        move that crossed as a delta once more as one.
        """
        outgoing: Dict[int, List[Tuple[str, Optional[int], int]]] = {}
        for move in moves:
            if move.source is not None:
                self._departures += 1
                held = self._copies.get(move.feed_id, {}).get(move.destination)
                outgoing.setdefault(move.source, []).append(
                    (move.feed_id, held, self._departures)
                )
        orders = [
            (
                lane,
                departing,
                self._lanes[lane].send("migrate_out", self._boundary, departing),
            )
            for lane, departing in outgoing.items()
        ]
        shipped = {
            move.feed_id: (snapshot_local(move.feed_id), False)
            for move in moves
            if move.source is None
        }
        for lane, departing, [reply] in orders:
            for (feed_id, _, version), result in zip(departing, reply.result()):
                shipped[feed_id] = result
                self._copies.setdefault(feed_id, {})[lane] = version
        metrics = self.metrics
        incoming: Dict[int, List[Tuple[FeedSpec, bytes]]] = {}
        for move in moves:
            blob, delta = shipped[move.feed_id]
            self._copies.get(move.feed_id, {}).pop(move.destination, None)
            spec = shipped_spec(self._registry.get(move.feed_id).spec)
            incoming.setdefault(move.destination, []).append((spec, blob))
            if move.source is None:
                metrics.counter("installs_total").inc()
                metrics.counter("install_bytes_total").inc(len(blob))
                continue
            metrics.counter("migrations_total", reason=move.reason).inc()
            metrics.counter("migration_bytes_total").inc(len(blob))
            if delta:
                metrics.counter("migration_deltas_total").inc()
                metrics.counter("migration_delta_bytes_total").inc(len(blob))
        metrics.histogram("migrations_per_epoch", buckets=_MOVE_BUCKETS).observe(
            sum(len(departing) for departing in outgoing.values())
        )
        for lane, items in incoming.items():
            self._lanes[lane].send("install", self._boundary, items)

    def teardown(self, lane: int, feed_id: str, epoch: int) -> FeedTelemetry:
        """Evict one feed from its lane, and order every other lane holding a
        copy of it to drop that copy (not waited on), so a lane holds at most
        one copy per live feed; returns the feed's final bill."""
        [reply] = self._lanes[lane].send("teardown", epoch, feed_id, epoch)
        for holder in sorted(self._copies.pop(feed_id, {})):
            self._lanes[holder].send("drop", epoch, feed_id)
        return reply.result()

    # -- epochs --------------------------------------------------------------

    def submit(
        self,
        start: int,
        count: int,
        epoch_size: int,
        assignments: Mapping[int, Sequence[Tuple[int, Sequence[str]]]],
    ) -> None:
        """Send ``count`` epochs from ``start`` as one order per lane named
        in ``assignments`` (returns once sent; :meth:`results` blocks for one
        epoch's frames).

        Each such lane is shipped its ``(shard_index, feed_ids)`` list, and
        the other lanes sit the epochs out.
        """
        self._shard_lane = {
            shard_index: lane
            for lane, shards in assignments.items()
            for shard_index, _ in shards
        }
        for lane in sorted(assignments):
            shards = [(index, list(feed_ids)) for index, feed_ids in assignments[lane]]
            entry = self._lanes[lane]
            order = (start, count, epoch_size, shards)
            entry.epochs.extend(entry.send("epochs", start, *order, replies=count))

    @property
    def lane_of(self) -> Dict[int, int]:
        """shard index → lane, as of the latest order (span labels)."""
        return dict(self._shard_lane)

    def results(self, epoch: int) -> List[ShardOutcome]:
        """Read — and open — the next frame of every lane with an epoch
        order in flight, which must be its frame for ``epoch``.

        Must be called for epochs in submission order (the order the main
        chain merges in); returns the shard outcomes in fixed shard order.  No
        lane's frame is taken — or metered — until every lane's has opened
        and checked: a :class:`WireError` leaves the epoch wholly unmerged and
        every frame where it was.
        """
        outcomes: List[ShardOutcome] = []
        opened: List[Tuple[str, _Lane, LaneEpochEnvelope, float]] = []
        for lane in sorted(self._lanes):
            entry = self._lanes[lane]
            if not entry.epochs:
                continue
            reply = entry.epochs[0]
            if reply.epoch != epoch:
                raise WireError(
                    f"lane {lane} results requested for epoch {epoch}, but "
                    f"the next in-flight epoch is {reply.epoch}"
                )
            envelope: LaneEpochEnvelope = reply.result()
            started = time.perf_counter()
            try:
                frame_epoch, lane_outcomes = open_lane_epoch(envelope.frame)
                if frame_epoch != epoch:
                    raise WireError(
                        f"lane {lane} frame is for epoch {frame_epoch}, expected "
                        f"{epoch}; lane frames are merged in submission order"
                    )
            except WireError:
                entry.failed = True
                raise
            decode_seconds = time.perf_counter() - started
            outcomes.extend(lane_outcomes)
            opened.append((str(lane), entry, envelope, decode_seconds))
        metrics = self.metrics
        for lane, entry, envelope, decode_seconds in opened:
            entry.epochs.popleft()
            metrics.histogram(
                "ipc_bytes_per_epoch", buckets=_FRAME_BYTE_BUCKETS, lane=lane
            ).observe(len(envelope.frame))
            metrics.histogram("ipc_encode_seconds", lane=lane).observe(
                envelope.encode_seconds
            )
            metrics.histogram("ipc_decode_seconds", lane=lane).observe(decode_seconds)
            metrics.gauge("lane_gc_collections", lane=lane).set(envelope.gc_collections)
        metrics.counter("ipc_epochs_total").inc()
        self._boundary = epoch + 1
        outcomes.sort(key=lambda outcome: outcome.shard_index)
        return outcomes

    def collect(self) -> List[feed_state.FeedState]:
        """Fetch every live lane's final feed state (run end).  Every order
        must have been merged by now — an epoch a lane ran but the main chain
        never recorded would leave the two diverged."""
        unmerged = sorted(lane for lane, entry in self._lanes.items() if entry.epochs)
        if unmerged:
            raise ReproError(f"lanes {unmerged} still hold unmerged epoch orders")
        replies = [
            self._lanes[lane].send("collect", self._boundary)[0]
            for lane in sorted(self._lanes)
        ]
        return [feed_state.unpack(blob) for reply in replies for blob in reply.result()]

    def shutdown(self) -> None:
        """Stop every lane (see :func:`_stop`): after a normal end each has
        nothing left to send and exits at once; after a failure a lane that
        does not exit in time is terminated."""
        lanes, self._lanes = list(self._lanes.values()), {}
        _stop(lanes)


def shipped_spec(spec: FeedSpec) -> FeedSpec:
    """``spec`` as an install order ships it: without its preload (the
    records travel inside the feed's packed store), and checked to pickle —
    one that cannot (a closure ``consumer_factory``, say) could never follow
    its feed into a lane, so it is the configuration error it is, named by
    feed."""
    if spec.preload is not None:
        spec = replace(spec, preload=None)
    try:
        pickle.dumps(spec)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ConfigurationError(
            "process execution mode ships feed specs to worker lanes, but "
            f"the spec of feed {spec.feed_id!r} cannot be pickled: {exc!r}"
        ) from exc
    return spec
