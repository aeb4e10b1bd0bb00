"""The elastic parallel epoch engine: drive a churning fleet of feeds
concurrently, settle deterministically, respect the block gas limit.

Single-feed GRuB already amortises transaction base cost across the requests
of one epoch.  The scheduler applies the same idea across *tenants*: feeds are
sharded into groups, and at every epoch boundary each shard's outstanding
work is coalesced into

* **one** batched ``deliver`` transaction per shard (the shared watchdog's
  pending requests of every feed in the shard, grouped per feed), and
* **one** grouped ``update`` transaction per shard (every feed's prepared
  epoch update),

both landed through the :class:`~repro.gateway.router.GatewayRouterContract`
and each mined into its own block, so a shard of S feeds pays one 21k
transaction base where S isolated deployments pay up to 2·S per epoch — and
so every settlement block's gas is exactly one shard's batch, the quantity
the shard planner budgets against ``ChainParameters.block_gas_limit``.

**Elastic fleets.** The scheduler is a fleet controller, not a fixed-fleet
loop: :meth:`EpochScheduler.admit` and :meth:`EpochScheduler.evict` queue
tenant arrivals and departures that are applied at epoch boundaries (feeds
never change mid-epoch, so per-epoch accounting stays exact).  An admitted
feed is created in the registry — its handle carries the queue, the read memo
and the bill — and joins the next shard plan; an evicted feed has its pending
deliver requests explicitly cancelled (after a final watchdog poll), its
unexecuted workload operations counted as cancelled, its registry entry
removed (which deregisters its watchdog route; queue and memo go with the
handle) — while its bill stays in the fleet's telemetry as the tenant's final
one.  Feed ids are unique within one run; a departed id may be reused in a
later run, and starts from an empty memo because it is a new handle.

**Shard planning and quotas.** Each epoch's shard plan comes from a
:class:`~repro.gateway.planner.ShardPlanner` — by default the original
round-robin plan, or a :class:`~repro.gateway.planner.GasAwareShardPlanner`
that estimates per-feed epoch gas from trailing telemetry and bin-packs
feeds so every settlement block stays under a configured fraction of the
block gas limit.  Per-tenant quotas live on the :class:`FeedSpec`:
``max_ops_per_epoch`` caps how many of a feed's operations one epoch may
drive, and ``max_gas_per_epoch`` stops driving a feed once its epoch's
driving-phase gas reaches the cap (checked after each operation, so at least
one operation always executes and a throttled tenant still terminates).
Over-quota operations are *deferred*: they stay at the head of the feed's
queue for later epochs and are surfaced as ``deferred_ops`` in telemetry.

**One loop, pluggable execution.** :meth:`EpochScheduler.run` is the only
epoch loop — churn, live ingest, fast-forward, plan, execute, settle feedback
— and it runs over a small executor seam (:class:`_Executor`) that hides just
where an epoch's work executes.  Feeds are independent between settlement
points, so within an epoch the off-chain work of every shard — driving its
feeds' operations, generating the SP's deliver proofs, running each DO's
``prepare_epoch_update`` — can run anywhere.  There are two backends:
``execution_mode="serial"`` (default; :class:`_InlineExecutor`) runs every
shard inline on the calling thread, and ``"process"``
(:class:`_LaneExecutor`) ships whole shards to ``num_workers`` persistent
worker processes (:class:`~repro.gateway.executor.LaneEngine`) that host full
mirrors of their feeds and return per-epoch deltas.  Isolation is structural,
not locked: a lane owns whole shards (so every per-feed object — contracts,
SP store, control plane, read memo, bill, workload queue — is touched by
exactly one interpreter), and the two globally *ordered* chain
structures (the gas ledger and the event log) are deferred into per-shard
:class:`~repro.chain.chain.ExecutionBuffer`\\ s.  Settlement then lands in a
**deterministic merge phase**: buffers are absorbed, transactions submitted
(or, in process mode, the lanes' own receipts recorded through the same block
production), and accounting folded in fixed shard order, so both backends produce
bit-identical telemetry, per-feed gas bills and chain state — they execute
the very same epoch body, :func:`repro.gateway.executor.run_epoch_phases`,
the one place the phase order is written.  Churn processing and shard
planning happen in the loop, on the main process between epochs, from
deterministic inputs, so the guarantee extends to elastic runs (pinned by
``tests/gateway/test_elastic_properties.py`` over both backends).  A feed
reaches a worker lane one way (:meth:`_LaneExecutor._place`): adopted by a
lane that forks at the boundary its plan first assigns it there, else
installed as a packed :class:`~repro.gateway.feed_state.FeedState`.  Between
lanes it moves as a delta against the copy its destination still holds —
the fork copy, or the one it left there — and whole where there is none.  What
:class:`_LaneExecutor` can observe about the run — never an option — decides
only how far ahead of the merge its epochs are ordered.  Its lanes always
fork, and run batch inputs only: a live request source (lockstep epochs,
where lanes lose to serial) is served serially.

Reads are fronted by each feed's read memo (``FeedHandle.memo``): a read of a
key whose verified replica the gateway has already observed is served from
the gateway's full node without re-executing the on-chain ``gGet`` — exactly
like a consumer that keeps its own memo of public chain state — and enters
the feed's read trace where the ``gGet`` would have, so the feed decides as
standalone GRuB does on the same operations.  The memo is additionally
warmed straight from verified deliver payloads: a record the chain just
verified *and replicated* in a deliver batch is public replicated state, so it
is memoised immediately instead of waiting for the first post-deliver read.
Writes and evictions drop the affected entry; keys written during the current
epoch are never memoised until their epoch update lands.  The memo belongs to
the feed, not to a scheduler: whichever scheduler drives the feed next reads
and maintains the same one.

The scheduler never consults a wall clock for scheduling decisions and uses
no randomness, so two runs over the same fleet, workloads and churn schedule
are identical — whatever ``num_workers`` says; ``time.perf_counter`` is only
sampled to report the runtime's own ops/sec.

For the duration of a run the scheduler also owns the interpreter's cyclic
collector (:mod:`repro.gateway.runtime`): the preloaded heap is frozen, and
collection happens between epochs — after settle feedback, and in front of an
idle gateway's blocking poll — never inside one.  The interpreter gets its
collector back, exactly as it was, on every exit path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.chain.transaction import Transaction, TransactionReceipt
from repro.common.errors import ConfigurationError, ReproError
from repro.common.types import Operation
from repro.gateway import feed_state
from repro.gateway.executor import (
    EXECUTION_MODES,
    LaneEngine,
    Settlement,
    ShardOutcome,
    close_feed_bill,
    fork_context,
    ipc_readings,
    ipc_summary,
    run_epoch_phases,
    shipped_spec,
)
from repro.gateway.metrics import FeedTelemetry, FleetTelemetry
from repro.gateway.placement import assign_lanes, plan_moves
from repro.gateway.planner import RoundRobinPlanner, ShardPlanner
from repro.gateway.registry import FeedRegistry, FeedSpec
from repro.gateway.runtime import CollectorOwner
from repro.obs import DISABLED, Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import reassemble_shard_spans
from repro.storage.lsm import LSMStore


class RequestSource:
    """Protocol of the live ingestion seam (duck-typed; this base class only
    documents it — the canonical implementation is the front door in
    :mod:`repro.frontdoor`).

    The scheduler calls, always from its own run thread:

    * ``poll(epoch, wait=...)`` at every epoch boundary — return the eligible
      arrivals as ``{feed_id: [Operation, ...]}``.  With ``wait=True`` the
      gateway is idle: block until the arrivals are worth an epoch (an epoch
      costs its transactions whatever it carries, so the source may gather
      past the first arrival — how long is its policy, not the scheduler's),
      a future epoch is scheduled, or the door closes (then return what there
      is, possibly nothing).  With ``wait=False`` the fleet has queued work:
      return what is eligible at once.
    * ``exhausted`` — ``True`` once the door is closed *and* every accepted
      request has been handed over; the run may then terminate.
    * ``next_epoch(after)`` — the earliest epoch > ``after`` with a scheduled
      arrival, or ``None``; lets an idle run fast-forward instead of spinning.
    * ``settled(epoch, feed_id, executed=…, deferred=…, gas=…)`` — after a
      feed's epoch settles: ``executed`` head-of-queue operations completed
      (resolve that many futures, FIFO), ``deferred`` were pushed to a later
      epoch by quotas, ``gas`` is the feed's settled epoch gas (feed +
      application layers) to attribute across the executed requests.
    * ``evicted(epoch, feed_id)`` — the churn boundary just evicted a tenant
      (its queued operations were dropped and counted as cancelled).  Cancel
      that tenant's outstanding requests *immediately* and reject later ones
      at admission — a client awaiting them would otherwise hold the door
      open for responses that can never settle.  Optional; defaults to a
      no-op for sources that never see churn.
    * ``run_finished(fleet, error)`` — the run is over: normally
      (``error is None``), or unwinding ``error``.  Stop admitting, and resolve
      every still-pending future — with the error when there is one — instead
      of leaving clients hanging.

    Everything the scheduler is told is epoch indices and queue positions —
    never a wall clock — so a scripted request sequence reproduces
    bit-identically; how long an idle ``poll`` gathers decides only *when* a
    boundary happens, that is, which boundary catches a request racing it.
    """

    def poll(self, epoch: int, *, wait: bool) -> Mapping[str, Sequence[Operation]]:
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        raise NotImplementedError

    def next_epoch(self, after: int) -> Optional[int]:
        raise NotImplementedError

    def settled(
        self, epoch: int, feed_id: str, *, executed: int, deferred: int, gas: int
    ) -> None:
        raise NotImplementedError

    def evicted(self, epoch: int, feed_id: str) -> None:
        """Optional hook; sources that never face churn can ignore it."""

    def run_finished(
        self, fleet: FleetTelemetry, error: Optional[BaseException] = None
    ) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class Admission:
    """One queued tenant arrival, applied at the first boundary ≥ ``at_epoch``."""

    spec: FeedSpec
    operations: Tuple[Operation, ...]
    at_epoch: int = 0


@dataclass(frozen=True)
class Eviction:
    """One queued tenant departure; the feed does not run epoch ``at_epoch``."""

    feed_id: str
    at_epoch: int = 0


class EpochScheduler:
    """Drives hosted feeds epoch-by-epoch with sharded off-chain execution,
    cross-feed batched settlement and epoch-boundary tenant churn."""

    def __init__(
        self,
        registry: FeedRegistry,
        *,
        num_shards: int = 1,
        num_workers: int = 1,
        epoch_size: Optional[int] = None,
        planner: Optional[ShardPlanner] = None,
        execution_mode: str = "serial",
        obs: Optional[Observability] = None,
    ) -> None:
        if num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        if num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")
        if execution_mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"unknown execution_mode {execution_mode!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        if execution_mode == "serial" and num_workers != 1:
            raise ConfigurationError(
                "execution_mode='serial' runs every shard on the calling "
                "thread, so num_workers must be 1; for more workers pass "
                "execution_mode=\"process\" (num_workers worker-process lanes)"
            )
        if execution_mode == "process":
            fork_context()
        if planner is not None and num_shards != 1:
            raise ConfigurationError(
                "num_shards only configures the default round-robin planner; "
                "with an explicit planner, configure sharding on the planner"
            )
        if epoch_size is not None and epoch_size <= 0:
            raise ConfigurationError("epoch_size must be positive when given")
        self.registry = registry
        self.num_shards = num_shards
        #: How the per-shard phases execute: ``"serial"`` runs them inline,
        #: ``"process"`` ships them to ``num_workers`` persistent worker
        #: processes.  Both merge in fixed shard order and produce
        #: bit-identical output.
        self.execution_mode = execution_mode
        #: Process lanes for the per-shard off-chain phases (1 in serial
        #: mode).  Results are always folded in shard order, so this only
        #: affects wall-clock speed, never any output.
        self.num_workers = num_workers
        self._epoch_size = epoch_size
        #: The per-epoch shard planner; defaults to the gas-oblivious
        #: round-robin plan over ``num_shards``.
        self.planner: ShardPlanner = (
            planner if planner is not None else RoundRobinPlanner(num_shards)
        )
        #: The observability plane (:mod:`repro.obs`).  Defaults to the shared
        #: disabled instance, so untraced schedulers pay only pointer tests.
        #: Strictly observation-only — nothing recorded through it feeds back
        #: into planning, gas or state, which keeps fingerprints bit-identical
        #: with it on or off, across every backend.
        self.obs = obs if obs is not None else DISABLED
        if self.obs.enabled:
            self.registry.chain.obs = self.obs
            self.planner.obs = self.obs
        #: The current (or latest) run's telemetry, for the memo gauges.
        self._fleet = FleetTelemetry()
        if self.obs.enabled:
            # Pull-style: the bills' counters are copied into gauges at
            # snapshot time, so the hot path stays untouched.
            self.obs.registry.register_collector(self._collect_cache_metrics)
        self._admission_queue: List[Admission] = []
        self._eviction_queue: List[Eviction] = []
        self.epochs_run = 0

    # -- sharding -------------------------------------------------------------

    def shards(self, feed_ids: Sequence[str]) -> List[List[str]]:
        """The plan ``self.planner`` would produce for ``feed_ids`` right now.

        A convenience view over the configured planner (round-robin by
        default); the run itself asks the planner for a fresh plan every
        epoch, so this reflects what the next epoch would actually settle
        under — whatever planner is configured.
        """
        return self.planner.plan(
            feed_ids, block_gas_limit=self.registry.chain.parameters.block_gas_limit
        )

    def epoch_size_for(self, feed_ids: Sequence[str]) -> int:
        """The lockstep epoch size: explicit, or the largest feed epoch size
        across the initial fleet and every queued admission."""
        if self._epoch_size is not None:
            return self._epoch_size
        sizes = [
            self.registry.get(feed_id).system.config.epoch_size for feed_id in feed_ids
        ]
        sizes.extend(
            admission.spec.config.epoch_size for admission in self._admission_queue
        )
        return max(sizes) if sizes else 32

    # -- fleet controller (admission queue) -----------------------------------

    def admit(
        self,
        spec: FeedSpec,
        operations: Iterable[Operation],
        *,
        at_epoch: int = 0,
    ) -> None:
        """Queue a tenant arrival: the feed joins at the first epoch boundary
        with index ≥ ``at_epoch`` and runs its ``operations`` from there."""
        if at_epoch < 0:
            raise ConfigurationError("at_epoch must be non-negative")
        self._require_batch_deliver(spec)
        if any(a.spec.feed_id == spec.feed_id for a in self._admission_queue):
            # Feed ids are unique per run, so a second admission could never
            # apply — fail fast here instead of aborting mid-run.
            raise ConfigurationError(
                f"admission of {spec.feed_id!r} is already queued"
            )
        self._admission_queue.append(Admission(spec, tuple(operations), at_epoch))

    def evict(self, feed_id: str, *, at_epoch: int = 0) -> None:
        """Queue a tenant departure: the feed does not participate in epoch
        ``at_epoch`` or any later one.  Unexecuted workload operations are
        cancelled and counted; the final telemetry row and gas bill remain.

        An eviction dated before its feed's admission defers until the feed
        arrives (the tenant then joins and immediately leaves); evicting a
        feed the gateway never hosts fails the run loudly at apply time."""
        if at_epoch < 0:
            raise ConfigurationError("at_epoch must be non-negative")
        if any(eviction.feed_id == feed_id for eviction in self._eviction_queue):
            # Feed ids are unique per run, so a second eviction could never
            # apply — fail fast here instead of aborting mid-run.
            raise ConfigurationError(f"eviction of {feed_id!r} is already queued")
        self._eviction_queue.append(Eviction(feed_id, at_epoch))

    @property
    def pending_churn(self) -> int:
        """Queued admissions plus evictions not yet applied."""
        return len(self._admission_queue) + len(self._eviction_queue)

    def _next_churn_epoch(self) -> int:
        """The earliest epoch a queued churn event can fire at.

        Evictions whose feed has a queued admission are covered by that
        admission's epoch (they defer until the feed arrives); every other
        queued event contributes its own ``at_epoch``.  Only called while
        churn is pending.
        """
        admit_ids = {a.spec.feed_id for a in self._admission_queue}
        epochs = [a.at_epoch for a in self._admission_queue]
        epochs.extend(
            e.at_epoch for e in self._eviction_queue if e.feed_id not in admit_ids
        )
        return min(epochs)

    def _require_batch_deliver(self, spec: FeedSpec) -> None:
        if not spec.config.batch_deliver:
            raise ConfigurationError(
                f"feed {spec.feed_id!r}: the gateway settles delivers at epoch "
                "boundaries; per-request delivery (batch_deliver=False) is "
                "a single-feed ablation mode"
            )

    def _apply_churn(
        self,
        epoch: int,
        active: List[str],
        fleet: FleetTelemetry,
        executor: "_Executor",
        source: Optional["RequestSource"] = None,
    ) -> None:
        """Apply every due arrival, then every due departure, in queue order.

        Arrivals first makes an admit/evict pair due at the same boundary
        well-defined: the tenant joins and immediately leaves (its whole
        workload cancelled) instead of the eviction failing on a feed that
        does not exist yet.

        An admission is pure main-side work in every mode: the feed is created
        — preload and all — against the main chain, and (in process mode) stays
        main-hosted until its first plan assigns it a lane.
        """
        due_admissions = [a for a in self._admission_queue if a.at_epoch <= epoch]
        for admission in due_admissions:
            self._admission_queue.remove(admission)
            spec = admission.spec
            if spec.feed_id in fleet.feeds:
                raise ConfigurationError(
                    f"feed id {spec.feed_id!r} was already hosted in this run; "
                    "ids are unique per run (reuse is allowed across runs)"
                )
            self._require_batch_deliver(spec)
            handle = self.registry.create_feed(spec)
            handle.begin_run(admission.operations)
            handle.bill.admitted_epoch = epoch
            self._wire_feed_obs(spec.feed_id)
            active.append(spec.feed_id)
            fleet.feeds[spec.feed_id] = handle.bill
            fleet.admissions += 1
        due_evictions = [e for e in self._eviction_queue if e.at_epoch <= epoch]
        for eviction in due_evictions:
            feed_id = eviction.feed_id
            telemetry = fleet.feeds.get(feed_id)
            if (telemetry is not None and telemetry.departed) or feed_id not in self.registry:
                if any(a.spec.feed_id == feed_id for a in self._admission_queue):
                    # The eviction outran its feed's admission; leave it
                    # queued — it fires the boundary the feed arrives (the
                    # tenant joins and immediately leaves).
                    continue
                raise ConfigurationError(
                    f"cannot evict {feed_id!r}: "
                    + (
                        "the feed already departed this run"
                        if telemetry is not None and telemetry.departed
                        else "not hosted by the gateway"
                    )
                )
            self._eviction_queue.remove(eviction)
            # Whoever hosts the live mirror cancels the tenant's undelivered
            # requests and unexecuted operations; the bill that comes back is
            # final.  (A feed registered but idle this run — no workload — is
            # still a real departure: its bill is the empty one the run's
            # start gave it.)
            fleet.feeds[feed_id] = executor.retire(feed_id, epoch)
            if feed_id in active:
                active.remove(feed_id)
            fleet.departures += 1
            self.planner.forget(feed_id)
            # Deregisters the watchdog route and frees the on-chain addresses;
            # the feed's queue and memo go with its handle.
            self.registry.remove_feed(feed_id)
            if source is not None:
                # A live source must cancel the tenant's outstanding requests
                # now — their operations just left the queue for good.
                source.evicted(epoch, feed_id)

    # -- observability plumbing -----------------------------------------------

    def _collect_cache_metrics(self, registry) -> None:
        """Pull collector: the run's memo traffic, from its bills, and the
        entries the hosted feeds' memos hold, as gauges."""
        fleet = self._fleet
        registry.gauge("cache_hits").set(fleet.cache_hits)
        registry.gauge("cache_misses").set(fleet.cache_lookups - fleet.cache_hits)
        registry.gauge("cache_hit_rate").set(fleet.cache_hit_rate)
        registry.gauge("cache_entries").set(
            sum(len(handle.memo) for handle in self.registry.handles)
        )

    def _wire_feed_obs(self, feed_id: str) -> None:
        """Attach the obs hook to a feed's LSM store backing (if it has one)."""
        if not self.obs.enabled:
            return
        backing = self.registry.get(feed_id).system.sp_store.backing
        if isinstance(backing, LSMStore):
            backing.obs = self.obs

    # -- the fleet run --------------------------------------------------------

    def run(
        self,
        workloads: Optional[Mapping[str, Sequence[Operation]]] = None,
        *,
        source: Optional["RequestSource"] = None,
    ) -> FleetTelemetry:
        """Drive the fleet through the gateway, epoch by epoch, until every
        workload (initial and admitted) is executed or cancelled and no churn
        events remain queued.

        ``workloads`` maps feed id → operation sequence for feeds registered
        before the run; tenants joining mid-run bring their workloads through
        :meth:`admit`.  All feeds advance in lockstep: each epoch takes up to
        ``epoch_size`` operations from the head of every active feed's queue
        (fewer under quota); feeds whose queue is exhausted simply stop
        contributing operations (their empty epochs send no transactions).

        ``source`` is the **live ingestion seam**: an object implementing the
        :class:`RequestSource` protocol (the front door in
        :mod:`repro.frontdoor` is the canonical one).  When given, every epoch
        boundary drains the source's eligible arrivals into the per-feed
        queues *before* the epoch runs, and after the epoch settles the source
        is told, per feed, how many head-of-queue operations executed and what
        the epoch's gas bill was — which is exactly what it needs to resolve
        request futures in FIFO order with per-request gas attribution.  An
        idle gateway with the door still open blocks on ``poll(wait=True)``
        instead of terminating, so live traffic can arrive at any boundary;
        the run ends once the source is exhausted, every queue is drained and
        no churn remains.  The seam replaces nothing: a source-less ``run``
        is the unchanged deterministic batch path.  In process mode a
        ``source`` is a :class:`ConfigurationError`, raised before any lane
        starts.

        This is the only epoch loop — monitor, decide, replicate, settle —
        whatever ``execution_mode`` says: where an epoch's work executes (and
        where a feed's queue lives meanwhile) is behind the small
        :class:`_Executor` seam, so churn, fast-forward, planning and settle
        feedback are the same code, in the same order, for every backend.
        """
        if source is not None and self.execution_mode == "process":
            raise ConfigurationError(
                "a live request source is served with execution_mode='serial': "
                "it forces one lockstep epoch per lane order, where process "
                "lanes lose to serial"
            )
        epoch_size, active, fleet = self._prepare_run(workloads, source=source)
        self._fleet = fleet
        for feed_id in active:
            self._wire_feed_obs(feed_id)

        chain = self.registry.chain
        blocks_before = chain.height
        wall_start = time.perf_counter()
        if self.execution_mode == "process":
            # Nothing queued or observed can change the plan mid-run: it may
            # be placed once, and its epochs ordered ahead.
            static = not self.pending_churn and isinstance(
                self.planner, RoundRobinPlanner
            )
            executor: _Executor = _LaneExecutor(
                self, epoch_size, fleet, static=static
            )
        else:
            executor = _InlineExecutor(self, epoch_size, fleet)
        epoch = 0
        # The run owns the collector from here — what preload built is frozen
        # before any lane forks — and collects between epochs, until whatever
        # state lives in lanes is folded back.
        with CollectorOwner(self.obs) as collector:
            error: Optional[BaseException] = None
            try:
                with self.obs.span("run", mode=self.execution_mode):
                    while True:
                        self._apply_churn(epoch, active, fleet, executor, source)
                        if source is not None:
                            # Drain eligible live arrivals into the queues.  An
                            # idle gateway (no queued work, no pending churn)
                            # blocks here until traffic arrives, a future epoch
                            # is scheduled, or the door closes — a live server
                            # waits for requests, it does not exit.
                            idle = not self.pending_churn and not any(
                                executor.depth(f) for f in active
                            )
                            if idle:
                                collector.boundary(insure=True)
                            self._ingest(source.poll(epoch, wait=idle))
                        has_work = any(executor.depth(f) for f in active)
                        door_open = source is not None and not source.exhausted
                        if not self.pending_churn and not has_work and not door_open:
                            break
                        if not has_work:
                            # Every queue is idle; the run is only waiting out the
                            # epochs until the next churn event or the earliest
                            # scheduled live arrival.  Jump straight there (O(1)
                            # per wait, however far off) — no summaries, no
                            # polling, no blocks, no roster entries for the
                            # skipped span, whose membership cannot change.
                            targets = []
                            if self.pending_churn:
                                targets.append(self._next_churn_epoch())
                            if door_open:
                                scheduled = source.next_epoch(epoch)
                                if scheduled is not None:
                                    targets.append(scheduled)
                            epoch = (
                                max(epoch + 1, min(targets)) if targets else epoch + 1
                            )
                            continue
                        shard_plan = self.shards(active)
                        fleet.rosters.append((epoch, sorted(active)))
                        fleet.shards_per_epoch.append(len(shard_plan))
                        # Queue depths at the boundary: with a live source, each
                        # feed's planned slice (head-of-queue, capped by the
                        # lockstep epoch size) derives from these.
                        queued_before = (
                            {feed_id: executor.depth(feed_id) for feed_id in active}
                            if source is not None
                            else None
                        )
                        settled = executor.run_epoch(epoch, shard_plan)
                        # Settle feedback, in roster order: the settled gas feeds
                        # the shard planner's estimates, and a live source learns
                        # what ran so it can resolve its futures.
                        for feed_id in active:
                            executed, epoch_gas = settled[feed_id]
                            self.planner.observe(feed_id, epoch_gas)
                            if source is not None:
                                planned = min(queued_before[feed_id], epoch_size)
                                source.settled(
                                    epoch,
                                    feed_id,
                                    executed=executed,
                                    deferred=planned - executed,
                                    gas=epoch_gas,
                                )
                        collector.boundary(insure=source is not None)
                        epoch += 1
                executor.finish()
            except BaseException as unwinding:
                error = unwinding
                raise
            finally:
                executor.close()
                if source is not None:
                    source.run_finished(fleet, error)

        fleet.wall_seconds = time.perf_counter() - wall_start
        fleet.epochs_run = epoch
        fleet.blocks_mined = chain.height - blocks_before
        self.epochs_run += epoch
        return fleet

    def _prepare_run(
        self,
        workloads: Optional[Mapping[str, Sequence[Operation]]],
        source: Optional["RequestSource"] = None,
    ) -> Tuple[int, List[str], FleetTelemetry]:
        """The run prologue: validate the workload map against the registry
        and start the run on every registered handle — its workload queued
        (empty for a feed ``workloads`` does not name) and a fresh bill.

        With a live ``source``, *every* registered feed is active from epoch 0
        (each may receive requests at any boundary), with an empty queue
        unless ``workloads`` pre-seeds it; the equivalent batch run passes a
        workloads map with one (possibly empty) entry per feed.
        """
        workloads = dict(workloads) if workloads else {}
        if source is not None:
            feed_ids = list(self.registry.feed_ids)
        else:
            feed_ids = [
                feed_id for feed_id in self.registry.feed_ids if feed_id in workloads
            ]
        missing = set(workloads) - set(feed_ids)
        if missing:
            raise ConfigurationError(
                f"workloads for unregistered feeds: {sorted(missing)}"
            )
        for feed_id in feed_ids:
            self._require_batch_deliver(self.registry.get(feed_id).spec)
        for handle in self.registry.handles:
            handle.begin_run(workloads.get(handle.feed_id, ()))
        epoch_size = self.epoch_size_for(feed_ids)
        active = list(feed_ids)
        fleet = FleetTelemetry(
            feeds={feed_id: self.registry.get(feed_id).bill for feed_id in active}
        )
        return epoch_size, active, fleet

    def _ingest(self, arrivals: Mapping[str, Sequence[Operation]]) -> None:
        """Append one boundary's live arrivals to the per-feed queues (a live
        run is serial, so every queue is on its main-registry handle).

        Arrivals join at the *tail*, behind anything still queued (deferred or
        not-yet-scheduled operations), preserving each feed's FIFO order —
        the order the front door resolves request futures in.  A request for
        a feed the gateway does not currently host is a front-door bug (its
        middleware rejects unknown tenants), so it fails the run loudly.
        """
        for feed_id in sorted(arrivals):
            operations = arrivals[feed_id]
            if not operations:
                continue
            if feed_id not in self.registry:
                raise ConfigurationError(
                    f"live request for feed {feed_id!r}, which the gateway "
                    "does not currently host — the request source must "
                    "reject unknown or departed tenants at admission"
                )
            self.registry.get(feed_id).queue.extend(operations)


def _raise_if_reverted(receipt: TransactionReceipt) -> None:
    """Fail loudly if a settlement batch reverted.

    The batched transaction reverts atomically on chain, but the hosted DOs'
    off-chain state (trusted roots, SP stores) has already advanced by the
    time the batch lands — continuing would leave those feeds diverged from
    their on-chain digests forever, so a reverted batch is a hosting-runtime
    bug worth stopping the run for.
    """
    if not receipt.success:
        transaction = receipt.transaction
        raise ReproError(
            f"gateway {transaction.function} reverted "
            f"(feeds {sorted(transaction.scopes or {})}): {receipt.error}"
        )


def _settled(
    fleet: FleetTelemetry, outcomes: Sequence[ShardOutcome]
) -> Dict[str, Tuple[int, int]]:
    """Count the deliver and update batches one epoch's shards landed, and
    return feed id → ``(operations executed, settled epoch gas)`` over them —
    whichever process ran the shards."""
    settled: Dict[str, Tuple[int, int]] = {}
    for outcome in outcomes:
        if outcome.deliver is not None:
            fleet.deliver_batches += 1
        if outcome.update is not None:
            fleet.update_batches += 1
        settled.update(outcome.settled)
    return settled


class _Executor:
    """Where an epoch's work executes — the whole of what the epoch loop's
    backends differ in.  Private to :meth:`EpochScheduler.run`, which creates
    one per run; the base class only documents the seam.

    The coordinator (the loop) decides — churn, ingest, plan, settle
    feedback; an executor only executes, and owns where each feed's live
    mirror and workload queue sit while it does.
    """

    def __init__(
        self,
        scheduler: EpochScheduler,
        epoch_size: int,
        fleet: FleetTelemetry,
    ) -> None:
        self.obs = scheduler.obs
        self.registry = scheduler.registry
        self.epoch_size = epoch_size
        self.fleet = fleet

    def depth(self, feed_id: str) -> int:
        """Operations still queued for an active feed."""
        raise NotImplementedError

    def retire(self, feed_id: str, epoch: int) -> FeedTelemetry:
        """Retire an evicted feed's live mirror: cancel and count its
        undelivered requests and queued operations, return its final bill."""
        raise NotImplementedError

    def run_epoch(
        self, epoch: int, shard_plan: List[List[str]]
    ) -> Dict[str, Tuple[int, int]]:
        """Execute and settle one lockstep epoch under ``shard_plan``;
        returns feed id → ``(operations executed, settled epoch gas)``."""
        raise NotImplementedError

    def finish(self) -> None:
        """The run completed: fold whatever state lives elsewhere back into
        the main registry's mirrors."""

    def close(self) -> None:
        """Release workers (always called, also after a failed run)."""


class _InlineExecutor(_Executor):
    """Runs every shard's phases in this process, on the calling thread,
    against the main registry (``"serial"``)."""

    def depth(self, feed_id: str) -> int:
        return len(self.registry.get(feed_id).queue)

    def retire(self, feed_id: str, epoch: int) -> FeedTelemetry:
        return close_feed_bill(self.registry, feed_id, epoch, poll=True)

    def _settle(self, transaction: Transaction) -> TransactionReceipt:
        """Land one shard's batch; a reverted one stops the run."""
        receipt = self.registry.chain.land(transaction)
        _raise_if_reverted(receipt)
        return receipt

    def run_epoch(
        self, epoch: int, shard_plan: List[List[str]]
    ) -> Dict[str, Tuple[int, int]]:
        with self.obs.span("epoch", epoch=epoch):
            outcomes = run_epoch_phases(
                self.registry,
                list(enumerate(shard_plan)),
                epoch,
                self.epoch_size,
                settle=self._settle,
                tracer=self.obs.tracer,
                phase=self.obs.phase,
            )
        return _settled(self.fleet, outcomes)


class _LaneExecutor(_Executor):
    """Runs epochs on worker-process lanes (``"process"``): each lane hosts
    full mirrors of its feeds and executes whole epochs locally, shipping
    back only the per-epoch deltas — the driving phase's execution buffer and
    each settlement's receipt plus gas delta — which the main chain records
    in fixed shard order, bit-identical to an inline run.

    A feed is hosted by the main process (created, its queue on its handle)
    until an epoch's plan first assigns it a lane; from then on the lane's
    copy is the live one — the main mirror stays as the feed left it, until
    the run-end state lands on it — and ``remaining`` mirrors its queue
    depth: each merged epoch takes off the operations it executed.  Every
    plan is placed the one way :meth:`_place` describes; what the run
    shows, never an option, decides only how epochs are ordered:

    * a **static** run — no queued churn and a :class:`RoundRobinPlanner`,
      so the plan never changes — is placed once and ordered ahead of the
      merge (:meth:`_order_ahead`), each lane streaming an epoch's frame as
      it packs it;
    * every other run is placed and ordered one lockstep epoch at a time —
      the next plan depends on this epoch's settled gas.

    The engine counts lane traffic on every run — on the obs plane, or on a
    registry of the run's own — and ``FleetTelemetry.ipc`` is what the
    counters gained during the run (never fingerprinted).
    """

    def __init__(self, scheduler: EpochScheduler, *run_state, static: bool) -> None:
        super().__init__(scheduler, *run_state)
        self.num_workers = scheduler.num_workers
        #: The planner's per-feed load estimate (uniform when it keeps none).
        self._estimate = getattr(scheduler.planner, "estimate", lambda feed_id: 1.0)
        self._static = static
        #: Static runs only: the run's one placement (lane → its shards) and
        #: the epochs ordered so far (``[0, _submitted)``).
        self._assignments: Optional[Dict[int, List[Tuple[int, List[str]]]]] = None
        self._submitted = 0
        #: feed id → the lane hosting its live mirror.  An active feed absent
        #: from it is still hosted by the main process: an initial feed before
        #: its first executed epoch, or an admission awaiting its first plan.
        self.feed_lane: Dict[str, int] = {}
        #: Lane-hosted feeds' queue depths, as of the last merged epoch.
        self.remaining: Dict[str, int] = {}
        metrics = self.obs.registry if self.obs.enabled else MetricsRegistry()
        self.engine = LaneEngine(
            self.num_workers, self.registry, metrics, obs_enabled=self.obs.enabled
        )
        #: Where the boundary's instruments stood as the run began.
        self._ipc_start = ipc_readings(metrics)

    def depth(self, feed_id: str) -> int:
        if feed_id in self.feed_lane:
            return self.remaining[feed_id]
        return len(self.registry.get(feed_id).queue)

    def retire(self, feed_id: str, epoch: int) -> FeedTelemetry:
        lane = self.feed_lane.pop(feed_id, None)
        if lane is None:
            # Still main-hosted (admitted this very boundary, or never ran an
            # epoch): the serial accounting on the main structures, minus
            # the poll (see :func:`close_feed_bill`).
            return close_feed_bill(self.registry, feed_id, epoch, poll=False)
        # The lane owns the live mirror — its boundary poll, request
        # cancellation and queue counting happen there.
        del self.remaining[feed_id]
        return self.engine.teardown(lane, feed_id, epoch)

    def _snapshot_feed(self, feed_id: str) -> bytes:
        """Detach a main-hosted feed as the packed state a running lane
        installs — whole, as the main mirror's version, which its run-end
        state is then cut against.  The main mirror stays registered (the
        merge path records settlements against its addresses) and unchanged
        until that run-end state lands."""
        return feed_state.detach(self.registry.get(feed_id))

    def run_epoch(
        self, epoch: int, shard_plan: List[List[str]]
    ) -> Dict[str, Tuple[int, int]]:
        if self._static:
            self._order_ahead(epoch, shard_plan)
        else:
            self.engine.submit(epoch, 1, self.epoch_size, self._place(shard_plan))
        settled = _settled(self.fleet, self._merge_lane_epoch(epoch))
        for feed_id, (executed, _) in settled.items():
            # The lane popped exactly ``executed`` operations off its queue.
            self.remaining[feed_id] -= executed
        return settled

    def _order_ahead(self, epoch: int, shard_plan: List[List[str]]) -> None:
        """Static runs: keep every lane ordered with all the epochs the
        remaining workloads guarantee, so the merge runs behind the lanes —
        each lane sends an epoch's frame as soon as it is packed, and epoch
        *n* merges while the lanes run epoch *n + 1*.

        A feed with ``r`` queued operations needs at least
        ``ceil(r / epoch_size)`` more epochs — quotas and gas caps can only
        *reduce* per-epoch consumption, never raise it — so that many epochs
        past this one are certain to run and safe to order.  A merge shrinks
        the bound by at most one (the epoch just merged), so the target never
        drops below what is already ordered: every ordered epoch is merged
        and the run ends with none orphaned.
        """
        if self._assignments is None:
            # Round-robin over a static fleet is per-epoch stable, so the
            # first epoch's placement is the run's.
            self._assignments = self._place(shard_plan)
        target = epoch + max(
            -(-count // self.epoch_size) for count in self.remaining.values()
        )
        if self._submitted < target:
            self.engine.submit(
                self._submitted, target - self._submitted, self.epoch_size,
                self._assignments,
            )
            self._submitted = target

    def _place(
        self, shard_plan: List[List[str]]
    ) -> Dict[int, List[Tuple[int, List[str]]]]:
        """Map a plan onto the lanes and move the feeds it places anew or
        regrouped; returns lane → its ``(shard_index, feed_ids)``.

        Placement keeps state where it lives
        (:func:`~repro.gateway.placement.assign_lanes`: a shard goes to the
        live lane already hosting most of its feeds, within a load-balance
        cap on the planner's estimates), so only a main-hosted feed, one the
        plan really regrouped, or one on a retiring lane moves.  A move from
        the main process into a lane spawned at this boundary is an
        *adoption*: the lane forks with the feed as it stands (its LSM
        opener closed first, for the lane to reopen).  Every other move is
        an install — all of them as one migrate-out order per
        source lane and one install order per destination lane, with the
        epoch order queued behind the installs without waiting for them.
        Lanes the plan no longer needs retire once drained.

        Every feed's first placement checks the spec it would travel with,
        adopted or not, so a spec that cannot cross fails here, naming the
        feed (:func:`~repro.gateway.executor.shipped_spec`).
        """
        engine = self.engine
        feed_lane = self.feed_lane
        desired = max(1, min(self.num_workers, len(shard_plan)))
        shard_lanes = assign_lanes(shard_plan, desired, feed_lane, self._estimate)
        moves = plan_moves(shard_plan, shard_lanes, feed_lane, desired)
        spawning = set(range(desired)) - set(engine.lanes)
        adopts: Dict[int, List[str]] = {}
        installs = []
        for move in moves:
            if move.source is None:
                handle = self.registry.get(move.feed_id)
                shipped_spec(handle.spec)
                self.remaining[move.feed_id] = len(handle.queue)
                # Closed before any lane forks, so no fork copy of it holds
                # an opener: whichever lane re-hosts one reopens the directory.
                feed_state.close_store(handle)
                if move.destination in spawning:
                    adopts.setdefault(move.destination, []).append(move.feed_id)
                    continue
            installs.append(move)
        engine.ensure_lanes(desired, adopts)
        engine.transfer(installs, self._snapshot_feed)
        for move in moves:
            feed_lane[move.feed_id] = move.destination
        engine.retire_lanes(desired)
        assignments: Dict[int, List[Tuple[int, List[str]]]] = {}
        for shard_index, shard in enumerate(shard_plan):
            assignments.setdefault(shard_lanes[shard_index], []).append(
                (shard_index, list(shard))
            )
        return assignments

    def _merge_lane_epoch(self, epoch: int) -> List[ShardOutcome]:
        """Merge one ordered epoch's lane results into the main chain.

        Deterministic merge, mirroring the inline phase order: every shard's
        drive buffer (events stamped at this epoch's starting height), then
        one recorded block per shard deliver, then one per shard update — all
        in fixed shard order.  The lanes' per-shard phase spans graft under
        this epoch in fixed shard order, before the merge span, so the trace
        tree reads in canonical phase order.  Returns the lanes' shard
        outcomes in shard order.
        """
        chain = self.registry.chain
        with self.obs.span("epoch", epoch=epoch) as epoch_span:
            outcomes = self.engine.results(epoch)
            self._graft_lane_spans(epoch_span, outcomes)
            with self.obs.phase("merge", epoch=epoch):
                for outcome in outcomes:
                    chain.absorb(outcome.drive)
                for outcome in outcomes:
                    if outcome.deliver is not None:
                        self._record_settlement(outcome.deliver)
                for outcome in outcomes:
                    if outcome.update is not None:
                        self._record_settlement(outcome.update)
        return outcomes

    def finish(self) -> None:
        # Every surviving lane feed's final state folds back into the main
        # mirrors — the same apply a lane installs an arriving feed with — so
        # post-run inspection (contract storage, roots, bills, memos) sees
        # serial-identical state.  An adopted feed's state patches the
        # mirror's store with what the run changed; an installed feed's
        # replaces it.  The bill that came back is the fleet's row.
        for state in self.engine.collect():
            handle = self.registry.get(state.feed_id)
            feed_state.apply(handle, state)
            self.fleet.feeds[state.feed_id] = handle.bill
        # The lanes routed this run's request events on their own chains; the
        # main watchdog must not replay them into the next run.
        self.registry.watchdog.skip_to_end()
        self.fleet.ipc = ipc_summary(self.engine.metrics, self._ipc_start)

    def close(self) -> None:
        self.engine.shutdown()

    def _graft_lane_spans(self, epoch_span, outcomes) -> None:
        """Fold the lanes' per-shard phase spans into the main trace tree.

        Spans arrive as themselves on each lane's ``ShardOutcome`` (like
        the drive buffers); they are grafted under per-phase parents in
        fixed shard order, and each shard span's duration feeds the phase
        latency histograms — in process mode the phase's real time lives in
        the lanes, so that is where the percentiles must come from.
        """
        if epoch_span is None:
            return
        phase_parents = reassemble_shard_spans(
            epoch_span,
            [(outcome.shard_index, outcome.spans) for outcome in outcomes],
            lane_of=self.engine.lane_of,
        )
        for parent in phase_parents:
            for span in parent.children:
                self.obs.observe_phase(
                    str(span.attrs.get("phase", span.name)), span.duration
                )

    def _record_settlement(self, settlement: Settlement) -> None:
        """Record one lane-executed settlement on the main chain: its receipt
        in a block of its own, its exact gas delta merged, and a reverted
        batch failing loudly — as the inline executor's would."""
        receipt, ledger_delta = settlement
        chain = self.registry.chain
        chain.mine_recorded_block(receipt)
        chain.ledger.merge(ledger_delta)
        _raise_if_reverted(receipt)
