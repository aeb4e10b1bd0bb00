"""The GRuB system facade: wire the substrates together and drive workloads.

:class:`GrubSystem` assembles a blockchain, a storage-manager contract, a DU
contract, the off-chain SP with its authenticated store, and the DO with its
control plane, and exposes a single :meth:`GrubSystem.run` that drives a
workload (a sequence of :class:`~repro.common.types.Operation`) through the
whole stack epoch by epoch, returning a :class:`RunReport` with the gas series
the paper's figures plot.

The epoch loop models the paper's deployment:

1. Within an epoch, writes are buffered locally by the DO (no gas yet), while
   reads execute on chain immediately (they are internal calls of DU
   transactions that exist regardless of the feed): a read either hits an
   on-chain replica or emits a ``request`` event.
2. At the end of the epoch, the SP's watchdog answers all outstanding
   requests with a ``deliver`` transaction (batched by default), the DO runs
   the control plane and submits the epoch's ``update`` transaction, and a
   block is mined.

Gas is attributed to the feed layer or the application layer; the per-epoch
gas of the feed layer divided by the number of operations in the epoch is the
"Gas per operation" metric of the paper's time-series figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.chain.chain import Blockchain
from repro.chain.gas import LAYER_FEED
from repro.common.clock import SimulatedClock
from repro.common.errors import ConfigurationError
from repro.common.types import (
    EpochSummary,
    KVRecord,
    Operation,
    OperationKind,
    ReplicationState,
)
from repro.core.config import GrubConfig
from repro.core.consistency import ConsistencyModel
from repro.core.control_plane import ControlPlane, DecisionActuator, WorkloadMonitor
from repro.core.data_consumer import DataConsumerContract
from repro.core.data_owner import DataOwner
from repro.core.decision.base import CostModel, make_algorithm
from repro.core.service_provider import ServiceProvider
from repro.core.storage_manager import StorageManagerContract


@dataclass
class RunReport:
    """Results of driving one workload through a system."""

    system_name: str
    operations: int = 0
    reads: int = 0
    writes: int = 0
    epochs: List[EpochSummary] = field(default_factory=list)
    gas_feed: int = 0
    gas_application: int = 0
    replications: int = 0
    evictions: int = 0
    deliveries: int = 0
    update_transactions: int = 0
    gas_by_category: Dict[str, int] = field(default_factory=dict)

    @property
    def gas_total(self) -> int:
        return self.gas_feed + self.gas_application

    @property
    def gas_per_operation(self) -> float:
        if self.operations == 0:
            return 0.0
        return self.gas_feed / self.operations

    def epoch_series(self) -> List[float]:
        """Per-epoch feed gas per operation (the Y series of the paper's figures)."""
        return [epoch.gas_per_operation for epoch in self.epochs]

    def saving_versus(self, other: "RunReport") -> float:
        """Fractional gas saving of this run compared to ``other`` (positive = cheaper)."""
        if other.gas_feed == 0:
            return 0.0
        return 1.0 - self.gas_feed / other.gas_feed


class GrubSystem:
    """A fully wired GRuB deployment driven by workload operations.

    By default the system owns its blockchain (the paper's single-feed
    deployment).  The multi-tenant gateway instead passes a shared ``chain``
    plus a ``feed_id``: every component address is then namespaced under the
    feed id, all gas the feed causes is billed to the feed's scope, and
    ``gateway`` authorises the gateway's router contract to land this feed's
    epoch updates inside batched cross-feed transactions.
    """

    name = "GRuB"

    def __init__(
        self,
        config: Optional[GrubConfig] = None,
        consumer_factory=None,
        preload: Optional[Sequence[KVRecord]] = None,
        *,
        chain: Optional[Blockchain] = None,
        feed_id: Optional[str] = None,
        gateway: Optional[str] = None,
        sp_store_backing=None,
    ) -> None:
        self.config = config or GrubConfig()
        self.feed_id = feed_id
        prefix = f"{feed_id}/" if feed_id else ""
        if chain is None:
            self.clock = SimulatedClock()
            self.chain = Blockchain(
                schedule=self.config.gas_schedule,
                parameters=self.config.chain_parameters,
                clock=self.clock,
            )
        else:
            # Shared-chain (gateway) mode: the chain's pricing is fixed by the
            # host.  The control plane's cost model is built from the feed's
            # config, so a mismatched schedule would make the feed optimise
            # against prices the chain never charges — reject it loudly.
            if self.config.gas_schedule != chain.schedule:
                raise ConfigurationError(
                    f"feed {feed_id!r}: config.gas_schedule differs from the "
                    "shared chain's schedule; hosted feeds must price "
                    "decisions with the host chain's gas schedule"
                )
            if self.config.chain_parameters != chain.parameters:
                raise ConfigurationError(
                    f"feed {feed_id!r}: config.chain_parameters differ from "
                    "the shared chain's parameters"
                )
            self.chain = chain
            self.clock = chain.clock
        self.storage_manager = StorageManagerContract(
            address=f"{prefix}storage-manager",
            data_owner=f"{prefix}data-owner",
            track_trace_on_chain=self._trace_mode(),
            reuse_replica_slots=self.config.reuse_replica_slots,
            gateway=gateway,
        )
        self.chain.deploy(self.storage_manager)
        if consumer_factory is None:
            self.consumer = DataConsumerContract(
                f"{prefix}data-consumer", self.storage_manager.address
            )
        else:
            self.consumer = consumer_factory(self.storage_manager.address)
        self.chain.deploy(self.consumer)
        # The SP's primary store mirrors whatever KV backend the deployment
        # selects (the paper's "any off-chain storage service supporting KV
        # storage"): in-memory by default, or e.g. an LSM tree selected by the
        # gateway's ``FeedSpec(store_backend="lsm", store_directory=...)``.
        if sp_store_backing is not None:
            self.sp_store = AuthenticatedKVStore(backing=sp_store_backing)
        else:
            self.sp_store = AuthenticatedKVStore()
        self.service_provider = ServiceProvider(
            address=f"{prefix}storage-provider",
            chain=self.chain,
            storage_manager=self.storage_manager,
            store=self.sp_store,
            batch_deliver=self.config.batch_deliver,
            scope=feed_id,
        )
        cost_model = CostModel.from_schedule(self.config.gas_schedule)
        self._cost_model = cost_model
        algorithm = make_algorithm(
            self.config.algorithm,
            cost_model,
            k=self.config.k,
            k_prime=self.config.k_prime,
            window_d=self.config.window_d,
            adaptive_history=self.config.adaptive_history,
        )
        # A feed whose operator configured a threshold keeps it; one left to
        # Equation 1 has it re-derived at what its reads measurably cost.
        derived_k = self.config.k is None and self.config.k_prime is None
        control_plane = ControlPlane(
            monitor=WorkloadMonitor(storage_manager=self.storage_manager),
            algorithm=algorithm,
            actuator=DecisionActuator(),
            evict_unused_after_epochs=self.config.evict_unused_after_epochs,
            continuous=self.config.continuous_decisions,
            cost_model=cost_model if derived_k else None,
        )
        self.data_owner = DataOwner(
            address=f"{prefix}data-owner",
            chain=self.chain,
            storage_manager=self.storage_manager,
            sp_store=self.sp_store,
            control_plane=control_plane,
            scope=feed_id,
        )
        if self.config.algorithm not in ("always", "never"):
            self.service_provider.decision_lookup = control_plane.decision_for
        self.consistency = ConsistencyModel(
            epoch_seconds=self.config.epoch_size * 1.0,
            chain=self.config.chain_parameters,
        )
        if preload:
            self.data_owner.preload(list(preload))

    # -- construction helpers ----------------------------------------------------

    def _trace_mode(self) -> str:
        return "off"

    def set_future_trace(self, operations: Sequence[Operation]) -> None:
        """Give a clairvoyant (offline-optimal) algorithm the full future trace."""
        algorithm = make_algorithm(
            "offline",
            self._cost_model,
            future_trace=list(operations),
        )
        self.data_owner.control_plane.algorithm = algorithm

    # -- workload driving -----------------------------------------------------------

    def run(
        self,
        operations: Iterable[Operation],
        *,
        phase_markers: Optional[Dict[int, str]] = None,
    ) -> RunReport:
        """Drive ``operations`` through the system, one epoch at a time."""
        report = RunReport(system_name=self.name)
        epoch_ops: List[Operation] = []
        for operation in operations:
            epoch_ops.append(operation)
            if len(epoch_ops) >= self.config.epoch_size:
                self._run_epoch(epoch_ops, report, phase_markers)
                epoch_ops = []
        if epoch_ops:
            self._run_epoch(epoch_ops, report, phase_markers)
        self._finalise_report(report)
        return report

    # -- epoch-step hooks ------------------------------------------------------
    #
    # The epoch loop is decomposed into three steps so an external scheduler
    # (the multi-tenant gateway's EpochScheduler) can drive many feeds in
    # lockstep: begin every feed's epoch, interleave their operations, then
    # settle delivers/updates across feeds in batched transactions instead of
    # the standalone per-feed settlement below.

    def begin_epoch(self, index: int, operations: int = 0) -> EpochSummary:
        """Start epoch ``index`` and return its (empty) summary."""
        self.storage_manager.current_epoch_hint = index
        return EpochSummary(index=index, operations=operations)

    def drive_operation(
        self, operation: Operation, summary: EpochSummary, report: RunReport
    ) -> None:
        """Apply one workload operation: buffer a write, or execute a read on chain.

        ``report`` is whatever keeps the run's counters: a :class:`RunReport`,
        or — under the gateway — the feed's bill, which carries the same names.
        """
        if operation.is_write:
            value = operation.value
            if value is None:
                value = b"\x00" * self.config.record_size_bytes
            self.data_owner.put(operation.key, value)
            summary.writes += 1
            report.writes += 1
        elif operation.kind is OperationKind.SCAN:
            keys = self._scan_keys(operation)
            self.chain.execute_internal_call(
                sender="end-user",
                contract_address=self.consumer.address,
                function="scan_feed",
                layer=LAYER_FEED,
                scope=self.feed_id,
                start_key=operation.key,
                keys=keys,
            )
            summary.reads += 1
            report.reads += 1
        else:
            self.chain.execute_internal_call(
                sender="end-user",
                contract_address=self.consumer.address,
                function="query_feed",
                layer=LAYER_FEED,
                scope=self.feed_id,
                key=operation.key,
            )
            summary.reads += 1
            report.reads += 1
        report.operations += 1
        if self.config.continuous_decisions and operation.is_read:
            # The DO's full node sees the gGet in the next block; feed it
            # to the decision algorithm straight away.
            self.data_owner.control_plane.observe_chain_reads()
        if not self.config.batch_deliver:
            # Immediate delivery: the watchdog answers each request as it
            # appears rather than waiting for the end of the epoch.
            self.service_provider.service_epoch()
            self.chain.mine_block()

    def record_epoch(
        self,
        summary: EpochSummary,
        report: RunReport,
        *,
        deliveries: int,
        update_transactions: int,
        transitions: Dict[str, ReplicationState],
        gas_feed: int,
        gas_application: int,
    ) -> None:
        """Fold one settled epoch's outcome into the summary and the report."""
        summary.deliveries = deliveries
        summary.update_transactions = update_transactions
        summary.replications = sum(
            1 for state in transitions.values() if state is ReplicationState.REPLICATED
        )
        summary.evictions = sum(
            1 for state in transitions.values() if state is ReplicationState.NOT_REPLICATED
        )
        summary.gas_feed = gas_feed
        summary.gas_application = gas_application
        report.epochs.append(summary)
        report.gas_feed += summary.gas_feed
        report.gas_application += summary.gas_application
        report.replications += summary.replications
        report.evictions += summary.evictions
        report.deliveries += summary.deliveries
        report.update_transactions += summary.update_transactions
        # The control plane's monitor has consumed this epoch's read trace by
        # now; drop the consumed prefix so long runs keep O(epoch) history in
        # memory instead of O(run).
        self.storage_manager.compact_call_history()

    def _run_epoch(
        self,
        operations: List[Operation],
        report: RunReport,
        phase_markers: Optional[Dict[int, str]],
    ) -> None:
        feed_before = self.chain.ledger.feed_total
        app_before = self.chain.ledger.application_total
        summary = self.begin_epoch(len(report.epochs), len(operations))
        if phase_markers and report.operations in phase_markers:
            summary.extras["phase"] = phase_markers[report.operations]

        for operation in operations:
            self.drive_operation(operation, summary, report)

        # End of epoch: the SP answers outstanding requests first (its deliver
        # may already materialise pending NR→R decisions via the replicate
        # hint), then the DO's update transaction lands in the next block.
        deliver_txs = self.service_provider.service_epoch()
        if deliver_txs:
            self.chain.mine_block()
        update_result = self.data_owner.end_epoch()
        self.chain.mine_block()

        self.record_epoch(
            summary,
            report,
            deliveries=len(deliver_txs),
            update_transactions=1 if update_result.transaction is not None else 0,
            transitions=update_result.transitions,
            gas_feed=self.chain.ledger.feed_total - feed_before,
            gas_application=self.chain.ledger.application_total - app_before,
        )

    def _scan_keys(self, operation: Operation) -> List[str]:
        selected = self.sp_store.select_keys(operation.key, operation.scan_length)
        return selected or [operation.key]

    def _finalise_report(self, report: RunReport) -> None:
        report.gas_by_category = dict(self.chain.ledger.by_category)

    # -- convenience views ---------------------------------------------------------

    @property
    def replicated_on_chain(self) -> int:
        return self.storage_manager.replica_count()
