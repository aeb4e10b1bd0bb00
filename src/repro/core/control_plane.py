"""The GRuB control plane, running on the trusted data owner.

Three components (Section 3.2 of the paper):

* :class:`WorkloadMonitor` — federates the trace of data updates (which the DO
  observes locally) with the trace of on-chain reads, which it fetches from
  the blockchain's natively logged contract-call history through the DO's own
  full node.  Crucially the read trace is *not* obtained from the untrusted
  SP, which would be incentivised to under-report reads to keep records off
  chain (and keep charging for cloud reads).
* the algorithm executor — one of the :mod:`repro.core.decision` algorithms,
  run over each epoch's federated trace.
* :class:`DecisionActuator` — turns decision changes into replication-state
  transitions stored as the per-record auxiliary state (the key's R/NR
  prefix), which the data plane materialises in the next epoch update.

An optional eviction policy (used by the BtcRelay case study) demotes
replicated records that have not been read for a configurable number of
epochs, bounding the amount of contract storage the feed occupies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.common.types import Operation, OperationKind, ReplicationState
from repro.core.decision.base import CostModel, Decision, DecisionAlgorithm
from repro.core.storage_manager import StorageManagerContract


@dataclass
class WorkloadMonitor:
    """Collects the per-epoch trace of writes (local) and reads (from chain).

    The federated trace preserves the interleaving of reads and writes: each
    locally observed write is stamped with the position of the on-chain call
    log at the moment it was produced, so the monitor can merge the two
    streams back into the order the feed actually experienced.  Losing that
    interleaving would systematically overstate the number of *consecutive*
    reads, which is exactly the quantity the memoryless algorithm thresholds
    on.

    The monitor is the call log's one reader: each fetch takes the storage
    manager's ``call_history`` whole and leaves it empty, so the log never
    holds more than the reads since the last fetch.  A read's position is
    its index in the run's whole read trace — ``observed_reads`` (the reads
    taken before) plus its index in the taken log.
    """

    storage_manager: StorageManagerContract
    _local_writes: List[tuple] = field(default_factory=list)
    observed_reads: int = 0
    #: Reusable READ operations keyed by data key.  The monitor materialises
    #: one :class:`Operation` per observed gGet; hot keys are read thousands
    #: of times and the operation object is immutable (the algorithms consult
    #: only ``kind``/``key``), so one instance per key serves the whole run.
    _read_ops: Dict[str, Operation] = field(default_factory=dict)

    def record_local_write(self, operation: Operation) -> None:
        """Register a write the DO produced locally during the current epoch."""
        position = self.observed_reads + len(self.storage_manager.call_history)
        self._local_writes.append((position, operation))

    def fetch_chain_reads(self) -> List[tuple]:
        """Take the gGet calls logged since the last fetch from the DO's full
        node.

        Returns ``(position, Operation)`` pairs where ``position`` is the
        call's index in the run's whole read trace.
        """
        manager = self.storage_manager
        keys, manager.call_history = manager.call_history, []
        read_ops = self._read_ops
        reads = []
        for position, key in enumerate(keys, self.observed_reads):
            operation = read_ops.get(key)
            if operation is None:
                operation = read_ops[key] = Operation(kind=OperationKind.READ, key=key)
            reads.append((position, operation))
        self.observed_reads += len(keys)
        return reads

    def federate_epoch_trace(self) -> List[Operation]:
        """Merge this epoch's local writes and on-chain reads in feed order."""
        reads = self.fetch_chain_reads()
        writes = self._local_writes
        self._local_writes = []
        merged: List[Operation] = []
        read_index = 0
        for position, write in writes:
            while read_index < len(reads) and reads[read_index][0] < position:
                merged.append(reads[read_index][1])
                read_index += 1
            merged.append(write)
        merged.extend(op for _, op in reads[read_index:])
        return merged


@dataclass
class DecisionActuator:
    """Tracks decision changes and turns them into actionable transitions."""

    #: keys that must change state in the next epoch update, with the target state.
    pending_transitions: Dict[str, ReplicationState] = field(default_factory=dict)
    #: epoch index of the most recent read per key, kept only for a control
    #: plane that evicts idle replicas (:meth:`evict_stale` is its reader).
    last_read_epoch: Dict[str, int] = field(default_factory=dict)

    def apply_decisions(self, decisions: Iterable[Decision]) -> None:
        for decision in decisions:
            self.pending_transitions[decision.key] = decision.state

    def note_reads(self, operations: Iterable[Operation], epoch: int) -> None:
        for op in operations:
            if op.is_read:
                self.last_read_epoch[op.key] = epoch

    def evict_stale(
        self,
        replicated_keys: Iterable[str],
        current_epoch: int,
        max_idle_epochs: int,
    ) -> None:
        """Demote replicated keys that have not been read recently."""
        for key in replicated_keys:
            last = self.last_read_epoch.get(key, -1)
            if current_epoch - last >= max_idle_epochs:
                self.pending_transitions[key] = ReplicationState.NOT_REPLICATED

    def drain_transitions(self) -> Dict[str, ReplicationState]:
        """Hand the accumulated transitions to the data plane and clear them."""
        transitions, self.pending_transitions = self.pending_transitions, {}
        return transitions


@dataclass
class ControlPlane:
    """Monitor → algorithm → actuator pipeline.

    In the default (per-epoch) mode the algorithm runs once per epoch over the
    federated trace.  In *continuous* mode the DO feeds every operation to the
    algorithm as soon as it observes it — writes immediately (they are local)
    and reads as soon as they appear in the chain's call history — so the
    replication decision for a key can flip mid-epoch and be actuated by the
    SP's very next ``deliver`` (the paper's deliver-time ``replicate`` flag).
    The epoch boundary still governs when the DO's ``update`` transaction is
    sent.
    """

    monitor: WorkloadMonitor
    algorithm: DecisionAlgorithm
    actuator: DecisionActuator = field(default_factory=DecisionActuator)
    evict_unused_after_epochs: Optional[int] = None
    continuous: bool = False
    #: Set when the algorithm's threshold is Equation 1's and not a configured
    #: K: each epoch then re-derives it at what the feed's delivered reads
    #: have measurably cost (``delivered_read_discount``).
    cost_model: Optional[CostModel] = None
    epochs_run: int = 0

    def record_local_write(self, operation: Operation) -> None:
        self.monitor.record_local_write(operation)
        if self.continuous:
            decisions = self.algorithm.observe([operation])
            self.actuator.apply_decisions(decisions)

    def observe_chain_reads(self) -> None:
        """Continuous mode: pull and process any new on-chain reads right away."""
        if not self.continuous:
            return
        reads = [op for _, op in self.monitor.fetch_chain_reads()]
        if not reads:
            return
        if self.evict_unused_after_epochs is not None:
            self.actuator.note_reads(reads, self.epochs_run)
        decisions = self.algorithm.observe(reads)
        self.actuator.apply_decisions(decisions)

    def run_epoch(self, replicated_keys: Iterable[str]) -> Dict[str, ReplicationState]:
        """Execute one control-plane cycle and return the state transitions."""
        if self.cost_model is not None:
            discount = self.monitor.storage_manager.delivered_read_discount()
            self.algorithm.set_threshold(self.cost_model.equation_one_k_at(discount))
        if self.continuous:
            self.observe_chain_reads()
            # Writes were observed as they were buffered; drop the epoch trace
            # so the next epoch starts clean.
            self.monitor.federate_epoch_trace()
        else:
            trace = self.monitor.federate_epoch_trace()
            if self.evict_unused_after_epochs is not None:
                self.actuator.note_reads(trace, self.epochs_run)
            decisions = self.algorithm.observe(trace)
            self.actuator.apply_decisions(decisions)
        if self.evict_unused_after_epochs is not None:
            self.actuator.evict_stale(
                replicated_keys, self.epochs_run, self.evict_unused_after_epochs
            )
        self.epochs_run += 1
        return self.actuator.drain_transitions()

    def decision_for(self, key: str) -> ReplicationState:
        """Current decision for ``key`` (consulted by the data plane mid-epoch)."""
        return self.algorithm.state_of(key)
