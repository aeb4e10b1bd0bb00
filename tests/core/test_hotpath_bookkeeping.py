"""Hot-path bookkeeping: the gGet call log its one reader empties, and the
replica count."""

from __future__ import annotations

from repro.common.types import EpochSummary, KVRecord, Operation, OperationKind, ReplicationState
from repro.core.config import GrubConfig
from repro.core.control_plane import WorkloadMonitor
from repro.core.decision.base import CostModel, make_algorithm
from repro.core.grub import GrubSystem
from repro.core.storage_manager import StorageManagerContract
from repro.workloads.synthetic import SyntheticWorkload


def _taken(reads):
    return [(position, op.key) for position, op in reads]


class TestCallHistoryCursor:
    """The workload monitor's ``observed_reads`` is its cursor into the gGet
    log: every fetch takes the log whole and numbers what it took from it."""

    def test_drain_yields_absolute_positions(self):
        manager = StorageManagerContract("sm", "do")
        monitor = WorkloadMonitor(storage_manager=manager)
        manager.call_history.extend(["a", "b"])
        assert _taken(monitor.fetch_chain_reads()) == [(0, "a"), (1, "b")]
        # Fetching again yields nothing until new calls arrive.
        assert monitor.fetch_chain_reads() == []
        manager.call_history.append("c")
        assert _taken(monitor.fetch_chain_reads()) == [(2, "c")]

    def test_positions_survive_compaction(self):
        manager = StorageManagerContract("sm", "do")
        monitor = WorkloadMonitor(storage_manager=manager)
        manager.call_history.extend(["a", "b", "c"])
        assert [p for p, _ in monitor.fetch_chain_reads()] == [0, 1, 2]
        # The take empties the log; positions keep counting past it.
        assert manager.call_history == []
        assert monitor.observed_reads == 3
        manager.call_history.append("d")
        assert _taken(monitor.fetch_chain_reads()) == [(3, "d")]
        assert monitor.observed_reads == 4

    def test_no_registered_cursor_means_no_compaction(self):
        config = GrubConfig(epoch_size=8, algorithm="memoryless", k=2)
        system = GrubSystem(
            config, preload=[KVRecord.make(f"k{i}", bytes(32)) for i in range(4)]
        )
        summary = EpochSummary(index=0)
        keys = ["k0", "k1", "k0", "k3"]
        for key in keys:
            system.drive_operation(Operation.read(key), summary)
        # Until the monitor looks, the log keeps every gGet in order.
        assert system.storage_manager.call_history == keys
        system.data_owner.end_epoch()
        assert system.storage_manager.call_history == []
        assert system.data_owner.control_plane.monitor.observed_reads == len(keys)

    def test_drain_is_materialised_against_compaction(self):
        manager = StorageManagerContract("sm", "do")
        monitor = WorkloadMonitor(storage_manager=manager)
        manager.call_history.extend(["a", "b", "c"])
        taken = monitor.fetch_chain_reads()
        # Reads logged after the take go to a fresh log and leave the batch
        # the caller still holds as it was.
        manager.call_history.append("d")
        assert _taken(taken) == [(0, "a"), (1, "b"), (2, "c")]
        assert _taken(monitor.fetch_chain_reads()) == [(3, "d")]


class TestHistoryStaysBounded:
    def test_long_run_keeps_epoch_sized_history(self):
        config = GrubConfig(epoch_size=8, algorithm="memoryless", k=2)
        system = GrubSystem(
            config, preload=[KVRecord.make(f"k{i}", bytes(32)) for i in range(4)]
        )
        operations = SyntheticWorkload(
            read_write_ratio=4.0, num_operations=256, num_keys=4, key_prefix="k", seed=3
        ).operations()
        system.run(operations)
        # The monitor takes the whole log every epoch, so what is left is at
        # most one epoch's reads — not the whole run's.
        assert len(system.storage_manager.call_history) <= config.epoch_size
        # The monitor's count still covers every read the run produced.
        assert system.data_owner.control_plane.monitor.observed_reads >= 100

    def test_compaction_does_not_change_decisions(self):
        config = GrubConfig(epoch_size=8, algorithm="memoryless", k=2)
        system = GrubSystem(
            config, preload=[KVRecord.make(f"k{i}", bytes(32)) for i in range(4)]
        )
        operations = SyntheticWorkload(
            read_write_ratio=4.0, num_operations=128, num_keys=4, key_prefix="k", seed=5
        ).operations()
        control_plane = system.data_owner.control_plane
        monitor = control_plane.monitor
        federate = monitor.federate_epoch_trace
        traces = []
        applied = []
        apply_decisions = control_plane.actuator.apply_decisions

        def recording_apply(decisions):
            decisions = list(decisions)
            applied.extend(decisions)
            apply_decisions(decisions)

        control_plane.actuator.apply_decisions = recording_apply

        def recording_federate():
            trace = federate()
            traces.append([(op.kind, op.key) for op in trace])
            return trace

        monitor.federate_epoch_trace = recording_federate
        system.run(operations)
        # Taking the log whole each epoch loses nothing: every epoch's trace
        # is that epoch's operations in the order the feed saw them.
        size = config.epoch_size
        assert traces == [
            [(op.kind, op.key) for op in operations[start:start + size]]
            for start in range(0, len(operations), size)
        ]
        # So the algorithm decides as it does over the retained trace.
        offline = make_algorithm(
            config.algorithm, CostModel.from_schedule(config.gas_schedule), k=config.k
        )
        replications = evictions = 0
        for start in range(0, len(operations), size):
            for decision in offline.observe(operations[start:start + size]):
                if decision.state is ReplicationState.REPLICATED:
                    replications += 1
                else:
                    evictions += 1
        assert replications > 0
        assert [decision.state for decision in applied].count(
            ReplicationState.REPLICATED
        ) == replications
        assert len(applied) == replications + evictions
        assert any(kind is OperationKind.WRITE for trace in traces for kind, _ in trace)


class TestReplicaCount:
    def test_count_skips_invalidated_replicas(self):
        config = GrubConfig(epoch_size=8, algorithm="memoryless", k=1,
                            evict_unused_after_epochs=2)
        system = GrubSystem(
            config, preload=[KVRecord.make(f"k{i}", bytes(32)) for i in range(8)]
        )
        operations = SyntheticWorkload(
            read_write_ratio=4.0, num_operations=128, num_keys=8, key_prefix="k", seed=7
        ).operations()
        system.run(operations)
        manager = system.storage_manager
        keys = [
            slot.removeprefix("replica:")
            for slot in manager.storage.slots
            if slot.startswith("replica:")
        ]
        live = sum(manager.has_replica(key) for key in keys)
        # Idle replicas were evicted: their slots stay, invalidated, and are
        # not counted.
        assert any(manager.storage.peek(f"replica:{key}") == b"\x00" for key in keys)
        assert 0 < manager.replica_count() == live < len(keys)

    def test_a_reverted_update_leaves_the_count(self):
        from repro.chain.transaction import Transaction

        config = GrubConfig(epoch_size=4, algorithm="always")
        system = GrubSystem(config)
        system.run([Operation.write("k", b"v" * 32), Operation.read("k")])
        count_before = system.storage_manager.replica_count()
        assert count_before >= 1
        # A reverting transaction (unauthorised update) changes no slot, so
        # no replica is counted or lost.
        system.chain.submit(
            Transaction(
                sender="mallory",
                contract=system.storage_manager.address,
                function="update",
                args={"entries": [], "digest": b"\x01" * 32},
                calldata_bytes=64,
            )
        )
        receipt = system.chain.mine_block().receipts[0]
        assert not receipt.success
        assert system.storage_manager.replica_count() == count_before
