"""The core's public surface is what GRuB runs, and nothing more.

Every public method and property of :class:`StorageManagerContract` and
:class:`WorkloadMonitor` is listed here with its caller in ``src/``, or as a
test reference.  A new public name fails this test until its entry names the
caller that needs it.  The fields of
:class:`~repro.gateway.feed_state.ActorState`, which crosses the lane boundary
in every install and move, are pinned the same way, each with what
``ActorState.install`` restores from it.
"""

from __future__ import annotations

from dataclasses import fields
from types import FunctionType

from repro.core.control_plane import WorkloadMonitor
from repro.core.storage_manager import StorageManagerContract
from repro.gateway.feed_state import ActorState

STORAGE_MANAGER_CONTRACT = {
    "gGet",  # DataConsumer.query_feed
    "gGetRange",  # DataConsumer.scan_feed
    "deliver",  # ServiceProvider's deliver transaction: both halves below
    "verify_delivery",  # StorageManagerContract.deliver, GatewayRouter.deliver_batch
    "apply_delivery",  # StorageManagerContract.deliver, GatewayRouter.deliver_batch
    "update",  # DataOwner's epoch transaction, GatewayRouter.update_batch
    "has_replica",  # DataOwner.prepare_epoch_update
    "replica_of",  # gateway/executor.py: the read memo's replica check
    "replica_count",  # GrubSystem.replicated_on_chain: examples and tests, at run end
    "delivered_read_discount",  # ControlPlane.run_epoch: Equation 1's K
    "root_hash",  # test reference: the digest the DO published
}

WORKLOAD_MONITOR = {
    "record_local_write",  # ControlPlane.record_local_write
    "fetch_chain_reads",  # ControlPlane.observe_chain_reads, .federate_epoch_trace
    "federate_epoch_trace",  # ControlPlane.run_epoch
}

ACTOR_STATE = {
    "sp_pending",  # ServiceProvider.pending: requests not yet delivered
    "cp_epochs_run",  # ControlPlane.epochs_run
    "cp_algorithm",  # ControlPlane.algorithm: the decision state
    "cp_actuator",  # ControlPlane.actuator: pending transitions, last reads if evicting
    "monitor_observed_reads",  # WorkloadMonitor.observed_reads: read positions
    "monitor_local_writes",  # WorkloadMonitor's stamped writes of the epoch
}


def public_surface(cls: type) -> set:
    """The public methods and properties ``cls`` defines itself (as in
    ``tests/ads/test_surface.py``)."""
    return {
        name
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and isinstance(member, (FunctionType, property, classmethod, staticmethod))
    }


def test_storage_manager_contract_surface_is_pinned():
    assert public_surface(StorageManagerContract) == STORAGE_MANAGER_CONTRACT


def test_workload_monitor_surface_is_pinned():
    assert public_surface(WorkloadMonitor) == WORKLOAD_MONITOR


def test_actor_state_fields_are_pinned():
    assert {field.name for field in fields(ActorState)} == ACTOR_STATE
