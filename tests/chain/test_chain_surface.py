"""The chain classes' public surface is what GRuB runs, and nothing more.

Every public method and property of :class:`Blockchain`, :class:`EventLog`
and :class:`Contract` is listed here with its caller in ``src/``, or as a
test reference: a query tests read the chain through, or an entry point only
tests and the benchmark's tracer drive.  A new public name fails this test
until its entry names the caller that needs it.  Where the finality window
changed what a name answers, its entry says how.  The fields of
:class:`LogEvent` — one per request on the read path, crossing the lane
boundary in every drive buffer — are pinned the same way, each with its
reader.
"""

from __future__ import annotations

from dataclasses import fields
from types import FunctionType

from repro.chain.chain import Blockchain
from repro.chain.contract import Contract
from repro.chain.events import EventLog, LogEvent

BLOCKCHAIN = {
    "isolated_execution",  # gateway/executor.py run_epoch_phases: the drive phase
    "absorb",  # gateway/executor.py run_epoch_phases, scheduler.py lane merge
    "deploy",  # gateway/registry.py, core/grub.py, apps/stablecoin.py, apps/btc
    "undeploy",  # gateway/registry.py: a departing feed frees its addresses
    "get_contract",  # gateway/router.py, core/data_consumer.py: internal calls
    "submit",  # Blockchain.land, DataOwner.submit_prepared, ServiceProvider
    "mine_block",  # Blockchain.land, core/grub.py epochs
    "land",  # gateway settlements (both modes), DataOwner.preload
    "mine_recorded_block",  # gateway/scheduler.py: a lane's settlement receipts
    "mine_until_finalized",  # test reference: tests/core/test_grub_system.py
    "execute_call",  # test reference: tests/chain, tests/apps; suite/trace.py times it
    "execute_internal_call",  # GrubSystem.drive_operation: every DU read and scan
    # gateway/scheduler.py: the blocks a run mined.  Windowed chain: the
    # newest block's number + 1, no longer len(blocks).
    "height",
    "is_finalized",  # test reference: tests/chain/test_blockchain.py
    "finality_delay",  # core/consistency.py: the freshness bound
    # Blockchain.land.  Windowed chain: None once the receipt's block left.
    "receipt_for",
}

EVENT_LOG = {
    "append_event",  # Blockchain.absorb, ._produce_block, .execute_internal_call
    # Blockchain._forget: the events of a block leaving the window go with it.
    "forget_through",
    # gateway/watchdog.py SharedWatchdog.poll.  Windowed log: a cursor below
    # the kept events raises ReproError.
    "since",
    # core/service_provider.py ServiceProvider.poll_requests.  Windowed log:
    # raises as since does.
    "filter",
    # test reference: tests/chain/test_blockchain.py.  Windowed log: the
    # newest kept event.
    "latest",
}

CONTRACT = {
    "on_deploy",  # Blockchain.deploy
    "emit",  # StorageManagerContract.gGet / gGetRange, apps/erc20.py, apps/stablecoin.py
    "require",  # gateway/router.py, core/storage_manager.py, apps
    "revert",  # Contract.require, StorageManagerContract.deliver's checks
    "call_contract",  # core/data_consumer.py query_feed, gateway/router.py
}

LOG_EVENT = {
    "contract",  # gateway/watchdog.py SharedWatchdog.poll routes on it; EventLog.filter
    "name",  # core/service_provider.py PendingRequest.from_event; EventLog.filter
    "payload",  # core/service_provider.py PendingRequest.from_event
    # The log position, stamped by EventLog.append_event; test reference:
    # tests/gateway/test_parallel_engine.py compares it serial vs process.
    "block_number",
    "transaction_index",
    "log_index",
}


def public_surface(cls: type) -> set:
    """The public methods and properties ``cls`` defines itself."""
    return {
        name
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and isinstance(member, (FunctionType, property, classmethod, staticmethod))
    }


def test_blockchain_surface_is_pinned():
    assert public_surface(Blockchain) == BLOCKCHAIN


def test_event_log_surface_is_pinned():
    assert public_surface(EventLog) == EVENT_LOG


def test_contract_surface_is_pinned():
    assert public_surface(Contract) == CONTRACT


def test_log_event_fields_are_pinned():
    assert {field.name for field in fields(LogEvent)} == LOG_EVENT
