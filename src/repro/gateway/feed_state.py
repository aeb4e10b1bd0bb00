"""One feed's state, in the one form it changes interpreter in.

GRuB's unit of state is one feed: the SP's authenticated KV store, the DO's
trusted root and control plane, the two contracts.  In process mode that unit
crosses an interpreter boundary three ways — main → lane (install), lane →
lane (migration), lane → main (run end) — and every crossing is the same
four steps on the same :class:`FeedState`:

* :func:`capture` reads a hosted feed off its
  :class:`~repro.gateway.registry.FeedHandle` — the wired system and the run
  state beside it (queue, dirty keys, bill, read memo) — either **whole** or
  as a **delta against a version** the receiver already holds
  (:class:`~repro.gateway.registry.FeedVersion`): the SP store as the
  records that changed since and only the tree nodes above them, the queue
  as how many operations left its head (a lane's queues never grow: lanes
  run batch inputs only).  The contracts, actors, bill and memo always ship
  whole.
* :func:`pack` turns it into opaque bytes (``pickle`` protocol 5), once, where
  it was captured; a migrating feed passes through the main process in that
  form, metered but never opened.
* :func:`unpack` opens the bytes where they are applied.  Anything that is
  not a packed :class:`FeedState` is a
  :class:`~repro.common.errors.WireError`, raised before a handle or registry
  is touched.
* :func:`apply` brings a destination handle standing at the state's base —
  a fresh one, or any mirror for a whole state — to the state.

**Versions and held copies.**  A version of a feed is either the main
mirror's (:data:`~repro.gateway.registry.MAIN_VERSION`: what every lane that
forked inherits, and what a feed installed from the main process arrives as)
or the state the feed had when it left a lane, numbered by its departure.  A
lane keeps every copy it inherited without hosting it, and every copy that
departed it, as a *held copy* at its version; a state cut against a version
names it (:attr:`FeedState.base`), and :func:`install` re-hosts the held copy
at exactly that version (:meth:`~repro.gateway.registry.FeedRegistry.restore_feed`)
and applies the delta — any other version, or none, is a
:class:`~repro.common.errors.WireError`.  A state that is whole is installed
into a fresh handle, as it always was, and replaces any held copy.  Every
hosted copy on a lane remembers the version it arrived as
(``FeedHandle.arrival``), which a move to a lane still holding that version is
cut against, and — where it descends from the main mirror — the main mirror's
version (``FeedHandle.baseline``), which its run-end state is cut against.

:func:`detach` is capture + pack + handing over the feed's LSM directory, the
form all three senders use; :func:`install` is unpack + create or re-host +
apply, a lane's way in.  How the store lays out its delta is the store's
business (:meth:`~repro.ads.authenticated_kv.AuthenticatedKVStore.export_delta`).

The lane boundary has this one format: a lane's epoch results
(:mod:`repro.gateway.executor`) are packed by the same :func:`pack` and opened
by the same :func:`open_packed`, the one place the package unpickles
anything.
"""

from __future__ import annotations

import pickle
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.ads.authenticated_kv import EMPTY_BASELINE, StoreDelta
from repro.common.errors import WireError
from repro.common.types import Operation
from repro.gateway.metrics import FeedTelemetry
from repro.gateway.registry import (
    MAIN_VERSION,
    FeedHandle,
    FeedRegistry,
    FeedSpec,
    FeedVersion,
)
from repro.storage.lsm import LSMStore


@dataclass
class ActorState:
    """One feed's off-chain actors as plain data: the SP's pending requests,
    the control plane (algorithm, actuator) and its monitor.

    The SP's ``_log_cursor`` deliberately does *not* travel: it indexes the
    source's private event log; :meth:`install` re-bases it against the
    destination chain.
    """

    sp_pending: list
    cp_epochs_run: int
    cp_algorithm: object
    cp_actuator: object
    #: Reads the monitor has taken off the call log; the keys it has not
    #: taken yet travel in the storage manager's ``call_history``.
    monitor_observed_reads: int
    monitor_local_writes: list

    @classmethod
    def capture(cls, handle) -> "ActorState":
        data_owner = handle.data_owner
        provider = handle.service_provider
        control_plane = data_owner.control_plane
        monitor = control_plane.monitor
        return cls(
            sp_pending=list(provider.pending),
            cp_epochs_run=control_plane.epochs_run,
            cp_algorithm=control_plane.algorithm,
            cp_actuator=control_plane.actuator,
            monitor_observed_reads=monitor.observed_reads,
            monitor_local_writes=list(monitor._local_writes),
        )

    def install(self, handle) -> None:
        data_owner = handle.data_owner
        data_owner._write_buffer = []
        provider = handle.service_provider
        provider.pending = list(self.sp_pending)
        # Everything logged on the destination chain so far was routed by
        # whoever hosted the feed then; a later poll must not replay it.
        provider._log_cursor = len(handle.system.chain.event_log)
        # Mutate the control plane *in place*: the SP's ``decision_lookup``
        # binding (wired at construction) must keep pointing at this object.
        control_plane = data_owner.control_plane
        control_plane.epochs_run = self.cp_epochs_run
        control_plane.algorithm = self.cp_algorithm
        control_plane.actuator = self.cp_actuator
        monitor = control_plane.monitor
        monitor.observed_reads = self.monitor_observed_reads
        monitor._local_writes = list(self.monitor_local_writes)
        monitor._read_ops = {}


#: Contract attributes that must not cross the process boundary: the chain
#: back-reference (interpreter-local) and the storage (shipped as slots).
_CONTRACT_ATTR_EXCLUDES = ("chain", "storage")


def _contract_state(contract) -> Tuple[dict, Dict[str, bytes]]:
    attrs = {
        key: value
        for key, value in vars(contract).items()
        if key not in _CONTRACT_ATTR_EXCLUDES
    }
    return attrs, dict(contract.storage.slots)


def _apply_contract_state(contract, state: Tuple[dict, Dict[str, bytes]]) -> None:
    attrs, slots = state
    contract.__dict__.update(attrs)
    contract.storage.slots.clear()
    contract.storage.slots.update(slots)


@dataclass
class FeedState:
    """Everything an interpreter needs to continue a feed exactly where
    another left it — given, for a delta, the version it was cut against."""

    feed_id: str
    #: The version this state was cut against, which its destination must
    #: hold; ``None``: the state is whole.
    base: Optional[int]
    #: The version this state is: what the copy its sender keeps stands at.
    version: int
    #: The handle's run state (see :class:`~repro.gateway.registry.FeedHandle`).
    #: ``queue`` is the whole queue when ``consumed`` is ``None``, else empty:
    #: the queue is the base's less ``consumed`` from its head.
    queue: List[Operation]
    consumed: Optional[int]
    dirty: set
    bill: FeedTelemetry
    memo: Dict[str, bytes]
    #: ``(attrs, storage slots)`` of the storage manager and the consumer.
    manager: Tuple[dict, Dict[str, bytes]]
    consumer: Tuple[dict, Dict[str, bytes]]
    actors: ActorState
    #: The SP store, as what diverged from the base (all of it when whole).
    store: StoreDelta


def capture(
    handle: FeedHandle,
    version: int = MAIN_VERSION,
    since: Optional[FeedVersion] = None,
) -> FeedState:
    """Read a hosted feed off its handle — queue, dirty keys, bill and memo
    included — as ``version``: whole, or cut against ``since``, a version its
    destination holds (the queue whole too when ``since`` kept no length)."""
    queue, consumed = handle.queue, None
    if since is not None and since.queued is not None:
        # Operations only ever leave the head: what is queued now is the
        # base's queue less its head.
        queue, consumed = (), since.queued - len(queue)
    return FeedState(
        feed_id=handle.feed_id,
        base=None if since is None else since.token,
        version=version,
        queue=list(queue),
        consumed=consumed,
        dirty=set(handle.dirty),
        bill=handle.bill,
        memo=handle.memo,
        manager=_contract_state(handle.storage_manager),
        consumer=_contract_state(handle.consumer),
        actors=ActorState.capture(handle),
        store=handle.system.sp_store.export_delta(
            EMPTY_BASELINE if since is None else since.store
        ),
    )


def pack(value: object) -> bytes:
    return pickle.dumps(value, protocol=5)


def open_packed(blob: bytes, expected: type, what: str):
    """Open what :func:`pack` packed.  Only ever handed bytes this program's
    own processes packed; a blob that is cut short, or holds anything but an
    ``expected``, is a :class:`WireError` — whatever the unpickler made of
    it."""
    try:
        value = pickle.loads(blob)
    except Exception as exc:
        raise WireError(f"{what} cannot be opened: {exc!r}") from exc
    if not isinstance(value, expected):
        raise WireError(
            f"{what} holds a {type(value).__name__}, not a {expected.__name__}"
        )
    return value


def unpack(blob: bytes) -> FeedState:
    return open_packed(blob, FeedState, "packed feed state")


def detach(
    handle: FeedHandle,
    version: int = MAIN_VERSION,
    since: Optional[FeedVersion] = None,
) -> bytes:
    """Capture (see :func:`capture`) and pack a feed for its next host, then
    release an exclusive LSM opener so that host can take over the directory
    (single-opener rule).  The caller retires or holds what it keeps of the
    feed."""
    blob = pack(capture(handle, version, since))
    close_store(handle)
    return blob


def close_store(handle) -> None:
    """Close the feed's LSM opener, if it has one (a no-op when closed)."""
    backing = handle.system.sp_store.backing
    if isinstance(backing, LSMStore):
        backing.close()


def open_store(handle) -> None:
    """Take the feed's LSM directory back, if its opener was closed (a no-op
    otherwise)."""
    backing = handle.system.sp_store.backing
    if isinstance(backing, LSMStore) and backing.closed:
        backing.reopen()


def install(
    registry: FeedRegistry,
    spec: FeedSpec,
    blob: bytes,
    held: Optional[Tuple[int, FeedHandle]] = None,
) -> None:
    """Host the feed a packed state brings in ``registry``: a whole state in
    a handle created from ``spec`` (preload stripped: its records travel
    inside the state's store), a delta in the ``held`` copy — ``(version,
    handle)``, out of the registry — which must stand at the version the
    delta was cut against.

    The blob is opened and matched against the spec and the held version
    first: nothing is created or re-hosted for one that does not open,
    belongs to another feed, or was cut against another version.  The hosted
    handle knows the version it arrived as and, where it descends from the
    main mirror, the main mirror's.
    """
    state = unpack(blob)
    if spec.feed_id != state.feed_id:
        raise WireError(
            f"install order pairs spec {spec.feed_id!r} with a snapshot "
            f"of {state.feed_id!r}"
        )
    if state.base is None:
        handle = registry.create_feed(spec)
    else:
        holds = "no copy" if held is None else f"version {held[0]}"
        if held is None or held[0] != state.base:
            raise WireError(
                f"feed {state.feed_id!r} arrives as a delta against version "
                f"{state.base}, but this lane holds {holds}"
            )
        handle = registry.restore_feed(held[1])
        if state.base == MAIN_VERSION:
            # A fork copy is the main mirror as it stands.
            store = handle.system.sp_store.baseline()
            handle.baseline = FeedVersion(MAIN_VERSION, store)
    apply(handle, state)
    store = handle.system.sp_store.baseline()
    if state.version == MAIN_VERSION:
        # Installed whole from the main mirror, which it now equals.
        handle.baseline = FeedVersion(MAIN_VERSION, store)
    handle.arrival = FeedVersion(state.version, store, len(handle.queue))


def apply(handle: FeedHandle, state: FeedState) -> None:
    """Bring ``handle`` — standing at the state's base, or anywhere for a
    whole state — to ``state``.

    After this the handle's contracts (storage slots, counters, call
    history), SP store, off-chain actors and run state (queue, dirty keys,
    bill, memo) are the source's — what a lane continues from, and what the
    main registry's next run, the equivalence suite and post-run analysis
    see.  A handle whose LSM directory was handed to a lane takes it back
    first.
    """
    feed_id = state.feed_id
    if handle.feed_id != feed_id:
        raise WireError(
            f"feed state is for feed {feed_id!r}, but the destination handle "
            f"hosts {handle.feed_id!r}"
        )
    open_store(handle)
    _apply_contract_state(handle.storage_manager, state.manager)
    _apply_contract_state(handle.consumer, state.consumer)
    handle.system.sp_store.apply_delta(state.store)
    state.actors.install(handle)
    if state.consumed is None:
        handle.queue = deque(state.queue)
    else:
        handle.queue = deque(islice(handle.queue, state.consumed, None))
    handle.dirty = state.dirty
    handle.bill = state.bill
    handle.memo = state.memo
