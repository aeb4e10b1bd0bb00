"""Feed registry: instantiate and namespace many GRuB feeds on one chain.

The registry is the tenant-management layer of the gateway.  Each
:class:`FeedSpec` describes one tenant (its id, its
:class:`~repro.core.config.GrubConfig` — decision algorithm, epoch size,
record sizing — and an optional preload).  ``create_feed`` wires a complete
GRuB deployment for the tenant — storage-manager contract, consumer contract,
data owner, storage provider — with every address namespaced under the feed
id, sharing the registry's single :class:`~repro.chain.chain.Blockchain`,
:class:`GatewayRouterContract` and :class:`SharedWatchdog`.

All gas a feed causes is billed to the feed's gas scope (its id), which is
what makes per-tenant telemetry exact even when several feeds share one
batched transaction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Union

from repro.ads.authenticated_kv import StoreBaseline
from repro.chain.chain import Blockchain, ChainParameters
from repro.chain.gas import GasSchedule
from repro.common.errors import ConfigurationError
from repro.common.types import KVRecord, Operation
from repro.core.config import GrubConfig
from repro.core.grub import GrubSystem
from repro.gateway.metrics import FeedTelemetry
from repro.gateway.router import GatewayRouterContract
from repro.gateway.watchdog import SharedWatchdog
from repro.storage.kvstore import KVStore
from repro.storage.lsm import LSMStore

#: SP-store backends a :class:`FeedSpec` may select.
STORE_BACKENDS = ("memory", "lsm")


@dataclass(frozen=True)
class FeedSpec:
    """Everything the gateway needs to host one tenant feed."""

    feed_id: str
    config: GrubConfig = field(default_factory=GrubConfig)
    preload: Optional[Sequence[KVRecord]] = None
    #: Optional factory building the feed's consumer contract from the storage
    #: manager's address (defaults to the plain DataConsumerContract).
    consumer_factory: Optional[object] = None
    #: Per-tenant quota: at most this many workload operations are driven per
    #: epoch; the excess is deferred to later epochs (``None`` = unlimited).
    max_ops_per_epoch: Optional[int] = None
    #: Per-tenant quota: once the feed's driving-phase gas for an epoch
    #: reaches this amount, its remaining operations are deferred to later
    #: epochs (``None`` = unlimited).  At least one operation always executes
    #: per epoch, so a quota can throttle a tenant but never wedge it.
    max_gas_per_epoch: Optional[int] = None
    #: Backend of the feed's service-provider store: ``"memory"`` (default:
    #: no backing, the store holds its records in memory alone) or ``"lsm"``
    #: (every record also written to an :class:`~repro.storage.lsm.LSMStore`;
    #: with ``store_directory`` set, a persistent one whose SSTables and WAL
    #: survive a gateway restart).
    store_backend: str = "memory"
    #: Directory for a persistent ``"lsm"`` store.  Must be private to this
    #: feed (two feeds sharing a directory would interleave their WALs);
    #: ``None`` keeps the LSM purely in memory.
    store_directory: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if not self.feed_id or "/" in self.feed_id:
            raise ConfigurationError(
                f"feed id must be a non-empty string without '/', got {self.feed_id!r}"
            )
        if self.max_ops_per_epoch is not None and self.max_ops_per_epoch <= 0:
            raise ConfigurationError("max_ops_per_epoch must be positive when given")
        if self.max_gas_per_epoch is not None and self.max_gas_per_epoch <= 0:
            raise ConfigurationError("max_gas_per_epoch must be positive when given")
        if self.store_backend not in STORE_BACKENDS:
            raise ConfigurationError(
                f"unknown store_backend {self.store_backend!r}; "
                f"expected one of {STORE_BACKENDS}"
            )
        if self.store_directory is not None and self.store_backend != "lsm":
            raise ConfigurationError(
                "store_directory only applies to the 'lsm' store backend"
            )

    def build_store_backing(self) -> Optional[KVStore]:
        """The SP-store backing this spec selects (``None``: a memory feed
        has none).

        Directory-backed LSM stores open *exclusively*: a feed's directory has
        exactly one live opener, which is what makes migrating the feed
        between process lanes safe — the source side must ``close()`` before
        the destination side opens the same directory.
        """
        if self.store_backend == "memory":
            return None
        directory = Path(self.store_directory) if self.store_directory is not None else None
        return LSMStore(directory=directory, exclusive=True)


#: The version of a feed the main registry holds: what every fork copy a lane
#: inherits is, and what a feed installed from the main process arrives as.
#: A lane's departures are numbered from 1.
MAIN_VERSION = 0


@dataclass
class FeedVersion:
    """One version of a feed a copy stood at, kept as what a later delta is
    cut against (see :mod:`repro.gateway.feed_state`)."""

    #: :data:`MAIN_VERSION`, or the number of the departure that left it.
    token: int
    #: The SP store at that version.
    store: StoreBaseline
    #: The queue's length at that version — so a delta ships its queue as
    #: what the head consumed since.  ``None``: the queue ships whole.
    queued: Optional[int] = None


@dataclass
class FeedHandle:
    """One hosted feed: its wired GRuB system plus everything a run keeps per
    feed.  The handle is the only place that state lives — a forked lane
    inherits it whole, a :class:`~repro.gateway.feed_state.FeedState` ships
    it whole or as a delta against a copy the receiver holds, and it leaves
    the registry with the handle when the feed is removed — so a tenant
    reusing a departed feed id starts from nothing.  A lane keeps the handle
    of a feed that left it as a held copy, which
    :meth:`FeedRegistry.restore_feed` hosts again.
    """

    spec: FeedSpec
    system: GrubSystem
    #: The feed's bill for the current (or latest) run: the very row
    #: ``FleetTelemetry.feeds`` holds, whose ``record_epoch`` folds each
    #: settled epoch.
    bill: FeedTelemetry
    #: Workload operations not yet driven, head first.
    queue: Deque[Operation] = field(default_factory=deque)
    #: Keys written this epoch.  Their on-chain replica is stale until the
    #: epoch update lands, so they are not memoised meanwhile (a later epoch
    #: would otherwise be served the old value).
    dirty: set = field(default_factory=set)
    #: The read memo: key → value of records the gateway has seen verified
    #: *and replicated* on chain (a read served by a replica, or a deliver the
    #: chain just verified and stored).  A write drops the key's entry, an
    #: R→NR transition drops it, so every entry equals the on-chain replica
    #: and the memo is bounded by the replicas GRuB itself decided to keep.
    #: A hit still enters the feed's read trace, so the memo saves gas
    #: without changing what GRuB decides.
    memo: Dict[str, bytes] = field(default_factory=dict)
    #: On a lane: the main mirror's version, which a run-end state is cut
    #: against — set where this copy descends from the main mirror (adopted
    #: as the lane forked, installed from the main process, or grown from
    #: such a copy by deltas); ``None`` where it arrived whole from another
    #: lane, so its run-end state ships whole.
    baseline: Optional[FeedVersion] = None
    #: On a lane: the version this copy arrived as, which a move to a lane
    #: still holding that version is cut against (``None`` elsewhere).
    arrival: Optional[FeedVersion] = None

    def begin_run(self, operations: Iterable[Operation]) -> None:
        """Start a run: ``operations`` queued, no dirty keys, a fresh bill.
        The memo carries over between runs: it holds nothing but on-chain
        replicas."""
        self.queue = deque(operations)
        self.dirty = set()
        self.bill = FeedTelemetry(feed_id=self.feed_id)

    @property
    def feed_id(self) -> str:
        return self.spec.feed_id

    @property
    def storage_manager(self):
        return self.system.storage_manager

    @property
    def service_provider(self):
        return self.system.service_provider

    @property
    def data_owner(self):
        return self.system.data_owner

    @property
    def consumer(self):
        return self.system.consumer

    @property
    def replicated_on_chain(self) -> int:
        return self.system.replicated_on_chain


class FeedRegistry:
    """Hosts many independent GRuB feeds over one shared chain and watchdog."""

    def __init__(
        self,
        *,
        schedule: Optional[GasSchedule] = None,
        parameters: Optional[ChainParameters] = None,
        router_address: str = "gateway-router",
    ) -> None:
        self.schedule = schedule or GasSchedule()
        self.parameters = parameters or ChainParameters()
        self.chain = Blockchain(schedule=self.schedule, parameters=self.parameters)
        self.router = GatewayRouterContract(router_address)
        self.chain.deploy(self.router)
        self.watchdog = SharedWatchdog(chain=self.chain)
        self._feeds: Dict[str, FeedHandle] = {}

    # -- tenant lifecycle ----------------------------------------------------

    def create_feed(self, spec: FeedSpec) -> FeedHandle:
        """Instantiate and register a new hosted feed."""
        if spec.feed_id in self._feeds:
            raise ConfigurationError(f"feed {spec.feed_id!r} already registered")
        system = GrubSystem(
            spec.config,
            consumer_factory=spec.consumer_factory,
            preload=spec.preload,
            chain=self.chain,
            feed_id=spec.feed_id,
            gateway=self.router.address,
            sp_store_backing=spec.build_store_backing(),
        )
        handle = FeedHandle(
            spec=spec, system=system, bill=FeedTelemetry(feed_id=spec.feed_id)
        )
        self._feeds[spec.feed_id] = handle
        self.watchdog.register(handle)
        return handle

    def remove_feed(self, feed_id: str) -> FeedHandle:
        """Deregister a feed: stop scheduling/billing it and free its
        on-chain addresses (so the feed id can be reused by a later tenant).
        Its run state — queue, memo, bill — leaves with the handle."""
        handle = self.get(feed_id)
        del self._feeds[feed_id]
        self.watchdog.deregister(handle)
        self.chain.undeploy(handle.storage_manager.address)
        self.chain.undeploy(handle.consumer.address)
        return handle

    def restore_feed(self, handle: FeedHandle) -> FeedHandle:
        """Host a handle :meth:`remove_feed` took out again, as it stands:
        the inverse of that call, so a lane re-hosts the copy it kept of a
        feed that left it."""
        if handle.feed_id in self._feeds:
            raise ConfigurationError(f"feed {handle.feed_id!r} already registered")
        self.chain.deploy(handle.storage_manager)
        self.chain.deploy(handle.consumer)
        self._feeds[handle.feed_id] = handle
        self.watchdog.register(handle)
        return handle

    # -- lookup --------------------------------------------------------------

    def get(self, feed_id: str) -> FeedHandle:
        try:
            return self._feeds[feed_id]
        except KeyError as exc:
            raise ConfigurationError(f"no feed registered as {feed_id!r}") from exc

    def __contains__(self, feed_id: str) -> bool:
        return feed_id in self._feeds

    def __len__(self) -> int:
        return len(self._feeds)

    @property
    def feed_ids(self) -> List[str]:
        """Registered feed ids in creation order."""
        return list(self._feeds)

    @property
    def handles(self) -> List[FeedHandle]:
        return list(self._feeds.values())
