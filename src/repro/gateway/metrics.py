"""Per-feed and fleet-wide telemetry of the multi-tenant gateway.

The gateway bills every unit of gas to the feed that caused it (via the gas
ledger's scopes, including each feed's exact share of batched cross-feed
transactions), counts cache traffic per feed, and clocks the fleet's
wall-time, so operators get the numbers a hosted service is run on: per-feed
gas and gas/op, fleet ops/sec, cache hit rate and replication churn.

:class:`FeedTelemetry` is one tenant's bill; :class:`FleetTelemetry`
aggregates the fleet and renders the operator report through the shared
:mod:`repro.analysis.reporting` helpers so gateway output matches the paper
benchmarks' formatting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.grub import RunReport


@dataclass
class FeedTelemetry(RunReport):
    """One hosted feed's bill: a :class:`~repro.core.grub.RunReport` — the
    record a standalone GRuB run keeps, folded by the same
    :meth:`~repro.core.grub.RunReport.record_epoch` — plus what hosting adds:
    cache traffic, tenancy and quota counters.  Its ``deliveries`` and
    ``update_transactions`` count the batches the feed had a group in.
    """

    feed_id: str
    cache_hits: int = 0
    cache_misses: int = 0
    #: Epoch at which the tenant joined the run (0 = present from the start).
    admitted_epoch: int = 0
    #: Epoch boundary at which the tenant left, or ``None`` while hosted.  A
    #: departed feed's telemetry row is retained — this is its final bill.
    departed_epoch: Optional[int] = None
    #: Operations pushed to a later epoch by the tenant's ops/gas quotas
    #: (counted once per deferral, so an op deferred twice counts twice).
    deferred_ops: int = 0
    #: Workload operations dropped because the tenant departed before they ran.
    cancelled_ops: int = 0
    #: Pending deliver requests cancelled when the tenant departed.
    cancelled_requests: int = 0

    @property
    def departed(self) -> bool:
        return self.departed_epoch is not None

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        if self.cache_lookups == 0:
            return 0.0
        return self.cache_hits / self.cache_lookups

    @property
    def replication_churn(self) -> float:
        """Replication-state transitions per epoch (R→NR plus NR→R)."""
        if not self.epochs:
            return 0.0
        return (self.replications + self.evictions) / len(self.epochs)

    def fingerprint(self) -> Dict[str, Any]:
        """Every deterministic field as plain data (epoch summaries included).

        Two runs of the same fleet configuration must produce equal
        fingerprints regardless of ``num_workers`` — this is the object the
        parallel-vs-serial equivalence tests and the CI perf-smoke compare.
        """
        return {
            "feed_id": self.feed_id,
            "operations": self.operations,
            "reads": self.reads,
            "writes": self.writes,
            "gas_feed": self.gas_feed,
            "gas_application": self.gas_application,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "replications": self.replications,
            "evictions": self.evictions,
            "deliver_groups": self.deliveries,
            "update_groups": self.update_transactions,
            "admitted_epoch": self.admitted_epoch,
            "departed_epoch": self.departed_epoch,
            "deferred_ops": self.deferred_ops,
            "cancelled_ops": self.cancelled_ops,
            "cancelled_requests": self.cancelled_requests,
            "epochs": [asdict(epoch) for epoch in self.epochs],
        }


@dataclass
class FleetTelemetry:
    """Fleet-wide aggregate over every hosted feed's telemetry."""

    feeds: Dict[str, FeedTelemetry] = field(default_factory=dict)
    wall_seconds: float = 0.0
    epochs_run: int = 0
    deliver_batches: int = 0
    update_batches: int = 0
    blocks_mined: int = 0
    #: Mid-run tenant arrivals and departures applied by the fleet controller.
    admissions: int = 0
    departures: int = 0
    #: One ``(epoch, sorted feed ids)`` entry per *executed* epoch (idle
    #: spans the scheduler fast-forwards over are not recorded — their
    #: membership cannot change).  The churn invariants ("an evicted feed
    #: never appears in a later epoch") are checked against this record.
    rosters: List[tuple] = field(default_factory=list)
    #: How many shards the planner produced, parallel to ``rosters``.
    shards_per_epoch: List[int] = field(default_factory=list)
    #: Process mode only: what crossed the lane boundary this run (packed
    #: lane-frame bytes per epoch, seconds packing and opening them, per-lane
    #: rows, installs, moves, spawns, retirements), read off the engine's
    #: instruments by :func:`repro.gateway.executor.ipc_summary`.  Wall-clock
    #: measurement, not fleet state — deliberately outside :meth:`fingerprint`.
    ipc: Optional[dict] = None

    def feed(self, feed_id: str) -> FeedTelemetry:
        return self.feeds[feed_id]

    # -- fleet aggregates ----------------------------------------------------

    @property
    def operations(self) -> int:
        return sum(feed.operations for feed in self.feeds.values())

    @property
    def gas_feed(self) -> int:
        return sum(feed.gas_feed for feed in self.feeds.values())

    @property
    def gas_per_operation(self) -> float:
        if self.operations == 0:
            return 0.0
        return self.gas_feed / self.operations

    @property
    def ops_per_second(self) -> float:
        """Wall-clock throughput of the gateway runtime itself."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.operations / self.wall_seconds

    @property
    def cache_hits(self) -> int:
        return sum(feed.cache_hits for feed in self.feeds.values())

    @property
    def cache_lookups(self) -> int:
        return sum(feed.cache_lookups for feed in self.feeds.values())

    @property
    def cache_hit_rate(self) -> float:
        if self.cache_lookups == 0:
            return 0.0
        return self.cache_hits / self.cache_lookups

    @property
    def deferred_ops(self) -> int:
        return sum(feed.deferred_ops for feed in self.feeds.values())

    @property
    def cancelled_ops(self) -> int:
        return sum(feed.cancelled_ops for feed in self.feeds.values())

    @property
    def cancelled_requests(self) -> int:
        return sum(feed.cancelled_requests for feed in self.feeds.values())

    @property
    def replications(self) -> int:
        return sum(feed.replications for feed in self.feeds.values())

    @property
    def evictions(self) -> int:
        return sum(feed.evictions for feed in self.feeds.values())

    @property
    def replication_churn(self) -> float:
        if self.epochs_run == 0:
            return 0.0
        return (self.replications + self.evictions) / self.epochs_run

    def fingerprint(self) -> Dict[str, Any]:
        """Deterministic fleet state as plain data (wall-clock excluded).

        ``wall_seconds`` — the only nondeterministic field — is deliberately
        left out, so fingerprint equality is exactly the "bit-identical
        telemetry" guarantee of the parallel epoch engine.
        """
        return {
            "epochs_run": self.epochs_run,
            "deliver_batches": self.deliver_batches,
            "update_batches": self.update_batches,
            "blocks_mined": self.blocks_mined,
            "admissions": self.admissions,
            "departures": self.departures,
            "rosters": [[epoch, list(roster)] for epoch, roster in self.rosters],
            "shards_per_epoch": list(self.shards_per_epoch),
            "feeds": {
                feed_id: telemetry.fingerprint()
                for feed_id, telemetry in sorted(self.feeds.items())
            },
        }

    # -- reporting -----------------------------------------------------------

    def per_feed_rows(self) -> List[tuple]:
        """One report row per feed, sorted by feed id."""
        # Imported where used: importing ``repro.analysis`` reaches, through
        # the churn workloads, the registry — which builds these rows' class.
        from repro.analysis.reporting import format_gas

        rows = []
        for feed_id in sorted(self.feeds):
            feed = self.feeds[feed_id]
            if feed.departed:
                tenancy = f"e{feed.admitted_epoch}–e{feed.departed_epoch}"
            elif feed.admitted_epoch:
                tenancy = f"e{feed.admitted_epoch}–"
            else:
                tenancy = "resident"
            rows.append(
                (
                    feed_id,
                    feed.operations,
                    format_gas(feed.gas_feed),
                    round(feed.gas_per_operation),
                    f"{feed.cache_hit_rate * 100:.1f}%",
                    feed.replications,
                    feed.evictions,
                    feed.deferred_ops,
                    tenancy,
                )
            )
        return rows

    def format_report(self, title: Optional[str] = None) -> str:
        """Operator report: per-feed table plus the fleet summary lines."""
        from repro.analysis.reporting import format_gas, format_rate, format_table

        lines = [
            format_table(
                [
                    "feed",
                    "ops",
                    "feed gas",
                    "gas/op",
                    "cache hit",
                    "repl",
                    "evict",
                    "deferred",
                    "tenancy",
                ],
                self.per_feed_rows(),
                title=title or f"Gateway fleet — {len(self.feeds)} feeds",
            ),
            (
                f"fleet: {self.operations:,} ops in {self.epochs_run} epochs, "
                f"{format_gas(self.gas_feed)} feed gas "
                f"({self.gas_per_operation:,.1f} gas/op), "
                f"{format_rate(self.ops_per_second, 'ops/s')}, "
                f"cache hit rate {self.cache_hit_rate * 100:.1f}%, "
                f"churn {self.replication_churn:.2f} transitions/epoch"
            ),
            (
                f"batching: {self.deliver_batches} deliver batches, "
                f"{self.update_batches} update batches, "
                f"{self.blocks_mined} blocks mined"
            ),
        ]
        if self.admissions or self.departures:
            lines.append(
                f"elastic: {self.admissions} admissions, "
                f"{self.departures} departures, "
                f"{self.deferred_ops} ops deferred by quotas, "
                f"{self.cancelled_ops} ops / {self.cancelled_requests} pending "
                "requests cancelled at departure"
            )
        return "\n".join(lines)
