"""Hosting many GRuB feeds on one gateway.

A walkthrough of the multi-tenant gateway: register a small fleet of feeds
with different workloads and decision algorithms, drive them in lockstep
through the epoch scheduler, and read the per-tenant bill off the fleet
telemetry — then compare against what the same tenants would have paid as
isolated single-feed deployments.

Run with::

    PYTHONPATH=src python examples/multitenant_gateway.py
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.analysis.reporting import format_gas
from repro.core.config import GrubConfig
from repro.core.grub import GrubSystem, RunReport
from repro.gateway import EpochScheduler, FeedRegistry, FeedSpec, FleetTelemetry
from repro.workloads.synthetic import SyntheticWorkload

# Tenants with very different traffic: a hot price feed read constantly, a
# balanced asset feed, and a telemetry feed that is almost write-only.
TENANTS = {
    "prices": dict(ratio=16.0, algorithm="memoryless"),
    "assets": dict(ratio=2.0, algorithm="memorizing"),
    "telemetry": dict(ratio=0.125, algorithm="memoryless"),
}
OPERATIONS_PER_FEED = 192
EPOCH_SIZE = 16


def build_workloads(tenants: Mapping[str, dict], operations_per_feed: int):
    return {
        feed_id: SyntheticWorkload(
            read_write_ratio=spec["ratio"],
            num_operations=operations_per_feed,
            num_keys=2,
            key_prefix=feed_id,
            seed=index + 1,
        ).operations()
        for index, (feed_id, spec) in enumerate(tenants.items())
    }


def host_and_isolate(
    tenants: Mapping[str, dict] = TENANTS, operations_per_feed: int = OPERATIONS_PER_FEED
) -> Tuple[FleetTelemetry, Dict[str, RunReport]]:
    """The same tenants' workloads hosted on one gateway, and run as one
    isolated single-feed deployment each: the fleet's telemetry and every
    tenant's isolated report."""
    workloads = build_workloads(tenants, operations_per_feed)
    configs = {
        feed_id: GrubConfig(epoch_size=EPOCH_SIZE, algorithm=spec["algorithm"])
        for feed_id, spec in tenants.items()
    }

    # --- hosted: one chain, one watchdog, batched cross-feed settlement ----
    registry = FeedRegistry()
    for feed_id, config in configs.items():
        registry.create_feed(FeedSpec(feed_id=feed_id, config=config))
    fleet = EpochScheduler(registry, num_shards=1).run(workloads)

    # --- isolated: each tenant pays its own deliver/update transactions ----
    isolated = {
        feed_id: GrubSystem(config).run(workloads[feed_id])
        for feed_id, config in configs.items()
    }
    return fleet, isolated


def main() -> None:
    fleet, isolated = host_and_isolate()
    print(fleet.format_report(title="Hosted on one gateway"))
    for feed_id, report in isolated.items():
        print(
            f"isolated {feed_id:>10}: {format_gas(report.gas_feed)} feed gas "
            f"({report.gas_per_operation:,.0f} gas/op)"
        )

    isolated_gas = sum(report.gas_feed for report in isolated.values())
    saving = 1.0 - fleet.gas_feed / isolated_gas
    print(
        f"\nhosting the fleet costs {format_gas(fleet.gas_feed)} vs "
        f"{format_gas(isolated_gas)} isolated — {saving * 100:.1f}% saved by "
        "cross-feed batching and the gateway read cache"
    )


if __name__ == "__main__":
    main()
