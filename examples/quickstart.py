"""Quickstart: run GRuB and the two static baselines on a small workload.

Builds a GRuB deployment (simulated Ethereum chain + off-chain storage
provider + data owner), drives a mixed read/write workload through it, and
compares the per-operation Gas against the never-replicate (BL1) and
always-replicate (BL2) baselines.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    AlwaysReplicateSystem,
    GrubConfig,
    GrubSystem,
    NoReplicationSystem,
)
from repro.analysis.reporting import format_table
from repro.workloads import SyntheticWorkload


def main() -> None:
    # A workload that shifts from write-heavy to read-heavy is exactly where a
    # static placement loses: generate 2 reads per write over four keys.
    workload = SyntheticWorkload(read_write_ratio=2, num_operations=512, num_keys=4)
    operations = workload.operations()

    rows = []
    for cls in (NoReplicationSystem, AlwaysReplicateSystem, GrubSystem):
        system = cls(GrubConfig(epoch_size=32))
        report = system.run(list(operations))
        rows.append(
            (
                system.name,
                round(report.gas_per_operation),
                report.replications,
                report.evictions,
                system.replicated_on_chain,
            )
        )

    print(
        format_table(
            ["system", "Gas per operation", "replications", "evictions", "replicas on chain"],
            rows,
            title="GRuB quickstart — read/write ratio 2, 512 operations",
        )
    )
    print()
    print("GRuB decides per record whether to keep an on-chain replica.  Two reads a")
    print("write is near where the static placements trade places, and there GRuB pays")
    print("for switching between them; README, 'Reproducing the paper', has the runs")
    print("where it follows the cheaper one and the ones where it does not.")


if __name__ == "__main__":
    main()
