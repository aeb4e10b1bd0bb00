"""Fingerprints pinned across commits, not only across execution modes.

The equivalence suite compares serial with process *inside one commit*; a
change that moves gas, a hit count or an epoch summary in both modes alike
passes it.  These constants are the digests of ``fleet.fingerprint()`` — every
key, per-feed bills and epoch summaries included — for the repo benchmark's
batch workloads at toy size, seed 7, through the suite's own harness.  A PR
that claims "bit-identical" leaves them alone; one that means to move gas
moves them on purpose and says so.
"""

from __future__ import annotations

import pytest

from suite.harness import run_fleet
from suite.workloads import WORKLOADS, generate

#: workload → (fingerprint digest, feed gas, memo hits, memo lookups).
GOLDEN = {
    "fleet_read": (
        "2614bc669e7255471608e344980a92072ab7dde4030a0b43f7d04f972689f5e3",
        7_010_092,
        98,
        362,
    ),
    "fleet_write": (
        "99d2dc79c2c075f8aac9d746049205dfbce23074b7a91803ab0c202ea87eea45",
        11_362_688,
        4,
        183,
    ),
    "churn_lanes": (
        "0bbcc7a8423f0426e27c53d3987a2b7d051388e7b14ce9ece16af92fb8b3d9f0",
        10_733_254,
        61,
        317,
    ),
}
#: ``fleet_read``'s exact inputs on two process lanes.
GOLDEN["lanes_read"] = GOLDEN["fleet_read"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_toy_workload_fingerprint_is_the_committed_one(name):
    workload = WORKLOADS[name].toy()
    inputs = generate(workload, 7)
    # The serial twin always; the workload's own mode too when it has lanes.
    for serial_twin in {True, workload.execution_mode == "serial"}:
        sample = run_fleet(workload, inputs, serial_twin=serial_twin)
        assert (
            sample["digest"],
            sample["gas_feed"],
            sample["cache_hits"],
            sample["cache_lookups"],
        ) == GOLDEN[name]
