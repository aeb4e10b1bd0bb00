"""Fingerprints pinned across commits, not only across execution modes.

The equivalence suite compares serial with process *inside one commit*; a
change that moves gas, a hit count or an epoch summary in both modes alike
passes it.  These constants are the digests of ``fleet.fingerprint()`` — every
key, per-feed bills and epoch summaries included — for the repo benchmark's
batch workloads at toy size, seed 7, through the suite's own harness.  A PR
that claims "bit-identical" leaves them alone; one that means to move gas
moves them on purpose and says so.

Last moved by PR 24 (one Merkle multiproof per ``deliver`` call instead of a
path per record): every digest and feed-gas figure, none of the memo counts.
What that change had no business moving — every gas category but calldata
(``transaction``) and ``hash``, the replications, evictions and blocks of the
three round-robin workloads — is pinned in :data:`UNMOVED`, from the commit
before it.
"""

from __future__ import annotations

import pytest

from suite.harness import run_fleet
from suite.workloads import WORKLOADS, generate

#: workload → (fingerprint digest, feed gas, memo hits, memo lookups).
GOLDEN = {
    "fleet_read": (
        "9dd384ced4b24ca5a44a2b52a06bf7a900f9fb4d9052b9ac11ef5b3431b898ab",
        4_975_160,  # 7 010 092 with a path per record
        98,
        362,
    ),
    "fleet_write": (
        "e96e98b5d53764762d8b9988cff2bc86e2dc39491e06f6581e61c88534290a1a",
        9_963_230,  # 11 362 688
        4,
        183,
    ),
    "churn_lanes": (
        "dff862b7797a374497d920c6a5551220b971fbf6a4b0a02388c7be32f4345b79",
        9_423_004,  # 10 733 254
        61,
        317,
    ),
}
#: ``fleet_read``'s exact inputs on two process lanes.
GOLDEN["lanes_read"] = GOLDEN["fleet_read"]

#: workload → what the proof form cannot reach, as it read at the parent of
#: PR 24: the gas categories no proof is charged to, and (replications,
#: evictions, blocks).  Decisions count words of *value*, never of proof.
UNMOVED = {
    "fleet_read": (
        {
            "sstore_insert": 1_260_000,
            "sstore_update": 195_000,
            "sload": 59_200,
            "log": 232_848,
            "call": 402_500,
        },
        (65, 10, 24),
    ),
    "fleet_write": (
        {
            "sstore_insert": 3_760_000,
            "sstore_update": 405_000,
            "sload": 66_400,
            "log": 175_714,
            "call": 284_200,
        },
        (27, 26, 24),
    ),
}
UNMOVED["lanes_read"] = UNMOVED["fleet_read"]


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
        if name in UNMOVED:
            categories, counts = UNMOVED[name]
            assert {
                category: sample["gas_by_category"][category] for category in categories
            } == categories
            assert (sample["replications"], sample["evictions"], sample["blocks"]) == counts
