"""The churn schedules the elastic property harness runs.

Every schedule comes from the benchmark's own churn generator,
``suite.workloads.churn_inputs`` — what ``churn_lanes`` measures — at a shape
drawn from the seed (``shape``), optionally with synchronized hot-key bursts
spliced in (``hot_key_bursts``).  ``tests/gateway/test_elastic_properties.py``
runs them; ``tests/workloads/test_workloads.py`` checks the schedules
themselves.
"""

from __future__ import annotations

import random
from dataclasses import replace

from suite.workloads import WORKLOADS, FleetInputs, Workload, churn_inputs

from repro.common.types import Operation

CHURN = WORKLOADS["churn_lanes"]
EPOCH_SIZE = CHURN.epoch_size
#: The synchronized bursts: how many shared hot keys, in how many epochs.
HOT_KEYS = 4
HOT_BURST_EPOCHS = 3


def shape(seed: int) -> Workload:
    """``churn_lanes`` at a small shape drawn from ``seed``."""
    rng = random.Random(seed)
    feeds = rng.randint(3, 6)
    joins = rng.randint(2, 4)
    burst_tenants = rng.randint(1, joins // 2)
    # A quota-capped resident drives half an epoch per epoch, which keeps the
    # run re-planning long after the rest are done: with none, some
    # schedules end before any feed changes lanes.
    quota_feeds = rng.randint(1, 2)
    # churn_inputs takes its resident leavers from every other unthrottled
    # resident.
    resident_leavers = rng.randint(1, len(range(quota_feeds, feeds, 2)))
    return replace(
        CHURN,
        feeds=feeds,
        joins=joins,
        burst_tenants=burst_tenants,
        leaves=burst_tenants + resident_leavers,
        quota_feeds=quota_feeds,
        ops_per_feed=rng.choice((16, 24, 32)),
    )


def hot_key_bursts(inputs: FleetInputs, seed: int) -> FleetInputs:
    """``inputs`` with one epoch-long read burst over the same
    ``HOT_KEYS`` preloaded keys spliced into every unthrottled resident's
    stream at the same ``HOT_BURST_EPOCHS`` epoch boundaries.  Quota-capped
    residents are left out: their quotas defer operations, so a burst spliced
    at a stream offset would run epochs after everyone else's."""
    rng = random.Random(f"{seed}:hot")
    # Every burst epoch falls inside a resident's spliced stream.
    horizon = max(map(len, inputs.operations.values())) // EPOCH_SIZE + HOT_BURST_EPOCHS
    epochs = sorted(rng.sample(range(1, horizon), HOT_BURST_EPOCHS))
    pattern = [rng.randrange(HOT_KEYS) for _ in range(EPOCH_SIZE)]
    operations = dict(inputs.operations)
    for spec in inputs.specs:
        if spec.max_ops_per_epoch is not None:
            continue
        hot = spec.preload[:HOT_KEYS]
        spliced = list(operations[spec.feed_id])
        for epoch in epochs:
            # Positions are epoch boundaries of the spliced stream, so every
            # resident bursts in the same epochs.
            position = min(epoch * EPOCH_SIZE, len(spliced))
            spliced[position:position] = [
                Operation.read(hot[index].key, size_bytes=len(hot[index].value))
                for index in pattern
            ]
        operations[spec.feed_id] = tuple(spliced)
    return replace(inputs, operations=operations)


def build_schedule(seed: int, correlated: bool = False) -> FleetInputs:
    inputs = churn_inputs(shape(seed), seed)
    return hot_key_bursts(inputs, seed) if correlated else inputs
