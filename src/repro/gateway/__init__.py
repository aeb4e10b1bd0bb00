"""Multi-tenant GRuB hosting runtime: many feeds, one chain, one watchdog.

The seed reproduces the paper's single-feed deployment (one DO, one SP, one
storage-manager contract).  This package turns that into a hosted service:

* :mod:`repro.gateway.registry` — :class:`FeedRegistry` instantiates and
  namespaces many independent feeds (each with its own data owner, storage
  provider, decision algorithm and :class:`~repro.core.config.GrubConfig`)
  over a **shared** blockchain.  A hosted feed is one object, its
  :class:`FeedHandle`: the wired system plus everything a run keeps per feed
  — the workload queue, the keys written this epoch, the bill, and the
  **read memo** (verified replicated values, dropped on a write or an R→NR
  transition and warmed from verified deliver payloads, so repeated reads of
  replicated records short-circuit);
* :mod:`repro.gateway.router` — the on-chain
  :class:`GatewayRouterContract` that fans batched cross-feed ``deliver`` /
  ``update`` transactions out to each feed's storage-manager contract,
  amortising the transaction base cost across tenants the same way the paper
  amortises it across requests;
* :mod:`repro.gateway.watchdog` — one :class:`SharedWatchdog` tailing the
  shared event log once per cycle and routing request events to the feed they
  belong to;
* :mod:`repro.gateway.scheduler` — the :class:`EpochScheduler`, an elastic
  epoch engine: each shard's off-chain work (operation driving, proof
  generation, epoch-update preparation) runs on one of two execution
  backends (``execution_mode="serial" | "process"``), settlement lands in a
  deterministic merge phase (fixed shard order), one batched deliver plus
  one grouped update settles per shard in its own block — process lanes are
  bit-identical to serial — and tenants join
  (:meth:`EpochScheduler.admit`) and leave (:meth:`EpochScheduler.evict`)
  at epoch boundaries, with per-tenant ops/gas quotas deferring over-quota
  operations to later epochs;
* :mod:`repro.gateway.executor` — the backends themselves: the one epoch
  body both modes run (``run_epoch_phases``, where the phase order is
  written down), plus the :class:`LaneEngine` (persistent worker processes
  hosting full feed mirrors, only per-epoch deltas crossing the process
  boundary; a lane forks with the main registry and adopts the feeds the
  plan places on it there, and every other feed reaches it as a packed
  feed state);
* :mod:`repro.gateway.feed_state` — the one form a feed changes interpreter
  in: a :class:`~repro.gateway.feed_state.FeedState` (contracts, off-chain
  actors, the handle's run state — queue, dirty keys, bill, read memo — and
  the SP store as a delta against a baseline) with one capture and one
  apply, used main → lane, lane → lane and lane → main alike;
* :mod:`repro.gateway.planner` — shard planning strategies: the fixed
  :class:`RoundRobinPlanner` and the :class:`GasAwareShardPlanner`, which
  EWMA-estimates per-feed epoch gas from trailing telemetry and bin-packs
  feeds so every settlement block stays under a configured fraction of the
  chain's block gas limit;
* :mod:`repro.gateway.placement` — which worker lane executes each shard
  of a process run whose plan can change: affinity to the lane already hosting the
  shard's feeds under a load-balance cap, so feeds only move when the plan
  really regroups them (process-side only, never fingerprinted);
* :mod:`repro.gateway.runtime` — the run's ownership of the interpreter's
  cyclic collector: the preloaded heap frozen, collection at epoch boundaries
  only, the interpreter's prior state restored on exit;
* :mod:`repro.gateway.metrics` — per-feed and fleet-wide telemetry (gas,
  wall-clock throughput, cache hit rate, replication churn).

Quickstart::

    from repro.gateway import FeedRegistry, FeedSpec, EpochScheduler
    from repro.core.config import GrubConfig
    from repro.workloads.synthetic import SyntheticWorkload

    registry = FeedRegistry()
    for i in range(8):
        registry.create_feed(FeedSpec(feed_id=f"feed-{i:02d}", config=GrubConfig(epoch_size=16)))
    scheduler = EpochScheduler(registry, num_shards=2)
    fleet = scheduler.run({
        f"feed-{i:02d}": SyntheticWorkload(read_write_ratio=4, num_operations=128, seed=i).operations()
        for i in range(8)
    })
    print(fleet.format_report())
"""

from repro.gateway.executor import EXECUTION_MODES, LaneEngine
from repro.gateway.metrics import FeedTelemetry, FleetTelemetry
from repro.gateway.planner import GasAwareShardPlanner, RoundRobinPlanner, ShardPlanner
from repro.gateway.registry import FeedHandle, FeedRegistry, FeedSpec
from repro.gateway.router import DeliverGroup, GatewayRouterContract, UpdateGroup
from repro.gateway.scheduler import Admission, EpochScheduler, Eviction
from repro.gateway.watchdog import SharedWatchdog

__all__ = [
    "Admission",
    "DeliverGroup",
    "EXECUTION_MODES",
    "EpochScheduler",
    "Eviction",
    "FeedHandle",
    "FeedRegistry",
    "FeedSpec",
    "FeedTelemetry",
    "FleetTelemetry",
    "GasAwareShardPlanner",
    "GatewayRouterContract",
    "LaneEngine",
    "RoundRobinPlanner",
    "ShardPlanner",
    "SharedWatchdog",
    "UpdateGroup",
]
