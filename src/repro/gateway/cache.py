"""Consumer-side read cache with replication-keyed write invalidation.

The gateway fronts every consumer read.  Once a record is replicated on chain
its value is public, verified state; the gateway's full node can therefore
memoise it and serve repeated reads without re-executing the ``gGet`` internal
call (no ``sload``, no callback gas).  The cache is only ever populated from
verified replicated state — a read that hit an on-chain replica, or a deliver
payload the chain just verified and replicated — never from the untrusted SP
directly, so a cache hit returns exactly what the chain would have returned.

Invalidation is keyed on the feed's replication state machine:

* a data-owner write to a key invalidates the (feed, key) entry — the next
  read goes back to the chain (and, post-update, re-populates the cache),
* an R→NR transition (eviction) invalidates the entry — the replica is gone,
  so reads must pay the request/deliver path again,
* removing a feed drops all of its entries.

The cache is internally sharded per feed: every feed owns a private LRU map
and private hit/miss counters, and the optional ``capacity`` bounds each
feed's shard.  Sharding is what lets the parallel epoch engine drive feeds
concurrently — a feed's cache state depends only on that feed's own access
sequence, never on how accesses of *other* feeds interleave with it — so a
parallel fleet run touches each shard from exactly one worker and produces
bit-identical cache behaviour to a serial run.  (It is also the multi-tenant
fairness property: one noisy feed can no longer evict every other tenant's
entries.)
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters (per feed shard, or aggregated)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def merge(self, other: "CacheStats") -> None:
        """Fold another counter set into this one (the single folding site —
        a counter added to the class only needs updating here)."""
        self.hits += other.hits
        self.misses += other.misses
        self.invalidations += other.invalidations
        self.evictions += other.evictions


class _FeedShard:
    """One feed's private LRU map and counters."""

    __slots__ = ("entries", "stats")

    def __init__(self) -> None:
        self.entries: "OrderedDict[str, bytes]" = OrderedDict()
        self.stats = CacheStats()


class ReadCache:
    """Per-feed-sharded LRU cache of verified replicated records."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("cache capacity must be positive when given")
        #: Maximum entries held *per feed shard* (``None`` = unbounded).
        self.capacity = capacity
        self._shards: Dict[str, _FeedShard] = {}
        #: Counters folded in from shards that have been retired (feed
        #: removed, cache cleared), so aggregate statistics survive tenant
        #: churn while a reused feed id starts from zero.
        self._retired = CacheStats()

    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self._shards.values())

    @property
    def stats(self) -> CacheStats:
        """Aggregated counters: every live feed shard plus retired shards."""
        total = CacheStats()
        total.merge(self._retired)
        for shard in self._shards.values():
            total.merge(shard.stats)
        return total

    def _retire(self, shard: _FeedShard) -> None:
        self._retired.merge(shard.stats)

    def shard_stats(self, feed_id: str) -> CacheStats:
        """One feed's private counters (zeros if the feed never touched it)."""
        shard = self._shards.get(feed_id)
        return shard.stats if shard is not None else CacheStats()

    def ensure_shard(self, feed_id: str) -> None:
        """Pre-create a feed's shard.

        Whoever hosts a feed (the scheduler, or a worker lane) calls this
        before the feed's first epoch, so the epoch phases never mutate the
        shard *directory* — each only touches the interior of shards it owns.
        """
        if feed_id not in self._shards:
            self._shards[feed_id] = _FeedShard()

    def _shard(self, feed_id: str) -> _FeedShard:
        shard = self._shards.get(feed_id)
        if shard is None:
            shard = self._shards[feed_id] = _FeedShard()
        return shard

    def get(self, feed_id: str, key: str) -> Optional[bytes]:
        """Return the cached value, counting a hit or a miss."""
        shard = self._shards.get(feed_id)
        if shard is None:
            # A probe of a feed that never cached anything must not allocate
            # a shard; the miss still counts toward the aggregate.
            self._retired.misses += 1
            return None
        entry = shard.entries.get(key)
        if entry is None:
            shard.stats.misses += 1
            return None
        shard.entries.move_to_end(key)
        shard.stats.hits += 1
        return entry

    def put(self, feed_id: str, key: str, value: bytes) -> None:
        """Memoise a value backed by a verified on-chain replica."""
        shard = self._shard(feed_id)
        shard.entries[key] = value
        shard.entries.move_to_end(key)
        if self.capacity is not None:
            while len(shard.entries) > self.capacity:
                shard.entries.popitem(last=False)
                shard.stats.evictions += 1

    def invalidate(self, feed_id: str, key: str) -> bool:
        """Drop one entry (a write or an R→NR transition touched the key)."""
        shard = self._shards.get(feed_id)
        if shard is None:
            return False
        removed = shard.entries.pop(key, None) is not None
        if removed:
            shard.stats.invalidations += 1
        return removed

    def install_shard(
        self, feed_id: str, entries, stats: Optional[CacheStats] = None
    ) -> None:
        """Replace one feed's shard with externally computed contents.

        The process execution backend runs each feed's cache shard inside the
        worker process that owns the feed; the shard travels with the feed
        (:mod:`repro.gateway.feed_state`) — ``entries`` in LRU order (oldest
        first) plus its counters — between lanes and, at run end, back, so
        the main cache ends up exactly as a serial run would have left it.

        A replaced shard's counters retire into the cache-wide aggregate
        first: the installed counters cover only what the *worker* observed,
        so anything the main-side shard counted before the install (a fresh
        run's pre-created shard counts nothing; a reused cache's shard may)
        would otherwise vanish from :attr:`stats`.  Worker counters are never
        folded into the replaced shard, so nothing is double-counted either.
        """
        replaced = self._shards.get(feed_id)
        if replaced is not None:
            self._retire(replaced)
        shard = _FeedShard()
        for key, value in entries:
            shard.entries[key] = value
        if stats is not None:
            shard.stats = stats
        self._shards[feed_id] = shard

    def export_shard(self, feed_id: str) -> Tuple[tuple, CacheStats]:
        """One feed's shard as plain data — the inverse of
        :meth:`install_shard`: ``(key, value)`` entries in LRU order (oldest
        first) plus the shard's counters (empty and zeros if the feed never
        touched the cache).  What a
        :class:`~repro.gateway.feed_state.FeedState` carries when the feed —
        and its shard with it — changes process."""
        shard = self._shards.get(feed_id)
        if shard is None:
            return (), CacheStats()
        return tuple(shard.entries.items()), shard.stats

    def invalidate_feed(self, feed_id: str) -> int:
        """Drop one feed's whole shard (the feed was removed).

        The shard is deregistered — a long-lived gateway with tenant churn
        must not accumulate ghost shards, and a later tenant reusing the feed
        id starts with fresh counters — while its statistics (plus one
        invalidation per dropped entry) fold into the cache-wide aggregate.
        """
        shard = self._shards.pop(feed_id, None)
        if shard is None:
            return 0
        stale = len(shard.entries)
        shard.stats.invalidations += stale
        self._retire(shard)
        return stale

    def clear(self) -> None:
        """Drop every entry and shard; aggregate statistics are preserved."""
        for shard in self._shards.values():
            self._retire(shard)
        self._shards.clear()
