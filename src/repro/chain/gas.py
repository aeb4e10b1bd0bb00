"""The Ethereum gas schedule used throughout the reproduction.

The constants follow Table 2 of the paper (which in turn follows the yellow
paper), expressed per 32-byte word:

==========================  =============================================
Operation                   Gas
==========================  =============================================
Transaction                 ``21000 + 2176 * X`` for ``X`` calldata words
Storage write (insert)      ``20000 * X``
Storage write (update)      ``5000 * X``
Storage read                ``200 * X``
Hash computation            ``30 + 6 * X``
==========================  =============================================

The schedule also carries the LOG-event pricing (used by GRuB's ``request``
events).

:class:`GasLedger` attributes consumed gas to named categories and layers so
experiments can report feed-layer versus application-layer gas the way the
paper's Table 3 does.  It additionally attributes gas to *scopes* — free-form
tenant identifiers (one per hosted feed in the multi-tenant gateway) — so a
fleet of feeds sharing one chain can each be billed exactly the gas they
caused, including their fair share of batched transactions that serve several
feeds at once (see :func:`split_transaction_cost`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.common.encoding import words_for_bytes


@dataclass(frozen=True)
class GasSchedule:
    """Per-operation gas pricing (Table 2 of the paper).

    All ``*_per_word`` figures are charged per 32-byte word, rounding the
    payload size up.
    """

    transaction_base: int = 21_000
    transaction_word: int = 2_176
    storage_insert_per_word: int = 20_000
    storage_update_per_word: int = 5_000
    storage_read_per_word: int = 200
    hash_base: int = 30
    hash_per_word: int = 6
    log_base: int = 375
    log_topic: int = 375
    log_data_per_byte: int = 8
    call_base: int = 700
    memory_per_word: int = 3

    def transaction_cost(self, calldata_words: int) -> int:
        """Intrinsic cost of a transaction carrying ``calldata_words`` words."""
        if calldata_words < 0:
            raise ValueError("calldata words must be non-negative")
        return self.transaction_base + self.transaction_word * calldata_words

    def storage_insert_cost(self, words: int) -> int:
        return self.storage_insert_per_word * max(0, words)

    def storage_update_cost(self, words: int) -> int:
        return self.storage_update_per_word * max(0, words)

    def storage_read_cost(self, words: int) -> int:
        return self.storage_read_per_word * max(0, words)

    def hash_cost(self, words: int) -> int:
        return self.hash_base + self.hash_per_word * max(0, words)

    def log_cost(self, num_topics: int, data_bytes: int) -> int:
        return (
            self.log_base
            + self.log_topic * max(0, num_topics)
            + self.log_data_per_byte * max(0, data_bytes)
        )

    def memory_cost(self, words: int) -> int:
        return self.memory_per_word * max(0, words)

    @property
    def replication_threshold_k(self) -> int:
        """The paper's Equation 1: ``K = C_update / C_read_off`` (word units).

        ``C_update`` is the per-word cost of updating on-chain storage and
        ``C_read_off`` the per-word cost of moving a word on chain in calldata.
        With the default schedule this is ``5000 / 2176 ≈ 2``, the value the
        paper uses for its 2-competitive configuration.
        """
        return max(1, round(self.storage_update_per_word / self.transaction_word))


#: Gas-attribution layer for the data-feed protocol itself.
LAYER_FEED = "feed"
#: Gas-attribution layer for application logic built on the feed.
LAYER_APPLICATION = "application"


@dataclass(slots=True)
class GasLedger:
    """Accumulates gas charges attributed to categories and layers.

    Categories are free-form strings such as ``"transaction"``, ``"sstore"``,
    ``"sload"``, ``"hash"``, ``"log"``; layers distinguish the data-feed
    protocol from application logic running in DU callbacks.  Slotted because
    every gas charge in the simulator lands here.
    """

    total: int = 0
    by_category: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    by_layer: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: (scope, layer) → gas.  A scope is a tenant identifier (a feed id in the
    #: multi-tenant gateway); charges with ``scope=None`` are not scoped.
    by_scope: Dict[Tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))

    def charge(
        self,
        amount: int,
        category: str,
        layer: str = LAYER_FEED,
        scope: Optional[str] = None,
    ) -> int:
        """Record ``amount`` gas against ``category`` within ``layer``."""
        if amount < 0:
            raise ValueError("gas charges must be non-negative")
        self.total += amount
        self.by_category[category] += amount
        self.by_layer[layer] += amount
        if scope is not None:
            self.by_scope[(scope, layer)] += amount
        return amount

    def scope_total(self, scope: str, layer: Optional[str] = None) -> int:
        """Gas attributed to ``scope`` (within ``layer``, or across all layers)."""
        if layer is not None:
            return self.by_scope.get((scope, layer), 0)
        return sum(
            amount for (owner, _), amount in self.by_scope.items() if owner == scope
        )

    def scopes(self) -> List[str]:
        """All scope identifiers that have been charged, sorted."""
        return sorted({owner for owner, _ in self.by_scope})

    def layer_total(self, layer: str) -> int:
        return self.by_layer.get(layer, 0)

    @property
    def feed_total(self) -> int:
        return self.layer_total(LAYER_FEED)

    @property
    def application_total(self) -> int:
        return self.layer_total(LAYER_APPLICATION)

    def merge(self, other: "GasLedger") -> None:
        """Fold another ledger's charges into this one."""
        self.total += other.total
        for category, amount in other.by_category.items():
            self.by_category[category] += amount
        for layer, amount in other.by_layer.items():
            self.by_layer[layer] += amount
        for scope_layer, amount in other.by_scope.items():
            self.by_scope[scope_layer] += amount

    def since(self, before: "GasLedger") -> "GasLedger":
        """The charges made since ``before`` (an earlier copy of this ledger).

        Entries whose delta is zero are omitted, so merging the delta into
        another ledger creates exactly the entries the charges would have
        created had they been made there directly.
        """
        delta = GasLedger(total=self.total - before.total)
        for mine, theirs, out in (
            (self.by_category, before.by_category, delta.by_category),
            (self.by_layer, before.by_layer, delta.by_layer),
            (self.by_scope, before.by_scope, delta.by_scope),
        ):
            for key, amount in mine.items():
                change = amount - theirs.get(key, 0)
                if change:
                    out[key] = change
        return delta


def split_transaction_cost(
    schedule: GasSchedule, calldata_by_scope: Mapping[str, int]
) -> Dict[str, int]:
    """Split a batched transaction's intrinsic cost across the scopes it serves.

    A gateway transaction (a cross-feed ``deliver`` or ``update`` batch)
    carries one group of calldata per feed.  Each feed owes exactly the
    calldata-word cost of its own group (each group is ABI-rounded to whole
    words, as it would be on a real chain), while the 21k transaction *base*
    cost — the amortisable part — is divided evenly across the feeds served,
    with any integer remainder assigned to the lexicographically first feeds
    so the shares always sum to the charged total (no gas is double-counted
    and none is dropped).

    Returns scope → gas share; the transaction's total intrinsic cost is the
    sum of the shares.
    """
    if not calldata_by_scope:
        raise ValueError("cannot split a transaction across zero scopes")
    scopes = sorted(calldata_by_scope)
    base_share, base_remainder = divmod(schedule.transaction_base, len(scopes))
    shares: Dict[str, int] = {}
    for index, scope in enumerate(scopes):
        words = words_for_bytes(max(0, calldata_by_scope[scope]))
        shares[scope] = (
            base_share
            + (1 if index < base_remainder else 0)
            + schedule.transaction_word * words
        )
    return shares
