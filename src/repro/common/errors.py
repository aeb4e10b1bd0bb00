"""Exception hierarchy for the GRuB reproduction.

Every error raised by this package derives from :class:`ReproError`, so callers
can catch a single base class at system boundaries (examples, benchmarks) while
tests can assert on the precise subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class IntegrityError(ReproError):
    """Raised when an authenticated-data-structure check fails.

    This is the error the storage-manager contract raises when the untrusted
    storage provider presents a record, proof or digest that does not verify
    against the on-chain root hash (forged, replayed, omitted or forked data).
    """


class FreshnessError(ReproError):
    """Raised when a query result violates the epoch-bounded freshness guarantee."""


class OutOfGasError(ReproError):
    """Raised when a metered execution exceeds its gas allowance."""

    def __init__(self, requested: int, remaining: int) -> None:
        super().__init__(
            f"out of gas: requested {requested} with only {remaining} remaining"
        )
        self.requested = requested
        self.remaining = remaining

    def __reduce__(self):
        # Exceptions cross process boundaries pickled, and the default
        # rebuilds from ``args`` — the one formatted message, which this
        # signature cannot take back.
        return type(self), (self.requested, self.remaining)


class StorageError(ReproError):
    """Raised by the off-chain key-value store on invalid operations."""


class ContractError(ReproError):
    """Raised when a simulated smart contract reverts.

    Mirrors a Solidity ``revert``: the enclosing transaction is aborted and its
    state changes are rolled back by the chain simulator.
    """


class ConfigurationError(ReproError):
    """Raised when a system or algorithm is configured with invalid parameters."""


class WireError(ReproError):
    """Raised when bytes that crossed a process boundary are not what they
    should be: they do not open, hold another type, or belong to another
    feed or epoch than the one they were handed over as."""


class LaneDied(ReproError):
    """Raised when a worker lane's process is gone: its pipe broke while the
    main process sent it an order or awaited its reply.

    ``phase`` names the order that went unanswered — ``start``, ``epochs``,
    ``install``, ``migrate_out``, ``teardown`` or ``collect`` — and ``epoch``
    the epoch it was for (for an order placed between epochs, the first epoch
    not yet merged).
    """

    def __init__(self, lane: int, epoch: int, phase: str) -> None:
        super().__init__(
            f"lane {lane} died before answering its {phase} order for epoch {epoch}"
        )
        self.lane = lane
        self.epoch = epoch
        self.phase = phase

    def __reduce__(self):
        return type(self), (self.lane, self.epoch, self.phase)
