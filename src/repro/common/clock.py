"""Clocks: the deterministic simulated chain clock and the monotonic runtime
clock.

The consistency analysis in the paper (Theorems 3.1/3.2, Appendix E) reasons
about a hypothetical global clock shared by the data owner and every
blockchain node.  The simulator makes that clock explicit: every component
that needs time (epoch batching on the DO, block production, transaction
propagation, finality) reads the same :class:`SimulatedClock` so experiments
are fully deterministic and the freshness bounds can be checked exactly.

Separately, the observability plane (:mod:`repro.obs`) measures the *runtime
itself* — how long the engine's phases actually take on this host.  That is
wall time, not simulated time, and it must never feed back into any
scheduling or accounting decision (tracing is zero-entropy with respect to
correctness).  :data:`MonotonicClock` is the injectable contract for that
clock: any zero-argument callable returning monotonically non-decreasing
seconds.  Production uses :func:`time.perf_counter` (via
:data:`DEFAULT_MONOTONIC`); tests inject a :class:`ManualClock` to pin time
and make span durations exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

#: The injectable monotonic-clock contract: call it, get seconds.  Any
#: zero-argument callable returning non-decreasing floats qualifies.
MonotonicClock = Callable[[], float]

#: The production monotonic clock (wall time, unrelated to the chain clock).
DEFAULT_MONOTONIC: MonotonicClock = time.perf_counter


class ManualClock:
    """A pinnable :data:`MonotonicClock` for tests.

    Reads return the current pinned time; :meth:`advance` moves it forward
    explicitly, so a test can make a span last exactly 0.25s.  ``step`` makes
    every *read* auto-advance the clock by a fixed amount — handy for
    generating distinct, deterministic timestamps without sprinkling
    ``advance`` calls.
    """

    __slots__ = ("now", "step")

    def __init__(self, start: float = 0.0, step: float = 0.0) -> None:
        if start < 0 or step < 0:
            raise ValueError("ManualClock start/step must be non-negative")
        self.now = float(start)
        self.step = float(step)

    def __call__(self) -> float:
        value = self.now
        if self.step:
            self.now += self.step
        return value

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot advance a monotonic clock backwards")
        self.now += seconds
        return self.now


@dataclass
class SimulatedClock:
    """Monotonic simulated time in abstract seconds."""

    now: float = 0.0

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds``."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self.now += seconds
        return self.now
