"""The host-speed reference: a fixed slice of work timed beside every repetition.

The benchmark's hosts are a few virtual CPUs of a shared machine whose speed
moves by a factor of 1.5-2 over minutes with what the neighbours do (README,
"Why the timings are host-normalised").  No estimator over wall-clock
repetitions survives that - median, fastest and fastest-quartile alike spread
by 0.15-0.29 of their median between runs of the same code - so every
timed section is bracketed by two *reference slices*: a frozen piece of
benchmark-owned work of the same kind the program does (dictionary lookups
over a store far larger than the CPU caches, SHA-256 of short strings, small
byte-string and list allocation), timed on the same thread immediately before
and after.  A timing is reported as the median over repetitions of
``timing * NOMINAL_SLICE_SECONDS / slice seconds``: the seconds it would have
taken had the host run at the speed at which one slice takes
``NOMINAL_SLICE_SECONDS`` (the quiet recording host).

The slice never changes: it is the unit the normalised timings are expressed
in, so editing it (or the constants below) re-bases every recorded number.
It touches nothing of the program and holds only objects the cyclic garbage
collector does not track, so the program's collections neither pay for the
reference store nor are triggered by a slice.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from array import array
from typing import List

#: Records in the reference store (keys and values are ``bytes``; ~100 MiB).
RECORDS = 600_000
#: Records one slice reads (one in eight is also rewritten).
PICKS = 30_000
#: Distinct pick sequences, used in rotation, so no slice finds the records
#: of the previous one still in the CPU caches.
ROTATION = 8
#: What one slice takes on the recording host while its neighbours are quiet;
#: normalised timings equal wall-clock timings on such a host.
NOMINAL_SLICE_SECONDS = 0.066

clock = time.perf_counter


def _resident_mib() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class Reference:
    """The reference store and the slice run over it."""

    def __init__(self, records: int = RECORDS, picks: int = PICKS) -> None:
        """The default sizes define the unit; others are for the smoke test."""
        rng = random.Random("benchmarks/suite reference store")
        resident = _resident_mib()
        self._keys = tuple(b"key-%08d" % index for index in range(records))
        self._store = {key: rng.randbytes(32) for key in self._keys}
        self._picks = [
            array("l", (rng.randrange(records) for _ in range(picks)))
            for _ in range(ROTATION)
        ]
        self._turn = 0
        #: What the store added to this process's resident set (and so to
        #: that of every lane forked from it): not the program's memory.
        self.resident_mib = max(0.0, _resident_mib() - resident)
        #: Seconds of every slice run so far, in order.
        self.slices: List[float] = []

    def slice(self) -> float:
        """Run one slice; its wall-clock seconds.

        Hash every picked record into a leaf, rewrite one record in eight,
        then fold the leaves pairwise into one digest - a miniature of an
        epoch's authenticated-store work.
        """
        keys, store, sha256 = self._keys, self._store, hashlib.sha256
        picks = self._picks[self._turn % ROTATION]
        self._turn += 1
        started = clock()
        level = []
        for index in picks:
            key = keys[index]
            value = store[key]
            level.append(sha256(key + value).digest())
            if not index & 7:
                store[key] = sha256(value).digest()
        while len(level) > 1:
            level = [
                sha256(level[at] + level[at + 1]).digest()
                for at in range(0, len(level) - 1, 2)
            ]
        seconds = clock() - started
        self.slices.append(seconds)
        return seconds


def normalised(seconds: float, before: float, after: float) -> float:
    """``seconds`` on the nominal host, given the slices bracketing it."""
    return seconds * NOMINAL_SLICE_SECONDS / (0.5 * (before + after))
