"""The gateway owns the interpreter's cyclic collector while it runs.

What a gateway run keeps alive is long-lived by construction — the preloaded
Merkle trees and SP stores, the contracts, a chain log that only grows — and
its epochs make no reference cycles at all (on the serial benchmark workloads
and behind the door no collection, young or full, has ever found one).  Left
to itself, CPython's collector still trips every few hundred container
allocations, mid-drive and mid-settle, and every so often re-walks the whole
heap looking for cycles that are not there.
:class:`CollectorOwner` turns that into something the run decides:

* on entry everything built so far is **frozen** (``gc.freeze()``: moved to
  the permanent generation, which no collection walks — and which forked lanes
  therefore share copy-on-write instead of dirtying page by page), and
  automatic collection is switched off;
* :meth:`CollectorOwner.boundary` collects at **epoch boundaries** — after
  settle feedback, before the next poll, and in front of an idle gateway's
  blocking wait — never inside an epoch.  The young generations are collected
  once the interpreter's own gen-0 threshold is reached.  A **full** collection
  (everything unfrozen) is taken

  - by CPython's own growth ratio — survivors promoted since the last full
    collection outgrow a quarter of the old generation it left
    (``long_lived_pending`` vs ``long_lived_total``, which the interpreter
    keeps but does not expose) — *once a collection of this ownership has
    found a cycle*: that is the evidence the program makes them, and it holds
    until a full collection comes back empty;
  - and, where the run can go on forever (a live request source, and every
    lane, which cannot see whether its run ends), as insurance whenever the
    survivors outnumber the old generation, cycles seen or not — so what a
    never-ending run holds at most doubles between two full collections.  It
    falls due at one boundary and is taken at the next, which for a gateway
    that idles is the one in front of its blocking wait.

  A batch run ends with its workload, and with it this ownership; what it
  promoted the interpreter's own bookkeeping has counted all along.
* on exit — every exit path — the interpreter gets its collector back exactly
  as it was: enabled or not, frozen heap or not, thresholds never touched.

Every number used is one the interpreter already has (``gc.get_count()``,
``gc.get_threshold()``, ``gc.get_freeze_count()``, what ``gc.collect()``
returns); there is nothing to tune.

The interpreter has one collector, so ownership is process-wide and counted:
the first owner in freezes and switches off, the last one out restores, and
owners in between (the front door's scheduler thread, a second scheduler, a
lane forked from an owning process) share the one heap's bookkeeping.
"""

from __future__ import annotations

import gc
import threading
from typing import Optional

from repro.obs import DISABLED, Observability


class _Heap:
    """The process's one collector: who owns it, what to restore, and the
    growth bookkeeping behind "is a full collection due"."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.owners = 0
        self.was_enabled = True
        #: Whether this ownership froze the heap (a caller who had frozen it
        #: already keeps the permanent generation as they left it).
        self.froze = False
        #: Objects in the old generation as the last full collection left it
        #: (at first: the permanent generation on entry — read once, because
        #: ``gc.get_freeze_count()`` walks it), and the survivors young
        #: collections have promoted into it since.  Both are estimates from
        #: ``gc.get_count()`` — allocations minus deallocations of tracked
        #: containers — so an old object that dies by reference count is
        #: credited back, which only sharpens them.
        self.old = 0
        self.pending = 0
        #: Unreachable objects this ownership's collections have found since
        #: (and including) its last full one.
        self.reclaimed = 0

    def acquire(self) -> None:
        with self.lock:
            self.owners += 1
            if self.owners > 1:
                return
            self.was_enabled = gc.isenabled()
            self.froze = not gc.get_freeze_count()
            if self.froze:
                gc.freeze()
            gc.disable()
            self.old = gc.get_freeze_count()
            self.pending = self.reclaimed = 0

    def release(self) -> None:
        with self.lock:
            self.owners -= 1
            if self.owners:
                return
            if self.froze:
                gc.unfreeze()
            if self.was_enabled:
                gc.enable()

    def collect(self, insure: bool) -> Optional[int]:
        """Take the collection this boundary calls for; returns the
        generation collected, or ``None`` when none was due."""
        with self.lock:
            young = gc.get_count()[0]
            pending, old = self.pending, self.old
            if (insure and pending > old) or (self.reclaimed and pending * 4 > old):
                generation = 2
            elif young >= gc.get_threshold()[0]:
                generation = 1
            else:
                return None
            found = gc.collect(generation)
            if generation == 2:
                self.old = max(0, old + pending + young - found)
                self.pending = 0
                self.reclaimed = found
            else:
                self.pending = pending + max(0, young - found)
                self.reclaimed += found
            return generation


_HEAP = _Heap()


class CollectorOwner:
    """One run's hold on the collector (see the module docstring).

    A context manager; :meth:`boundary` is called wherever the run stands at
    an epoch boundary.  With an enabled ``obs`` every collection taken is
    counted (``runtime_gc_collections_total{generation}``) and timed
    (``runtime_gc_seconds``), so an export answers what collection cost the
    run; :attr:`collections` counts them either way.
    """

    def __init__(self, obs: Observability = DISABLED) -> None:
        self.obs = obs
        self.collections = 0

    def __enter__(self) -> "CollectorOwner":
        _HEAP.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        _HEAP.release()

    def boundary(self, insure: bool = False) -> None:
        """The run is between epochs: collect what is due, if anything.
        ``insure`` says this run can go on forever."""
        obs = self.obs
        started = obs.tracer.clock() if obs.enabled else 0.0
        generation = _HEAP.collect(insure)
        if generation is None:
            return
        self.collections += 1
        if obs.enabled:
            seconds = obs.tracer.clock() - started
            obs.counter(
                "runtime_gc_collections_total", generation=str(generation)
            ).inc()
            obs.histogram("runtime_gc_seconds").observe(seconds)
