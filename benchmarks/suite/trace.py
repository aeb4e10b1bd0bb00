"""Benchmark-side tracing: timers wrapped around the program's entry points.

The program is not edited.  :class:`LayerTrace` replaces the public methods
named in :data:`ENTRY_POINTS` with timing wrappers for the duration of one
repetition and puts the originals back afterwards.  Every call becomes a span
``(name, start, end, parent)`` kept in memory; the spans are written out when
the benchmark ends, and a layer's *self time* is its spans' duration minus the
part their child spans cover.

Only the process that installed the trace records: a lane forked while the
wrappers are in place runs the originals straight through, so lane-side work
stays visible only through ``fleet.ipc`` and the spans lanes ship home.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.ads.authenticated_kv import AuthenticatedKVStore
from repro.ads.merkle import MerkleTree
from repro.chain.chain import Blockchain
from repro.core.control_plane import ControlPlane
from repro.core.data_owner import DataOwner
from repro.core.grub import GrubSystem
from repro.core.service_provider import ServiceProvider
from repro.gateway import GasAwareShardPlanner, RoundRobinPlanner
from repro.storage.lsm import LSMStore


def _second_argument_length(args: tuple) -> int:
    return len(args[1])


#: ``(span name, class, method, work counter)``: the layer boundaries timed.
#: A counter maps the call's positional arguments to units of work (keys).
ENTRY_POINTS: Tuple[Tuple[str, type, str, Optional[Callable[[tuple], int]]], ...] = (
    ("core.drive", GrubSystem, "drive_operation", None),
    ("core.prepare_update", DataOwner, "prepare_epoch_update", None),
    ("core.deliver_build", ServiceProvider, "build_deliver_items", None),
    ("core.decide", ControlPlane, "run_epoch", None),
    ("ads.query", AuthenticatedKVStore, "query_many", _second_argument_length),
    ("ads.apply", AuthenticatedKVStore, "apply_updates", _second_argument_length),
    ("ads.prove", MerkleTree, "prove_many", None),
    ("ads.recompute", MerkleTree, "recompute_paths", None),
    ("chain.exec", Blockchain, "execute_internal_call", None),
    ("chain.exec", Blockchain, "execute_call", None),
    ("chain.mine", Blockchain, "mine_block", None),
    ("chain.mine", Blockchain, "mine_recorded_block", None),
    ("chain.absorb", Blockchain, "absorb", None),
    ("storage.put", LSMStore, "put", None),
    ("storage.get", LSMStore, "get", None),
    ("storage.flush", LSMStore, "flush", None),
    ("storage.compact", LSMStore, "compact", None),
    ("gateway.plan", RoundRobinPlanner, "plan", None),
    ("gateway.plan", GasAwareShardPlanner, "plan", None),
)


class LayerTrace:
    """In-memory span recorder plus the GC pause meter of one repetition."""

    def __init__(self) -> None:
        self.names: List[str] = []
        #: One ``[name index, start, end, parent span index or -1]`` per call.
        self.spans: List[list] = []
        self.work: Dict[str, int] = {}
        self.gc_pause_s = 0.0
        self.gc_gen2_collections = 0
        self._stacks: Dict[int, List[int]] = {}
        self._patched: List[Tuple[type, str, Callable]] = []
        self._gc_started = 0.0
        self._pid: Optional[int] = None

    # -- install / remove -----------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        self._pid = os.getpid()
        for name, owner, method, counter in ENTRY_POINTS:
            original = owner.__dict__[method]
            setattr(owner, method, self._wrap(name, original, counter))
            self._patched.append((owner, method, original))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, method, original in reversed(self._patched):
            setattr(owner, method, original)
        self._patched.clear()

    def _wrap(self, name: str, original: Callable, counter) -> Callable:
        if name not in self.names:
            self.names.append(name)
            self.work[name] = 0
        index = self.names.index(name)
        spans = self.spans
        stacks = self._stacks
        clock = time.perf_counter
        get_ident = threading.get_ident
        getpid = os.getpid

        def timed(*args, **kwargs):
            if getpid() != self._pid:
                return original(*args, **kwargs)
            stack = stacks.get(get_ident())
            if stack is None:
                stack = stacks[get_ident()] = []
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            position = len(spans)
            spans.append(span)
            stack.append(position)
            if counter is not None:
                self.work[name] += counter(args)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return timed

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_started
        if info["generation"] == 2:
            self.gc_gen2_collections += 1

    # -- read-out -------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time skips a span nested inside another of the same name
        (``execute_call`` reaching ``execute_internal_call``), so a layer's
        seconds never count one interval twice.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        out = {
            name: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
            for name in self.names
        }
        for index, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for position, (index, start, end, parent) in enumerate(spans):
            row = out[self.names[index]]
            row["calls"] += 1
            row["self_seconds"] += end - start - covered[position]
            while parent >= 0 and spans[parent][0] != index:
                parent = spans[parent][3]
            if parent < 0:
                row["seconds"] += end - start
        return out

    def dump(self, path) -> None:
        """Write every span (and the per-layer totals) as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "span_fields": ["name", "start", "end", "parent"],
                    "names": self.names,
                    "totals": self.totals(),
                    "work": self.work,
                    "gc_pause_s": self.gc_pause_s,
                    "gc_gen2_collections": self.gc_gen2_collections,
                    "spans": self.spans,
                },
                handle,
            )
