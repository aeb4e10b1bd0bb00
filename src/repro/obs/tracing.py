"""Per-run trace trees: spans over the epoch engine's phases.

A :class:`Span` is one timed region with string-keyed attributes and child
spans; a run's spans form a tree — run → epoch → phase → shard — rooted at
the :class:`Tracer`.  Time comes from an injectable
:data:`~repro.common.clock.MonotonicClock` (``time.perf_counter`` by
default, a :class:`~repro.common.clock.ManualClock` in tests), never from the
chain's simulated clock, and nothing downstream of a span ever reads it back:
tracing observes the run, it cannot steer it.

Two attachment disciplines, one tree:

* **Stack spans** (:meth:`Tracer.span`) — the context-manager form for code
  that runs on the orchestrating thread: each span opens under the innermost
  open span and closes in LIFO order.
* **Detached spans** (:meth:`Tracer.detached`) — spans measured where the
  work runs, which may be another process (the epoch body timing one shard's
  phase, inline or inside a worker lane).  They are created unattached,
  finished where the work ran, and adopted into a parent afterwards **in
  fixed shard order** — the same discipline the engine's deterministic merge
  applies to execution buffers, so the assembled tree is identical however
  the work interleaved.

Spans cross the process boundary the way every other per-epoch delta does:
as themselves, pickled into the lane's epoch frame.  A shipped span carries
its duration and its own clock's timestamps; timestamps from different
processes share no epoch, so cross-process ordering always comes from the
merge discipline, not from comparing clocks.  :func:`reassemble_shard_spans`
is that discipline for worker lanes: given each shard's spans, it grafts them
under per-phase parents sorted by shard index, whatever order the lanes
returned in.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.clock import DEFAULT_MONOTONIC, MonotonicClock
from repro.common.errors import ReproError


class Span:
    """One timed region of a run, with attributes and children."""

    __slots__ = ("name", "attrs", "start", "end", "children")

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict[str, object]] = None,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> None:
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.start = start
        self.end = end
        self.children: List["Span"] = []

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def child(self, name: str, **attrs: object) -> "Span":
        """Attach and return a new (unstarted) child span."""
        span = Span(name, attrs)
        self.children.append(span)
        return span

    def walk(self) -> Iterable["Span"]:
        """Depth-first pre-order over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str, **attrs: object) -> List["Span"]:
        """Every descendant (or self) matching ``name`` and all given attrs."""
        return [
            span
            for span in self.walk()
            if span.name == name
            and all(span.attrs.get(key) == value for key, value in attrs.items())
        ]


class _SpanContext:
    """Context manager binding one stack span to a tracer."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._close(self.span)


class _NullSpanContext:
    """The shared no-op context a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> Optional[Span]:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN_CONTEXT = _NullSpanContext()


class Tracer:
    """Builds a run's span tree against an injectable monotonic clock."""

    def __init__(
        self,
        clock: Optional[MonotonicClock] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.clock: MonotonicClock = clock if clock is not None else DEFAULT_MONOTONIC
        #: Finished (or in-flight) top-level spans, in start order.
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- stack spans (orchestrating thread) ------------------------------------

    def span(self, name: str, **attrs: object):
        """Open a span under the innermost open span (context manager)."""
        if not self.enabled:
            return _NULL_SPAN_CONTEXT
        span = Span(name, attrs, start=self.clock())
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ReproError(
                f"span {span.name!r} closed out of order; stack spans close LIFO"
            )
        self._stack.pop()
        span.end = self.clock()

    @property
    def current(self) -> Optional[Span]:
        """The innermost open stack span, if any."""
        return self._stack[-1] if self._stack else None

    # -- detached spans (per-shard work, possibly in a worker process) ---------

    def detached(self, name: str, **attrs: object) -> Optional[Span]:
        """Start an unattached span.

        Touches no tracer state, only the clock.  Finish it with
        :meth:`finish`, then :meth:`adopt` it into a parent (or ship it to
        another process), in deterministic order.
        Returns ``None`` when the tracer is disabled (callers pass it along
        unconditionally; ``finish``/``adopt`` ignore ``None``).
        """
        if not self.enabled:
            return None
        return Span(name, attrs, start=self.clock())

    def finish(self, span: Optional[Span]) -> None:
        """Stamp a detached span's end time (no-op on ``None``)."""
        if span is not None:
            span.end = self.clock()

    def adopt(self, parent: Optional[Span], span: Optional[Span]) -> None:
        """Attach a finished detached span under ``parent``.

        The caller owns the ordering: adopt in fixed shard order so the tree
        is identical whatever the execution interleaving was.
        """
        if span is None:
            return
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)

    # -- whole-tree queries ----------------------------------------------------

    def find(self, name: str, **attrs: object) -> List[Span]:
        """Every span matching ``name``/attrs across all roots."""
        return [
            span for root in self.roots for span in root.find(name, **attrs)
        ]

#: Fixed phase order of one engine epoch — the order phase spans appear in
#: under an epoch span, and the order lane spans are reassembled in.
PHASE_ORDER = ("drive", "deliver", "update", "settle", "merge")


def reassemble_shard_spans(
    epoch_span: Span,
    shard_spans: Sequence[Tuple[int, Sequence[Span]]],
    *,
    phase_order: Sequence[str] = PHASE_ORDER,
    lane_of: Optional[Mapping[int, int]] = None,
) -> List[Span]:
    """Graft worker-lane spans under per-phase parents, in fixed shard order.

    ``shard_spans`` maps shard index → that shard's finished spans
    (each tagged with a ``phase`` attr by the worker).  Lanes return results
    in whatever order they are read; this function imposes the canonical
    structure: one ``phase`` span per phase (in ``phase_order``) whose
    children are the shards' spans sorted by shard index — exactly the tree a
    serial run produces, which is what makes trace output comparable across
    execution modes.  Phase spans carry no main-side timing of their own
    (``start == end == 0``): in process mode the phase's real time lives in
    the per-shard lane spans.  Returns the phase spans that received at least
    one child.
    """
    by_phase: Dict[str, List[Tuple[int, Span]]] = {}
    for shard_index, spans in sorted(shard_spans, key=lambda item: item[0]):
        for span in spans:
            span.attrs.setdefault("shard", shard_index)
            if lane_of is not None and shard_index in lane_of:
                span.attrs.setdefault("lane", lane_of[shard_index])
            phase = str(span.attrs.get("phase", span.name))
            by_phase.setdefault(phase, []).append((shard_index, span))
    grafted: List[Span] = []
    for phase in phase_order:
        shards = by_phase.pop(phase, None)
        if not shards:
            continue
        parent = epoch_span.child("phase", phase=phase, mode="process")
        parent.end = parent.start  # synthetic container: no main-side timing
        for _, span in sorted(shards, key=lambda item: item[0]):
            parent.children.append(span)
        grafted.append(parent)
    if by_phase:
        unknown = sorted(by_phase)
        raise ReproError(f"lane spans carry unknown phases: {unknown}")
    return grafted
