"""Tracing: span trees, pinned clocks, pickle round trips, lane reassembly.

The process-lane merge is the critical property: span trees from worker lanes
must reassemble under per-phase parents in fixed shard order, whatever order
the lanes returned in — the tracing analogue of the engine's deterministic
buffer merge.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.common.clock import ManualClock
from repro.common.errors import ReproError
from repro.obs.tracing import (
    PHASE_ORDER,
    Span,
    Tracer,
    reassemble_shard_spans,
)


class TestManualClock:
    def test_pinned_until_advanced(self):
        clock = ManualClock(start=5.0)
        assert clock() == 5.0
        assert clock() == 5.0
        clock.advance(0.25)
        assert clock() == 5.25

    def test_auto_step(self):
        clock = ManualClock(step=0.5)
        assert [clock(), clock(), clock()] == [0.0, 0.5, 1.0]

    def test_rejects_going_backwards(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            ManualClock(start=-1.0)


class TestStackSpans:
    def test_nesting_builds_the_tree(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("run", mode="serial"):
            with tracer.span("epoch", epoch=0):
                clock.advance(0.25)
                with tracer.span("phase", phase="drive"):
                    clock.advance(0.5)
            with tracer.span("epoch", epoch=1):
                clock.advance(0.125)
        assert len(tracer.roots) == 1
        run = tracer.roots[0]
        assert run.name == "run"
        assert [child.attrs["epoch"] for child in run.children] == [0, 1]
        drive = run.children[0].children[0]
        assert drive.attrs == {"phase": "drive"}
        assert drive.duration == pytest.approx(0.5)
        assert run.duration == pytest.approx(0.875)
        assert tracer.current is None

    def test_find_by_name_and_attrs(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("run"):
            for epoch in range(3):
                with tracer.span("epoch", epoch=epoch):
                    pass
        assert len(tracer.find("epoch")) == 3
        assert len(tracer.find("epoch", epoch=1)) == 1
        assert tracer.find("missing") == []

    def test_out_of_order_close_raises(self):
        tracer = Tracer(clock=ManualClock())
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        with pytest.raises(ReproError):
            outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("run") as span:
            assert span is None
        assert tracer.roots == []
        assert tracer.detached("shard") is None
        tracer.finish(None)
        tracer.adopt(None, None)
        assert tracer.roots == []


class TestDetachedSpans:
    def test_detached_finish_adopt(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("phase", phase="drive") as parent:
            span = tracer.detached("shard", phase="drive", shard=2)
            clock.advance(0.75)
            tracer.finish(span)
            tracer.adopt(parent, span)
        assert parent.children[0] is span
        assert span.duration == pytest.approx(0.75)

    def test_adopt_without_parent_roots_the_span(self):
        tracer = Tracer(clock=ManualClock())
        span = tracer.detached("orphan")
        tracer.finish(span)
        tracer.adopt(None, span)
        assert tracer.roots == [span]


def span_tree(span: Span) -> tuple:
    """A span tree as comparable values (spans compare by identity)."""
    return (
        span.name,
        span.attrs,
        span.start,
        span.end,
        [span_tree(child) for child in span.children],
    )


class TestPickledSpans:
    def test_pickle_round_trip_preserves_tree(self):
        """Lanes ship their spans as themselves, pickled into the epoch frame."""
        clock = ManualClock(step=0.125)
        tracer = Tracer(clock=clock)
        with tracer.span("run", mode="process"):
            with tracer.span("epoch", epoch=3):
                with tracer.span("phase", phase="drive"):
                    pass
        root = tracer.roots[0]
        rebuilt = pickle.loads(pickle.dumps(root))
        assert span_tree(rebuilt) == span_tree(root)
        assert rebuilt.children[0].children[0].duration == pytest.approx(0.125)


def _lane_spans(shard_index: int, phases=PHASE_ORDER[:4]) -> list:
    """One shard's finished spans, as a lane would ship them."""
    clock = ManualClock(start=shard_index * 10.0)
    tracer = Tracer(clock=clock)
    spans = []
    for phase in phases:
        span = tracer.detached("shard", phase=phase, shard=shard_index)
        clock.advance(0.1 * (shard_index + 1))
        tracer.finish(span)
        spans.append(span)
    return spans


class TestReassembleShardSpans:
    def test_fixed_shard_order_whatever_arrival_order(self):
        arrival_orders = [list(range(6)) for _ in range(4)]
        rng = random.Random(7)
        for order in arrival_orders[1:]:
            rng.shuffle(order)
        trees = []
        for order in arrival_orders:
            epoch_span = Span("epoch", {"epoch": 0})
            reassemble_shard_spans(
                epoch_span,
                [(index, _lane_spans(index)) for index in order],
            )
            trees.append(span_tree(epoch_span))
        # All arrival orders produce the identical tree...
        assert all(tree == trees[0] for tree in trees[1:])
        # ...whose phases follow the canonical order, each with its shards
        # sorted by index.
        assert [child.attrs["phase"] for child in epoch_span.children] == list(
            PHASE_ORDER[:4]
        )
        for phase_span in epoch_span.children:
            assert [span.attrs["shard"] for span in phase_span.children] == list(
                range(6)
            )

    def test_durations_survive_the_graft(self):
        epoch_span = Span("epoch", {"epoch": 0})
        reassemble_shard_spans(
            epoch_span, [(index, _lane_spans(index)) for index in (1, 0)]
        )
        drive = epoch_span.children[0]
        assert drive.attrs["phase"] == "drive"
        assert [span.duration for span in drive.children] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
        ]

    def test_lane_labels_attached(self):
        epoch_span = Span("epoch", {"epoch": 0})
        reassemble_shard_spans(
            epoch_span,
            [(0, _lane_spans(0)), (1, _lane_spans(1))],
            lane_of={0: 0, 1: 1},
        )
        for phase_span in epoch_span.children:
            assert [span.attrs["lane"] for span in phase_span.children] == [0, 1]

    def test_empty_and_partial_phases(self):
        epoch_span = Span("epoch", {"epoch": 0})
        grafted = reassemble_shard_spans(
            epoch_span,
            [(0, _lane_spans(0, phases=("drive",))), (1, ())],
        )
        assert [parent.attrs["phase"] for parent in grafted] == ["drive"]
        assert len(epoch_span.children) == 1

    def test_unknown_phase_raises(self):
        epoch_span = Span("epoch", {"epoch": 0})
        rogue = Span("shard", {"phase": "frobnicate", "shard": 0}, end=1.0)
        with pytest.raises(ReproError):
            reassemble_shard_spans(epoch_span, [(0, [rogue])])
