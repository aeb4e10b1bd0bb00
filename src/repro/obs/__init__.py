"""The observability plane: tracing + metrics for the gateway fleet.

:class:`Observability` bundles the two halves every instrumented layer needs —
a :class:`~repro.obs.metrics.MetricsRegistry` of counters/gauges/histograms
and a :class:`~repro.obs.tracing.Tracer` building the per-run span tree — and
adds the one convenience the engine uses everywhere: :meth:`Observability.phase`,
a context manager that opens a span *and* observes its duration into the
matching latency histogram when it closes.

The plane is strictly **zero-entropy with respect to correctness**: nothing
recorded here is ever read back by scheduling, gas accounting or state
transitions, so fingerprints, gas bills and chain state are bit-identical
with observability enabled or disabled, across every execution backend.
Disabled observability is near-free: instrumented layers hold ``obs = None``
or the shared :data:`DISABLED` instance, and every call site guards on one
attribute test before doing any work.

Usage::

    from repro.obs import Observability

    obs = Observability()                       # enabled, perf_counter clock
    scheduler = EpochScheduler(registry, ..., obs=obs)
    scheduler.run(epochs=8)
    print(obs.render_report())
    obs.export_jsonl_file("trace.jsonl", meta={"mode": "serial"})
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.common.clock import MonotonicClock
from repro.obs.export import (
    export_jsonl,
    export_prometheus,
    format_duration,
    render_report,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REPORT_PERCENTILES,
    log_buckets,
    percentile_reference,
)
from repro.obs.tracing import (
    PHASE_ORDER,
    Span,
    Tracer,
    reassemble_shard_spans,
)

__all__ = [
    "Observability",
    "DISABLED",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "log_buckets",
    "percentile_reference",
    "REPORT_PERCENTILES",
    "Tracer",
    "Span",
    "reassemble_shard_spans",
    "PHASE_ORDER",
    "export_jsonl",
    "export_prometheus",
    "render_report",
    "format_duration",
]

#: Histogram name every engine phase span reports its duration into.
PHASE_HISTOGRAM = "gateway_phase_seconds"


class _PhaseContext:
    """Span-plus-histogram context: times a phase, records both views."""

    __slots__ = ("obs", "name", "attrs", "context", "span")

    def __init__(self, obs: "Observability", name: str, attrs: Dict[str, object]) -> None:
        self.obs = obs
        self.name = name
        self.attrs = attrs
        self.context = obs.tracer.span("phase", phase=name, **attrs)
        self.span = None

    def __enter__(self) -> Optional[Span]:
        self.span = self.context.__enter__()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.context.__exit__(exc_type, exc, tb)
        if self.span is not None:
            self.obs.observe_phase(self.name, self.span.duration)


class Observability:
    """One registry + one tracer, sharing an enabled flag and a clock."""

    def __init__(
        self,
        enabled: bool = True,
        clock: Optional[MonotonicClock] = None,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(clock=clock, enabled=enabled)

    # -- instrument passthrough ------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, buckets=None, **labels: str) -> Histogram:
        return self.registry.histogram(name, buckets=buckets, **labels)

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, **attrs: object):
        return self.tracer.span(name, **attrs)

    def phase(self, name: str, **attrs: object):
        """Open a ``phase`` span and, on close, observe its duration into
        ``gateway_phase_seconds{phase=name}``."""
        if not self.enabled:
            return self.tracer.span(name)  # the shared null context
        return _PhaseContext(self, name, dict(attrs))

    def observe_phase(self, name: str, seconds: float) -> None:
        """Record one phase duration (used directly when the span was timed
        elsewhere — e.g. a worker lane across the process boundary)."""
        self.registry.histogram(PHASE_HISTOGRAM, phase=name).observe(seconds)

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return self.registry.snapshot()

    def export_jsonl(self, *, meta: Optional[Mapping[str, object]] = None) -> str:
        return export_jsonl(self.registry, self.tracer, meta=meta)

    def export_jsonl_file(
        self, path, *, meta: Optional[Mapping[str, object]] = None
    ) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.export_jsonl(meta=meta))

    def export_prometheus(self) -> str:
        return export_prometheus(self.registry)

    def render_report(self, *, title: str = "Observability report") -> str:
        return render_report(self.registry, self.tracer, title=title)

    def phase_percentiles(self) -> Dict[str, Dict[str, Optional[float]]]:
        """``{phase: {"p50": …, "p95": …, "p99": …}}`` for every instrumented
        phase — the record benchmarks embed next to ops/sec."""
        out: Dict[str, Dict[str, Optional[float]]] = {}
        for histogram in self.registry.histograms(PHASE_HISTOGRAM):
            labels = dict(histogram.labels)
            out[labels.get("phase", "?")] = {
                "count": histogram.count,
                **histogram.report_percentiles(),
            }
        return out


#: The shared disabled instance instrumented layers default to.
DISABLED = Observability(enabled=False)
