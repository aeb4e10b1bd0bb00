"""Exporters for the observability plane: JSONL events, Prometheus text, and
the operator report.

Three consumers, three formats, one source of truth (a
:class:`~repro.obs.metrics.MetricsRegistry` plus a
:class:`~repro.obs.tracing.Tracer`):

* :func:`export_jsonl` — one JSON object per line, machine-diffable, the form
  ``tests/obs/export_checks.py`` validates line by line.  Spans are
  flattened depth-first with ``span_id``/``parent_id`` assigned **at export
  time** in deterministic pre-order — span identity is a property of the
  finished tree, not of creation order, so exporting never introduces
  run-order entropy.
* :func:`export_prometheus` — the Prometheus text exposition format
  (``# TYPE`` headers, cumulative ``le`` buckets, ``_sum``/``_count``),
  round-trippable through the strict parser in ``tests/obs/export_checks.py``.
* :func:`render_report` — the human section, rendered through
  :mod:`repro.analysis.reporting` so it matches every other table this repo
  prints.

All three are export-time operations: they read finished instruments and
spans, never run inside an engine phase.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.common.errors import ReproError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _render_key,
)
from repro.obs.tracing import Span, Tracer


def format_duration(seconds: Optional[float]) -> str:
    """Render a latency compactly (``µs``/``ms``/``s``), ``-`` for missing."""
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def _labels_dict(labels: Tuple[Tuple[str, str], ...]) -> Dict[str, str]:
    return {key: value for key, value in labels}


# -- JSONL ---------------------------------------------------------------------


def _span_events(
    span: Span, parent_id: Optional[int], next_id: List[int], out: List[dict]
) -> None:
    span_id = next_id[0]
    next_id[0] += 1
    out.append(
        {
            "type": "span",
            "span_id": span_id,
            "parent_id": parent_id,
            "name": span.name,
            "attrs": dict(span.attrs),
            "duration": span.duration,
        }
    )
    for child in span.children:
        _span_events(child, span_id, next_id, out)


def export_jsonl(
    registry: MetricsRegistry,
    tracer: Optional[Tracer] = None,
    *,
    meta: Optional[Mapping[str, object]] = None,
) -> str:
    """Serialise everything as one JSON object per line.

    Line order is deterministic: one ``meta`` line, spans in depth-first
    pre-order across roots, then instruments in registry order (sorted by
    name and labels).
    """
    registry.collect()
    events: List[dict] = [{"type": "meta", "run": dict(meta) if meta else {}}]
    if tracer is not None:
        next_id = [0]
        for root in tracer.roots:
            _span_events(root, None, next_id, events)
    for instrument in registry.instruments():
        labels = _labels_dict(instrument.labels)
        if isinstance(instrument, Histogram):
            events.append(
                {
                    "type": "histogram",
                    "name": instrument.name,
                    "labels": labels,
                    "count": instrument.count,
                    "sum": instrument.total,
                    "buckets": [
                        [bound if math.isfinite(bound) else "+Inf", count]
                        for bound, count in instrument.cumulative_buckets()
                    ],
                    **instrument.report_percentiles(),
                }
            )
        elif isinstance(instrument, Counter):
            events.append(
                {
                    "type": "counter",
                    "name": instrument.name,
                    "labels": labels,
                    "value": instrument.value,
                }
            )
        elif isinstance(instrument, Gauge):
            events.append(
                {
                    "type": "gauge",
                    "name": instrument.name,
                    "labels": labels,
                    "value": instrument.value,
                }
            )
    return "\n".join(json.dumps(event, sort_keys=True) for event in events) + "\n"


# -- Prometheus text -----------------------------------------------------------

def _prom_number(value: float) -> str:
    if math.isinf(value):
        return "+Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def export_prometheus(registry: MetricsRegistry) -> str:
    """Render every instrument in the Prometheus text exposition format."""
    registry.collect()
    by_name: Dict[str, List[object]] = {}
    for instrument in registry.instruments():
        by_name.setdefault(instrument.name, []).append(instrument)
    lines: List[str] = []
    for name in sorted(by_name):
        family = by_name[name]
        kind = type(family[0])
        if any(type(instrument) is not kind for instrument in family):
            raise ReproError(f"metric family {name!r} mixes instrument kinds")
        if issubclass(kind, Histogram):
            lines.append(f"# TYPE {name} histogram")
            for histogram in family:
                for bound, count in histogram.cumulative_buckets():
                    le = "+Inf" if math.isinf(bound) else _prom_number(bound)
                    bucket = _render_key(f"{name}_bucket", histogram.labels, f'le="{le}"')
                    lines.append(f"{bucket} {count}")
                lines.append(
                    f"{_render_key(f'{name}_sum', histogram.labels)} "
                    f"{_prom_number(histogram.total)}"
                )
                lines.append(
                    f"{_render_key(f'{name}_count', histogram.labels)} {histogram.count}"
                )
        elif issubclass(kind, Counter):
            lines.append(f"# TYPE {name} counter")
            for counter in family:
                lines.append(f"{_render_key(name, counter.labels)} {counter.value}")
        else:
            lines.append(f"# TYPE {name} gauge")
            for gauge in family:
                lines.append(
                    f"{_render_key(name, gauge.labels)} {_prom_number(gauge.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# -- Operator report -----------------------------------------------------------


def render_report(
    registry: MetricsRegistry,
    tracer: Optional[Tracer] = None,
    *,
    title: str = "Observability report",
) -> str:
    """Render the operator section: latency tables, counters, gauges."""
    # Imported here, not at module top: repro.analysis reaches the gateway
    # through the workloads package, and the gateway scheduler imports this
    # package — a top-level import would make `import repro.obs` circular.
    from repro.analysis.reporting import format_table

    registry.collect()
    sections: List[str] = [f"{title}\n{'=' * len(title)}"]

    histograms = [
        instrument
        for instrument in registry.instruments()
        if isinstance(instrument, Histogram) and instrument.count > 0
    ]
    if histograms:
        rows = []
        for histogram in histograms:
            # Only *_seconds histograms carry a time unit; everything else
            # (bin utilization, plan widths) renders as a bare number.
            if histogram.name.endswith("_seconds"):
                render = format_duration
            else:
                render = lambda value: f"{value:g}" if value is not None else "-"
            pcts = histogram.report_percentiles()
            rows.append(
                (
                    _render_key(histogram.name, histogram.labels),
                    histogram.count,
                    render(pcts["p50"]),
                    render(pcts["p95"]),
                    render(pcts["p99"]),
                    render(histogram.mean),
                )
            )
        sections.append(
            format_table(
                ["histogram", "n", "p50", "p95", "p99", "mean"],
                rows,
                title="Latency distributions",
            )
        )

    counters = [
        instrument
        for instrument in registry.instruments()
        if type(instrument) is Counter
    ]
    if counters:
        sections.append(
            format_table(
                ["counter", "value"],
                [
                    (_render_key(counter.name, counter.labels), counter.value)
                    for counter in counters
                ],
                title="Counters",
            )
        )

    gauges = [
        instrument for instrument in registry.instruments() if type(instrument) is Gauge
    ]
    if gauges:
        sections.append(
            format_table(
                ["gauge", "value"],
                [
                    (_render_key(gauge.name, gauge.labels), gauge.value)
                    for gauge in gauges
                ],
                title="Gauges",
            )
        )

    if tracer is not None and tracer.roots:
        span_count = sum(1 for root in tracer.roots for _ in root.walk())
        epochs = len(tracer.find("epoch"))
        sections.append(
            f"Trace: {len(tracer.roots)} root(s), {epochs} epoch span(s), "
            f"{span_count} spans total"
        )

    return "\n\n".join(sections) + "\n"
