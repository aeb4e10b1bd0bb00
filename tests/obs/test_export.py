"""Exporters: JSONL schema, Prometheus text round-trip, operator report."""

from __future__ import annotations

import json

import pytest

from repro.common.clock import ManualClock
from repro.common.errors import ReproError
from repro.obs import Observability
from repro.obs.export import export_jsonl, export_prometheus, format_duration, render_report
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

from export_checks import parse_prometheus, validate_jsonl, validate_jsonl_line


def build_observability() -> Observability:
    clock = ManualClock(step=0.002)
    obs = Observability(clock=clock)
    with obs.span("run", mode="serial"):
        for epoch in range(2):
            with obs.span("epoch", epoch=epoch):
                for phase in ("drive", "deliver", "update", "settle"):
                    with obs.phase(phase, epoch=epoch):
                        pass
    obs.counter("chain_blocks_total").inc(6)
    obs.gauge("cache_entries").set(12)
    return obs


class TestFormatDuration:
    def test_units(self):
        assert format_duration(None) == "-"
        assert format_duration(5e-6) == "5.0µs"
        assert format_duration(0.0032) == "3.20ms"
        assert format_duration(1.5) == "1.500s"


class TestJsonl:
    def test_stream_validates_and_is_deterministic(self):
        text_a = build_observability().export_jsonl(meta={"mode": "serial"})
        text_b = build_observability().export_jsonl(meta={"mode": "serial"})
        assert text_a == text_b  # pinned clock + deterministic export order
        events = validate_jsonl(text_a)
        assert events[0] == {"type": "meta", "run": {"mode": "serial"}}
        kinds = {event["type"] for event in events}
        assert kinds == {"meta", "span", "counter", "gauge", "histogram"}

    def test_span_ids_are_preorder(self):
        obs = build_observability()
        events = validate_jsonl(obs.export_jsonl())
        spans = [event for event in events if event["type"] == "span"]
        assert [span["span_id"] for span in spans] == list(range(len(spans)))
        # 1 run + 2 epochs + 8 phases
        assert len(spans) == 11
        roots = [span for span in spans if span["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "run"
        for span in spans:
            if span["parent_id"] is not None:
                assert span["parent_id"] < span["span_id"]

    def test_malformed_lines_rejected(self):
        with pytest.raises(ReproError):
            validate_jsonl_line("not json")
        with pytest.raises(ReproError):
            validate_jsonl_line('["a", "list"]')
        with pytest.raises(ReproError):
            validate_jsonl_line(json.dumps({"type": "mystery"}))
        with pytest.raises(ReproError):
            validate_jsonl_line(json.dumps({"type": "span", "span_id": 0}))
        with pytest.raises(ReproError):
            validate_jsonl_line(
                json.dumps(
                    {
                        "type": "span",
                        "span_id": 0,
                        "parent_id": 3,  # parents precede children in pre-order
                        "name": "x",
                        "attrs": {},
                        "duration": 0.0,
                    }
                )
            )

    def test_histogram_invariants_checked(self):
        bad = {
            "type": "histogram",
            "name": "h",
            "labels": {},
            "count": 2,
            "sum": 1.0,
            "buckets": [[0.5, 1], ["+Inf", 1]],  # +Inf bucket != count
            "p50": 0.5,
            "p95": 0.5,
            "p99": 0.5,
        }
        with pytest.raises(ReproError):
            validate_jsonl_line(json.dumps(bad))

    def test_stream_must_start_with_meta(self):
        obs = build_observability()
        lines = obs.export_jsonl().splitlines()
        with pytest.raises(ReproError):
            validate_jsonl("\n".join(lines[1:]))


class TestPrometheus:
    def test_round_trip(self):
        obs = build_observability()
        text = obs.export_prometheus()
        samples = parse_prometheus(text)
        assert samples["chain_blocks_total"] == [({}, 6.0)]
        assert samples["cache_entries"] == [({}, 12.0)]
        # Histogram family: per-phase buckets, sums and counts all present.
        buckets = samples["gateway_phase_seconds_bucket"]
        phases = {labels["phase"] for labels, _ in buckets}
        assert phases == {"drive", "deliver", "update", "settle"}
        inf_rows = [value for labels, value in buckets if labels["le"] == "+Inf"]
        assert all(value == 2.0 for value in inf_rows)
        counts = dict(
            (labels["phase"], value)
            for labels, value in samples["gateway_phase_seconds_count"]
        )
        assert counts == {"drive": 2.0, "deliver": 2.0, "update": 2.0, "settle": 2.0}

    def test_label_values_round_trip_escaped(self):
        """A label value is data, whatever it holds: it can neither end its
        label, nor its line, nor be read back as anything but itself."""
        hostile = [
            'x",status="ok"} 999\nforged_total{a="',
            'comma,b="c"',
            "back\\slash\\n and } = { \\",
            "carriage\rreturn\u2028",
            "",
        ]
        registry = MetricsRegistry()
        for index, value in enumerate(hostile):
            registry.counter("requests_total", tenant=value, status="rejected").inc(index + 1)
            registry.histogram("latency_seconds", tenant=value).observe(0.5)
        text = export_prometheus(registry)
        assert all(
            line.startswith(("# TYPE ", "requests_total{", "latency_seconds_"))
            for line in text.split("\n")
            if line
        )
        samples = parse_prometheus(text)
        assert set(samples) == {
            "requests_total",
            "latency_seconds_bucket",
            "latency_seconds_sum",
            "latency_seconds_count",
        }
        assert sorted(
            (labels["tenant"], value) for labels, value in samples["requests_total"]
        ) == sorted((value, index + 1.0) for index, value in enumerate(hostile))
        assert all(labels["status"] == "rejected" for labels, _ in samples["requests_total"])
        assert {labels["tenant"] for labels, _ in samples["latency_seconds_count"]} == set(
            hostile
        )
        assert len(registry.snapshot()["counters"]) == len(hostile)

    def test_parser_rejects_malformed_text(self):
        for bad in (
            "# HELP x\n",
            "metric_without_value\n",
            'metric{unquoted=3} 1\n',
            "name with space 1 2 3\n",
            'metric{a="1",} 1\n',
            'metric{a="1"b="2"} 1\n',
            'metric{a="bad \\x escape"} 1\n',
            'metric{a="open} 1\n',
        ):
            with pytest.raises(ReproError):
                parse_prometheus(bad)

    def test_inf_parses(self):
        samples = parse_prometheus('h_bucket{le="+Inf"} 4\n')
        (labels, value), = samples["h_bucket"]
        assert labels == {"le": "+Inf"}
        assert value == 4

    def test_empty_registry_exports_empty_text(self):
        assert export_prometheus(MetricsRegistry()) == ""


class TestReport:
    def test_report_contains_every_section(self):
        obs = build_observability()
        report = obs.render_report()
        assert "Latency distributions" in report
        assert 'gateway_phase_seconds{phase="drive"}' in report
        assert "p50" in report and "p95" in report and "p99" in report
        assert "chain_blocks_total" in report
        assert "cache_entries" in report
        assert "2 epoch span(s)" in report

    def test_report_without_tracer(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        report = render_report(registry, None)
        assert "Counters" in report
        assert "Trace:" not in report

    def test_export_functions_accept_bare_parts(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(0.5)
        tracer = Tracer(clock=ManualClock())
        with tracer.span("run"):
            pass
        events = validate_jsonl(export_jsonl(registry, tracer, meta={"k": "v"}))
        assert events[0]["run"] == {"k": "v"}
        histogram = [e for e in events if e["type"] == "histogram"][0]
        # JSON has no Infinity literal: the +Inf bound serialises as a string.
        assert histogram["buckets"][-1][0] == "+Inf"
