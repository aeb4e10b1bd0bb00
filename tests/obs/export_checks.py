"""Checks on the observability plane's exports, used only by the tests.

* :func:`validate_jsonl_line` / :func:`validate_jsonl` — the event schema of
  :func:`~repro.obs.export.export_jsonl`'s stream, checked line by line.
* :func:`parse_prometheus` — a strict parser for
  :func:`~repro.obs.export.export_prometheus`'s text, so a snapshot
  round-trips into ``{metric: [(labels, value), …]}``.

Each raises :class:`~repro.common.errors.ReproError` on the first violation.
Test modules import this one by name (``tests/conftest.py`` puts
``tests/obs`` on ``sys.path``).
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Tuple

from repro.common.errors import ReproError

#: The event types a JSONL stream may contain, each with the fields it must
#: carry beyond ``type`` itself.
_JSONL_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "meta": ("run",),
    "span": ("span_id", "parent_id", "name", "attrs", "duration"),
    "counter": ("name", "labels", "value"),
    "gauge": ("name", "labels", "value"),
    "histogram": ("name", "labels", "count", "sum", "buckets", "p50", "p95", "p99"),
}

#: One ``key="value"`` pair of a label set and its separator; the value may
#: hold the three escapes :func:`~repro.obs.metrics._render_key` writes.
_PROM_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\[\\"n])*)"(?:,(?!$)|$)')
_PROM_ESCAPE = re.compile(r'\\([\\"n])')


def validate_jsonl_line(line: str) -> dict:
    """Parse one JSONL line and check it against the event schema.

    Raises :class:`ReproError` describing the first violation; returns the
    parsed event otherwise.  ``tests/gateway/test_observability.py`` runs it
    over every exported line of a real traced run, serial and process.
    """
    try:
        event = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReproError(f"invalid JSONL line: {exc}") from exc
    if not isinstance(event, dict):
        raise ReproError("JSONL event must be an object")
    event_type = event.get("type")
    if event_type not in _JSONL_REQUIRED:
        raise ReproError(f"unknown JSONL event type: {event_type!r}")
    missing = [field for field in _JSONL_REQUIRED[event_type] if field not in event]
    if missing:
        raise ReproError(f"{event_type} event missing fields: {missing}")
    if event_type == "span":
        if not isinstance(event["span_id"], int):
            raise ReproError("span_id must be an integer")
        parent = event["parent_id"]
        if parent is not None and (
            not isinstance(parent, int) or parent >= event["span_id"]
        ):
            raise ReproError("parent_id must be None or a smaller span_id (pre-order)")
        if not isinstance(event["duration"], (int, float)) or event["duration"] < 0:
            raise ReproError("span duration must be a non-negative number")
    if event_type == "histogram":
        buckets = event["buckets"]
        if not buckets or buckets[-1][0] != "+Inf":
            raise ReproError("histogram buckets must end with +Inf")
        counts = [count for _, count in buckets]
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise ReproError("histogram cumulative bucket counts must be monotone")
        if counts[-1] != event["count"]:
            raise ReproError("histogram +Inf bucket must equal total count")
    return event


def validate_jsonl(text: str) -> List[dict]:
    """Validate a whole JSONL document line by line."""
    events = [validate_jsonl_line(line) for line in text.splitlines() if line]
    if not events or events[0].get("type") != "meta":
        raise ReproError("JSONL stream must start with a meta event")
    return events


def parse_prometheus(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse Prometheus text back into ``{metric: [(labels, value), …]}``.

    A deliberately strict parser for the formats
    :func:`~repro.obs.export.export_prometheus` emits — the tests use it to
    assert the snapshot is well-formed.
    Raises :class:`ReproError` on any malformed line.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for raw in text.split("\n"):  # not splitlines(): "\r" and kin may sit in a label
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "TYPE" or parts[3] not in (
                "counter",
                "gauge",
                "histogram",
            ):
                raise ReproError(f"malformed Prometheus comment: {raw!r}")
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ReproError(f"malformed Prometheus sample: {raw!r}")
        if value_part == "+Inf":
            value = math.inf
        else:
            try:
                value = float(value_part)
            except ValueError as exc:
                raise ReproError(f"malformed Prometheus value: {raw!r}") from exc
        labels: Dict[str, str] = {}
        if name_part.endswith("}"):
            name, _, label_blob = name_part.partition("{")
            position, end = 0, len(label_blob) - 1
            while position < end:
                pair = _PROM_LABEL.match(label_blob, position, end)
                if pair is None:
                    raise ReproError(f"malformed Prometheus label: {raw!r}")
                labels[pair[1]] = _PROM_ESCAPE.sub(
                    lambda escape: "\n" if escape[1] == "n" else escape[1], pair[2]
                )
                position = pair.end()
        else:
            name = name_part
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ReproError(f"malformed Prometheus metric name: {raw!r}")
        samples.setdefault(name, []).append((labels, value))
    return samples
