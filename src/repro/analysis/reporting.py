"""Plain-text reporting helpers for the experiments, the gateway and the examples.

``python -m repro.analysis`` prints the same rows/series the paper reports;
these helpers keep that formatting in one place, so every table this repo
prints looks the same and the README's results are that command's output,
pasted.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence


def _cell(value: object) -> str:
    """Render one table cell (floats get a compact fixed precision)."""
    if isinstance(value, float):
        return f"{value:,.1f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a simple fixed-width table."""
    materialised: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    name: str,
    values: Sequence[float],
    *,
    precision: int = 1,
    max_points: int = 64,
) -> str:
    """Render a numeric series compactly (down-sampled when very long)."""
    if len(values) > max_points:
        step = len(values) / max_points
        sampled = [values[int(i * step)] for i in range(max_points)]
    else:
        sampled = list(values)
    formatted = ", ".join(f"{value:.{precision}f}" for value in sampled)
    return f"{name} [{len(values)} points]: {formatted}"


def percent_difference(value: float, baseline: float) -> float:
    """``(value - baseline) / baseline`` in percent (0 when baseline is 0)."""
    if baseline == 0:
        return 0.0
    return (value - baseline) / baseline * 100.0


def format_percent(value: float, baseline: float) -> str:
    """Render a value with its percentage difference from a baseline."""
    delta = percent_difference(value, baseline)
    sign = "+" if delta >= 0 else ""
    return f"{value:,.0f} ({sign}{delta:.1f}%)"


def format_gas(value: float) -> str:
    """Human-readable gas amount (uses the paper's M suffix for millions)."""
    if value >= 1_000_000:
        return f"{value / 1_000_000:.1f}M"
    if value >= 1_000:
        return f"{value / 1_000:.1f}k"
    return f"{value:.0f}"


def format_rate(value: float, unit: str) -> str:
    """Render a throughput figure (``12.3k ops/s`` style, SI-suffixed)."""
    if value >= 1_000_000:
        return f"{value / 1_000_000:.1f}M {unit}"
    if value >= 1_000:
        return f"{value / 1_000:.1f}k {unit}"
    return f"{value:,.1f} {unit}"


def format_distribution(distribution: Mapping[int, float], title: str) -> str:
    """Render a reads-per-write distribution like the paper's Tables 1 and 6."""
    rows = [(count, f"{fraction * 100:.2f}%") for count, fraction in sorted(distribution.items())]
    return format_table(["#r", "Percentage"], rows, title=title)
