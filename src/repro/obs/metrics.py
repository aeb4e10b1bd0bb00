"""Metric instruments of the observability plane: counters, gauges, histograms.

A :class:`MetricsRegistry` hands out named instruments, each optionally
qualified by a small set of string labels (the Prometheus idiom — one logical
metric like ``gateway_phase_seconds`` fans out into one instrument per label
set, e.g. ``{phase="drive"}`` / ``{phase="settle"}``).  Instruments are
created lazily and cached, so call sites simply ask for
``registry.histogram("gateway_phase_seconds", phase="drive")`` every time and
always get the same object back.

:class:`Histogram` keeps **both** representations the exporters need:

* fixed **log-spaced bucket** counts (:func:`log_buckets`), the Prometheus
  cumulative-``le`` form — cheap to merge and render, coarse by design;
* the **exact sample list**, from which :func:`percentile` computes
  exact nearest-rank p50/p95/p99 — the numbers an operator report quotes must
  not be bucket-interpolation artifacts.  The engine's runs are epoch-bounded
  (observations arrive per phase per epoch, not per operation), so retaining
  samples is a few kilobytes per run, not a memory hazard.

**Disabled registries are free.**  A registry constructed with
``enabled=False`` hands out shared null instruments whose mutators are
no-ops, and the hot layers additionally guard on ``registry.enabled`` /
``obs is None`` so the serial hot path pays at most a pointer test.  Nothing
an instrument records ever feeds back into scheduling, gas or state — the
whole plane is observation-only, which is what keeps fingerprints
bit-identical with metrics on or off.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError

#: Label sets are canonicalised to a sorted tuple of (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]

#: The percentiles every latency report quotes.
REPORT_PERCENTILES = (50.0, 95.0, 99.0)


def log_buckets(start: float = 1e-5, factor: float = 2.0, count: int = 22) -> Tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds: ``start * factor**i``.

    The default spans 10µs to ~40s in ×2 steps — wide enough for everything
    from a single cache probe to a full benchmark run, with bounded (22-way)
    cardinality.  Bounds are strictly increasing; the implicit ``+Inf``
    bucket is always appended by the histogram itself.
    """
    if start <= 0:
        raise ConfigurationError("log_buckets start must be positive")
    if factor <= 1.0:
        raise ConfigurationError("log_buckets factor must be > 1")
    if count <= 0:
        raise ConfigurationError("log_buckets count must be positive")
    return tuple(start * factor**index for index in range(count))


def _canonical_labels(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that can go anywhere (queue depths, cache sizes, last-seen)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """Log-spaced bucket counts plus the exact samples behind them.

    ``observe`` is O(log buckets) (bisection) plus one list append;
    ``percentile`` sorts a copy of the samples — an export-time operation,
    never on the engine's hot path.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "total", "samples")

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else log_buckets()
        if not bounds:
            raise ConfigurationError("a histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ConfigurationError("histogram bucket bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        #: Per-bucket (non-cumulative) counts; index ``len(bounds)`` is +Inf.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ConfigurationError("cannot observe NaN")
        # Bisect over the (small, fixed) bound tuple.
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.bucket_counts[lo] += 1
        self.count += 1
        self.total += value
        self.samples.append(value)

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-form cumulative counts: ``[(le, count≤le), …, (inf, n)]``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((math.inf, running + self.bucket_counts[-1]))
        return out

    def percentile(self, q: float) -> Optional[float]:
        """Exact nearest-rank percentile of every observed sample
        (:func:`percentile`)."""
        return percentile(self.samples, q)

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def report_percentiles(self) -> Dict[str, Optional[float]]:
        """The p50/p95/p99 dict every report and benchmark record uses."""
        return percentiles(self.samples)


class _NullCounter(Counter):
    """Shared no-op counter handed out by disabled registries."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # noqa: D102 - intentionally inert
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("disabled")
_NULL_GAUGE = _NullGauge("disabled")
_NULL_HISTOGRAM = _NullHistogram("disabled")


class MetricsRegistry:
    """Named, labelled instruments plus pull-style collectors.

    Collectors are callables registered by components whose counters already
    exist elsewhere (the memo hits and misses on the gateway's per-feed bills,
    an LSM store's flush/compaction totals).  They run once per
    :meth:`snapshot`, copying those numbers into gauges — the Prometheus
    "collect on scrape" idiom — so the component's own hot path stays
    untouched by the metrics plane.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[Tuple[str, LabelSet], object] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- instrument lookup ----------------------------------------------------

    def _get(self, kind: type, name: str, labels: Dict[str, str], **kwargs) -> object:
        key = (name, _canonical_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = kind(name, key[1], **kwargs)
        elif not isinstance(instrument, kind):
            raise ConfigurationError(
                f"metric {name!r} already registered as {type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: str
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- collectors -----------------------------------------------------------

    def register_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Add a pull-style collector run at every snapshot (idempotent by
        identity, so re-running a scheduler never double-registers)."""
        if not self.enabled:
            return
        if all(existing is not collector for existing in self._collectors):
            self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector(self)

    # -- introspection --------------------------------------------------------

    def instruments(self) -> List[object]:
        """Every live instrument, sorted by (name, labels) for deterministic
        export order."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def find(self, name: str, **labels: str) -> Optional[object]:
        """Look an instrument up without creating it."""
        return self._instruments.get((name, _canonical_labels(labels)))

    def histograms(self, name: str) -> List[Histogram]:
        """Every labelled variant of one histogram name, sorted by labels."""
        return [
            instrument
            for instrument in self.instruments()
            if isinstance(instrument, Histogram) and instrument.name == name
        ]

    def snapshot(self) -> Dict[str, object]:
        """Plain-data dump of every instrument (collectors run first)."""
        self.collect()
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, dict] = {}
        for instrument in self.instruments():
            key = _render_key(instrument.name, instrument.labels)
            if isinstance(instrument, Histogram):
                histograms[key] = {
                    "count": instrument.count,
                    "sum": instrument.total,
                    "buckets": [
                        [bound, count] for bound, count in instrument.cumulative_buckets()
                    ],
                    **instrument.report_percentiles(),
                }
            elif isinstance(instrument, Counter):
                counters[key] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[key] = instrument.value
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


def _escape_label_value(value: str) -> str:
    """Escape a label value the way the Prometheus text format does.  Values
    can come from outside the program (a tenant name), so a quote, backslash
    or newline in one must not be able to end the label or the line."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_key(name: str, labels: LabelSet, extra: str = "") -> str:
    """``name{key="value",…}``; ``extra`` is one more, already rendered, pair."""
    parts = [f'{key}="{_escape_label_value(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    if not parts:
        return name
    return f"{name}{{{','.join(parts)}}}"


def _nearest_rank(ordered: Sequence[float], q: float) -> Optional[float]:
    if not 0.0 < q <= 100.0:
        raise ConfigurationError("percentile q must be in (0, 100]")
    if not ordered:
        return None
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def percentile(samples: Iterable[float], q: float) -> Optional[float]:
    """Exact nearest-rank percentile — the smallest sample with at least
    ``q``% of samples at or below it; ``q`` in (0, 100], ``None`` without
    samples.  The histograms and the front door's report share it."""
    return _nearest_rank(sorted(samples), q)


def percentiles(
    samples: Iterable[float], qs: Sequence[float] = REPORT_PERCENTILES
) -> Dict[str, Optional[float]]:
    """``{"p50": …, "p95": …, "p99": …}`` (by default) over one sort."""
    ordered = sorted(samples)
    return {f"p{q:g}": _nearest_rank(ordered, q) for q in qs}


def percentile_reference(samples: Iterable[float], q: float) -> Optional[float]:
    """The sorted-list nearest-rank reference the property tests pin
    :func:`percentile` against."""
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]
