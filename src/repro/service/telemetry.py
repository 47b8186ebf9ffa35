"""Service telemetry: counters and mergeable latency histograms.

Every gateway operation increments named counters and records wall-clock
latencies so the fleet simulator (and operators of a real deployment) can
report throughput, acceptance rates and latency percentiles without any
external dependency.

One latency representation serves every reader: :class:`Histogram` keeps
fixed log-spaced bucket counts since its creation or the hub's last
:meth:`~TelemetryHub.reset`.  Count, total, mean and max are exact;
p50/p95/p99 are interpolated inside the covering bucket (bounded relative
error set by the bucket ratio).  Two snapshots **merge by summing
counts**, so the same quantiles survive aggregation across shard workers.
The JSON ``/metrics`` ``latencies`` entries, the Prometheus ``_seconds``
families and the router's merged fleet view all read these counts.

:func:`render_prometheus` serialises a hub into the Prometheus text
exposition format (the ``GET /metrics`` content-negotiated form), with
per-caller counters split into labelled series.
"""

from __future__ import annotations

import re
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Mapping, Sequence


@dataclass
class Counter:
    """A monotonically increasing named counter."""

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> int:
        """Add *amount* (default 1) and return the new value."""
        if amount < 0:
            raise ValueError(f"counters only move forward; got amount={amount}")
        self.value += amount
        return self.value


def _default_bounds() -> tuple[float, ...]:
    """Log-spaced histogram bounds: 5 per decade, 1µs to 100s (41 bounds).

    Generated by one fixed expression so every process computes the exact
    same floats — merging requires bit-identical bounds.
    """
    return tuple(10.0 ** (-6.0 + index / 5.0) for index in range(41))


#: The shared fixed bucket bounds (upper edges, seconds) every histogram
#: uses by default; values above the last bound land in the +Inf bucket.
DEFAULT_BUCKET_BOUNDS = _default_bounds()


@dataclass
class Histogram:
    """Fixed-bucket latency histogram with mergeable counts.

    Buckets are ``value <= bounds[i]`` (Prometheus ``le`` semantics) plus
    one overflow (+Inf) bucket.  Because the bounds are fixed and shared,
    two histograms — from two snapshots, two processes, two shard workers
    — merge by element-wise count addition, and quantiles estimated from
    the merged counts equal quantiles of the combined stream (up to the
    bucket resolution, ~58% per step at 5 buckets/decade).
    """

    name: str
    bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS
    _counts: list[int] = field(default_factory=list)
    _count: int = 0
    _total: float = 0.0
    _max: float = 0.0

    def __post_init__(self) -> None:
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ValueError("bounds must be a non-empty ascending sequence")
        if not self._counts:
            self._counts = [0] * (len(self.bounds) + 1)
        elif len(self._counts) != len(self.bounds) + 1:
            raise ValueError(
                f"expected {len(self.bounds) + 1} bucket counts, "
                f"got {len(self._counts)}"
            )

    def record(self, seconds: float) -> None:
        """Fold one observed duration into the bucket counts."""
        if seconds < 0.0:
            raise ValueError(f"latency cannot be negative; got {seconds}")
        seconds = float(seconds)
        self._counts[bisect_left(self.bounds, seconds)] += 1
        self._count += 1
        self._total += seconds
        self._max = max(self._max, seconds)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total_seconds(self) -> float:
        return self._total

    @property
    def max_seconds(self) -> float:
        return self._max

    @property
    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket counts (last entry is the +Inf overflow bucket)."""
        return tuple(self._counts)

    def quantile(self, q: float) -> float:
        """The *q*-th percentile (0–100) estimated from the bucket counts.

        Linear interpolation inside the covering bucket; the +Inf bucket
        answers the recorded maximum.  An empty histogram answers 0.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self._count == 0:
            return 0.0
        rank = q / 100.0 * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(self.bounds):
                    return self._max
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                fraction = 1.0 - (cumulative - rank) / bucket_count
                return min(lower + fraction * (upper - lower), self._max)
        return self._max

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other*'s counts into this histogram (in place).

        Raises
        ------
        ValueError
            If the bucket bounds differ — merging differently bucketed
            histograms would silently corrupt the quantiles.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({self.name!r} vs {other.name!r})"
            )
        for index, bucket_count in enumerate(other._counts):
            self._counts[index] += bucket_count
        self._count += other._count
        self._total += other._total
        self._max = max(self._max, other._max)
        return self

    def summary(self) -> dict[str, float]:
        """Plain-type summary suitable for JSON serialization."""
        return {
            "count": self._count,
            "total_s": self._total,
            "mean_s": self._total / self._count if self._count else 0.0,
            "p50_s": self.quantile(50.0),
            "p95_s": self.quantile(95.0),
            "p99_s": self.quantile(99.0),
            "max_s": self._max,
        }

    def snapshot(self) -> dict[str, Any]:
        """Plain-type, mergeable form for cross-process aggregation."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self._counts),
            "count": self._count,
            "total_s": self._total,
            "max_s": self._max,
        }

    @classmethod
    def from_snapshot(cls, name: str, payload: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`snapshot` output.

        Raises
        ------
        ValueError
            If the payload's bounds and counts are inconsistent.
        """
        histogram = cls(
            name=name,
            bounds=tuple(float(bound) for bound in payload["bounds"]),
            _counts=[int(value) for value in payload["counts"]],
            _count=int(payload["count"]),
            _total=float(payload["total_s"]),
            _max=float(payload["max_s"]),
        )
        return histogram


class TelemetryHub:
    """Registry of named counters and latency histograms.

    Counters and histograms are created on first use, so call sites never
    need to pre-declare the metrics they emit.

    The hub's own entry points (:meth:`increment`, :meth:`record`,
    :meth:`timer`, :meth:`snapshot`, :meth:`reset`) are thread-safe — the
    serving frontend drives one shared hub from concurrently submitting
    callers, so registration and read-modify-write updates serialize under
    one hub lock.  Mutating a :class:`Counter`/:class:`Histogram` obtained
    via :meth:`counter`/:meth:`histogram` directly bypasses that lock and
    is only safe single-threaded.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> Counter:
        """The counter called *name*, created on first access."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name=name)
            return self._counters[name]

    def increment(self, name: str, amount: int = 1) -> int:
        """Thread-safe ``counter(name).increment(amount)``."""
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name=name)
            return counter.increment(amount)

    def record(self, name: str, seconds: float) -> None:
        """Thread-safe ``histogram(name).record(seconds)``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name=name)
            histogram.record(seconds)

    def histogram(self, name: str) -> Histogram:
        """The mergeable histogram called *name*, created on first access."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name=name)
            return self._histograms[name]

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager recording the wall-clock time of its body."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)

    # ------------------------------------------------------------------ #

    def counter_value(self, name: str) -> int:
        """Current value of a counter (0 if it never fired)."""
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter is not None else 0

    def snapshot(self) -> dict[str, dict]:
        """All metrics as a nested plain-type dictionary.

        ``latencies`` maps each histogram's name to its
        :meth:`Histogram.summary`.  The hub lock is held only long enough
        to *copy* the bucket counts; the quantile interpolation runs
        outside it, so a ``/metrics`` scrape never stalls concurrent
        hot-path ``increment``/``record`` calls for the summaries.
        """
        with self._lock:
            counters = {name: c.value for name, c in sorted(self._counters.items())}
            copied = [
                replace(histogram, _counts=list(histogram._counts))
                for _, histogram in sorted(self._histograms.items())
            ]
        latencies = {histogram.name: histogram.summary() for histogram in copied}
        return {"counters": counters, "latencies": latencies}

    def counters_snapshot(self) -> dict[str, int]:
        """Every counter's value (sorted by name), without the latency
        summaries :meth:`snapshot` computes."""
        with self._lock:
            return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms_snapshot(self) -> dict[str, dict]:
        """Every histogram in mergeable plain-type form (sorted by name).

        Carries the raw bucket counts that :meth:`snapshot` summarises;
        summing the ``counts`` of two workers' snapshots
        (:meth:`Histogram.from_snapshot` + :meth:`Histogram.merge`) yields
        fleet-wide quantiles.
        """
        with self._lock:
            copied = {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            }
        return copied

    def reset(self) -> None:
        """Zero every metric in place (used between fleet simulation phases).

        Counters and histograms are zeroed rather than dropped: call sites
        that cached the objects via :meth:`counter` / :meth:`histogram`
        keep feeding the same instances the hub still snapshots, instead
        of silently writing to orphans.
        """
        with self._lock:
            for counter in self._counters.values():
                counter.value = 0
            for histogram in self._histograms.values():
                histogram._counts = [0] * (len(histogram.bounds) + 1)
                histogram._count = 0
                histogram._total = 0.0
                histogram._max = 0.0


# --------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------- #

#: The Content-Type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_]")
_CALLER_PREFIX = "callers."


def _metric_name(name: str) -> str:
    """A dotted hub metric name as a legal Prometheus metric name."""
    return "repro_" + _METRIC_CHARS.sub("_", name)


def _escape_label(value: str) -> str:
    """A label value escaped per the exposition format rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """A sample value in the shortest exact decimal form."""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(hub: TelemetryHub) -> str:
    """The hub's metrics in the Prometheus text exposition format.

    * counters become ``repro_<name>_total`` — except per-caller counters
      (``callers.<id>.<metric>``), which collapse into one
      ``repro_caller_<metric>_total{caller="<id>"}`` series per metric, so
      a dashboard aggregates across callers instead of across metric
      names;
    * mergeable histograms become native ``histogram`` series
      (cumulative ``_bucket{le=...}`` + ``_sum`` + ``_count``) named
      ``repro_<name>_seconds`` — sums of these across shard workers
      reproduce fleet quantiles.

    Output ordering is deterministic (sorted by metric name), so the
    format is golden-fixture testable.
    """
    with hub._lock:
        counters = {name: c.value for name, c in sorted(hub._counters.items())}
        histograms = {
            name: (tuple(h.bounds), tuple(h._counts), h._count, h._total)
            for name, h in sorted(hub._histograms.items())
        }

    lines: list[str] = []

    # Per-caller counters: callers.<id>.<metric> -> labelled series.
    caller_series: dict[str, list[tuple[str, int]]] = {}
    for name in list(counters):
        if name.startswith(_CALLER_PREFIX) and name.count(".") >= 2:
            stem, metric = name.rsplit(".", 1)
            caller_id = stem[len(_CALLER_PREFIX) :]
            caller_series.setdefault(metric, []).append((caller_id, counters.pop(name)))

    for name, value in counters.items():
        metric = _metric_name(name) + "_total"
        lines.append(f"# HELP {metric} Monotonic counter {name!r}.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")

    for metric_key in sorted(caller_series):
        metric = "repro_caller_" + _METRIC_CHARS.sub("_", metric_key) + "_total"
        lines.append(f"# HELP {metric} Per-caller counter {metric_key!r}.")
        lines.append(f"# TYPE {metric} counter")
        for caller_id, value in sorted(caller_series[metric_key]):
            lines.append(
                f'{metric}{{caller="{_escape_label(caller_id)}"}} '
                f"{_format_value(value)}"
            )

    for name, (bounds, bucket_counts, count, total) in histograms.items():
        metric = _metric_name(name) + "_seconds"
        lines.append(f"# HELP {metric} Mergeable latency histogram {name!r}.")
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, bucket_count in zip(bounds, bucket_counts):
            cumulative += bucket_count
            lines.append(f'{metric}_bucket{{le="{_format_value(bound)}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
        lines.append(f"{metric}_sum {_format_value(total)}")
        lines.append(f"{metric}_count {count}")

    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# cross-process aggregation (the cluster router's /metrics merge)
# --------------------------------------------------------------------- #


def merge_histogram_snapshots(
    snapshot_maps: Sequence[Mapping[str, Mapping]],
) -> dict[str, dict]:
    """Merge per-process histogram snapshot maps into one fleet-wide map.

    Each element of *snapshot_maps* is one process's
    :meth:`TelemetryHub.histograms_snapshot` payload (scraped over HTTP by
    the shard router).  Families sharing a name are merged bucket-wise via
    :meth:`Histogram.merge`, so fleet quantiles are exact — identical to a
    single process having observed every sample.

    Raises
    ------
    ValueError
        If two same-named families carry different bucket bounds.
    """
    merged: dict[str, Histogram] = {}
    for snapshot_map in snapshot_maps:
        for name, payload in snapshot_map.items():
            histogram = Histogram.from_snapshot(name, payload)
            if name in merged:
                merged[name].merge(histogram)
            else:
                merged[name] = histogram
    return {name: merged[name].snapshot() for name in sorted(merged)}


def merged_hub(
    counters: Mapping[str, int],
    histogram_snapshots: Mapping[str, Mapping] | None = None,
) -> TelemetryHub:
    """A hub pre-loaded with already-aggregated metrics.

    The bridge between the router's scrape-and-sum aggregation and
    :func:`render_prometheus`: summed worker counters and merged histogram
    families land in a fresh hub that renders exactly like a single
    process's, giving the whole cluster one Prometheus view.
    """
    hub = TelemetryHub()
    for name in sorted(counters):
        hub.increment(name, int(counters[name]))
    if histogram_snapshots:
        with hub._lock:
            for name in sorted(histogram_snapshots):
                hub._histograms[name] = Histogram.from_snapshot(
                    name, histogram_snapshots[name]
                )
    return hub
