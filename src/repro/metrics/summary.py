"""Cross-node summary statistics for experiment results."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples`` (linear interpolation)."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    value = ordered[low] * (1 - fraction) + ordered[high] * fraction
    # Guard against floating-point interpolation drifting past the extremes.
    return min(max(value, ordered[0]), ordered[-1])


@dataclass
class LatencyHistogram:
    """Fixed-bin latency distribution for streaming (bounded-memory) metrics.

    Samples land in linear bins of ``bin_width`` seconds; anything past
    ``max_bins`` is clamped into the overflow (last) bin, with the exact
    ``max_value`` retained so the high percentiles stay honest.  Exact
    ``count``/``total``/extremes ride along, so the mean is exact and only
    the percentiles are quantised to one bin width.  The defaults (0.25 ms
    bins, 20k bins = 5 s of range) resolve LAN latencies to well under the
    existing figure tolerances; only occupied bins take memory.
    """

    bin_width: float = 0.00025
    max_bins: int = 20_000
    counts: dict[int, int] = field(default_factory=dict)
    count: int = 0
    total: float = 0.0
    min_value: float = math.inf
    max_value: float = -math.inf

    def add(self, value: float) -> None:
        """Fold one latency sample into the histogram."""
        self.extend((value,))

    def extend(self, values: Iterable[float]) -> None:
        """Fold samples in order — :meth:`add` for each, in one frame."""
        width, last = self.bin_width, self.max_bins - 1
        counts = self.counts
        total, low, high = self.total, self.min_value, self.max_value
        folded = 0
        for value in values:
            index = int(value / width)
            if index > last:
                index = last
            elif index < 0:
                index = 0
            counts[index] = counts.get(index, 0) + 1
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
            folded += 1
        self.count += folded
        self.total, self.min_value, self.max_value = total, low, high

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (same bin width) into this one."""
        if other.bin_width != self.bin_width:
            raise ValueError("cannot merge histograms with different bin widths")
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    def percentile(self, q: float, skip_top: int = 0) -> float:
        """Approximate ``q``-th percentile (bin midpoint, clamped to extremes).

        ``skip_top`` drops that many of the largest samples first (the
        histogram share of the one-sided extreme trim).
        """
        kept = self.count - skip_top
        if kept <= 0:
            return 0.0
        rank = (q / 100.0) * (kept - 1)
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen > rank:
                if index == self.max_bins - 1:
                    # The overflow bin has no meaningful midpoint; the exact
                    # maximum is the best honest answer for the far tail.
                    return self.max_value
                value = (index + 0.5) * self.bin_width
                return min(max(value, self.min_value), self.max_value)
        return self.max_value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass(frozen=True)
class ThroughputSummary:
    """Throughput of one configuration, averaged over correct nodes."""

    tps: float
    bps: float
    recoveries_per_second: float = 0.0


@dataclass(frozen=True)
class LatencySummary:
    """Latency statistics of one configuration.

    ``samples`` counts the measurements the statistics were computed over
    (i.e. *after* any extreme trim); ``trimmed`` counts the dropped extremes
    so the full population size (``samples + trimmed``) stays reported.
    """

    mean: float
    p50: float
    p95: float
    p99: float
    samples: int
    trimmed: int = 0

    @classmethod
    def from_samples(cls, samples: Sequence[float],
                     trim_extreme_fraction: float = 0.0) -> "LatencySummary":
        """Build a summary, optionally dropping the most extreme results.

        Section 7.5.2 omits the 5% most extreme latencies in the multi
        data-center experiment; ``trim_extreme_fraction=0.05`` reproduces
        that.  Like the paper's plots, the trim is **one-sided**: only the
        high tail is dropped (a slow WAN outlier inflates the statistics; an
        implausibly fast delivery cannot occur), so ``p95``/``p99`` after a
        5% trim describe the kept 95% of the population.
        """
        data = sorted(samples)
        if not data:
            return cls(mean=0.0, p50=0.0, p95=0.0, p99=0.0, samples=0)
        dropped = 0
        if trim_extreme_fraction > 0 and len(data) > 10:
            dropped = int(len(data) * trim_extreme_fraction)
            if dropped:
                data = data[:-dropped]
        return cls(
            mean=sum(data) / len(data),
            p50=percentile(data, 50),
            p95=percentile(data, 95),
            p99=percentile(data, 99),
            samples=len(data),
            trimmed=dropped,
        )

    @classmethod
    def from_histogram(cls, histogram: LatencyHistogram,
                       trim_extreme_fraction: float = 0.0) -> "LatencySummary":
        """Build a summary from a streamed (binned) latency distribution.

        The untrimmed mean is exact (the histogram keeps exact count/total);
        the percentiles are accurate to one bin width.  The one-sided
        extreme trim drops the top ``fraction`` of the *counts* before
        ranking, the histogram equivalent of :meth:`from_samples`' trim; the
        trimmed mean subtracts the dropped tail's bin-midpoint estimate from
        the exact total, so it is accurate to one bin width per dropped
        sample (the overflow bin contributes its exact maximum).
        """
        if histogram.count == 0:
            return cls(mean=0.0, p50=0.0, p95=0.0, p99=0.0, samples=0)
        dropped = 0
        if trim_extreme_fraction > 0 and histogram.count > 10:
            dropped = int(histogram.count * trim_extreme_fraction)
        mean = histogram.mean
        if dropped:
            remaining = dropped
            total = histogram.total
            for index in sorted(histogram.counts, reverse=True):
                if remaining <= 0:
                    break
                take = min(histogram.counts[index], remaining)
                value = (histogram.max_value
                         if index == histogram.max_bins - 1
                         else (index + 0.5) * histogram.bin_width)
                total -= take * value
                remaining -= take
            mean = max(total, 0.0) / (histogram.count - dropped)
        return cls(
            mean=mean,
            p50=histogram.percentile(50, skip_top=dropped),
            p95=histogram.percentile(95, skip_top=dropped),
            p99=histogram.percentile(99, skip_top=dropped),
            samples=histogram.count - dropped,
            trimmed=dropped,
        )
