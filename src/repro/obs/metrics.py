"""The metrics registry: counters, gauges, and log2-bucket histograms.

The registry is the serving layer's aggregated face: admission (in
both serving stacks) and the in-process balancer publish their
``net.*`` counters, gauges and latency histogram into one
(docs/net.md).  It is host-side
bookkeeping and never touches a machine's modelled meters.  A run's own
distributions — call depth, live frames per size class, allocator
traps — come from its profile (:mod:`repro.fdo.profile`) and the
machine's meters, not from here.

Histograms use power-of-two buckets, since latencies and queue depths
span orders of magnitude.  Bucket *i* holds values ``v`` with
``2**(i-1) <= v < 2**i`` (bucket 0 holds 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


@dataclass
class Gauge:
    """A value that goes up and down (e.g. current call depth)."""

    name: str
    value: int = 0

    def set(self, value: int) -> None:
        self.value = value

    def add(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Histogram:
    """A log2-bucket histogram of non-negative integer observations.

    ``buckets[i]`` counts observations in ``[2**(i-1), 2**i)``; bucket 0
    counts zeros.  The exact count, sum, and max are kept alongside, so
    means are exact even though the distribution is bucketed.
    """

    name: str
    buckets: dict[int, int] = field(default_factory=dict)
    count: int = 0
    total: int = 0
    max_value: int = 0

    def observe(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name} takes non-negative values, got {value}")
        bucket = value.bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        upper_bounds = {
            str((1 << bucket) - 1 if bucket else 0): self.buckets[bucket]
            for bucket in sorted(self.buckets)
        }
        return {
            "count": self.count,
            "sum": self.total,
            "max": self.max_value,
            "mean": self.mean,
            "buckets": upper_bounds,
        }


class MetricsRegistry:
    """Named metrics.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the existing instrument afterwards (mixing types under one name is
    an error).  :meth:`snapshot` returns one JSON-ready dict.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        data: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                data["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                data["gauges"][name] = metric.value
            else:
                data["histograms"][name] = metric.as_dict()
        return data
