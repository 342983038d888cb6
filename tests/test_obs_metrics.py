"""Observability: the metrics registry and its instruments."""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter, Gauge, Histogram


# -- instruments --------------------------------------------------------------


def test_counter_monotonic():
    counter = Counter("c")
    counter.inc()
    counter.inc(5)
    assert counter.value == 6
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = Gauge("g")
    gauge.set(10)
    gauge.add(-3)
    assert gauge.value == 7


def test_histogram_log2_buckets():
    histogram = Histogram("h")
    for value in (0, 1, 2, 3, 4, 7, 8, 1000):
        histogram.observe(value)
    # bucket i holds [2**(i-1), 2**i); bucket 0 holds exactly 0.
    assert histogram.buckets == {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1}
    assert histogram.count == 8
    assert histogram.total == 1025
    assert histogram.max_value == 1000
    assert histogram.mean == pytest.approx(1025 / 8)
    with pytest.raises(ValueError):
        histogram.observe(-1)


def test_histogram_as_dict_uses_upper_bounds():
    histogram = Histogram("h")
    for value in (0, 1, 5, 9):
        histogram.observe(value)
    data = histogram.as_dict()
    # Keys are inclusive upper bounds: 0, 1, 7 (for [4,8)), 15 (for [8,16)).
    assert data["buckets"] == {"0": 1, "1": 1, "7": 1, "15": 1}
    assert data["count"] == 4
    json.dumps(data)  # snapshot must be JSON-ready


# -- registry -----------------------------------------------------------------


def test_registry_get_or_create_and_type_clash():
    registry = MetricsRegistry()
    counter = registry.counter("hits")
    assert registry.counter("hits") is counter
    with pytest.raises(TypeError):
        registry.gauge("hits")
    registry.gauge("depth")
    registry.histogram("sizes")
    assert registry.names() == ["depth", "hits", "sizes"]


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("hits").inc(3)
    registry.gauge("depth").set(2)
    registry.histogram("sizes").observe(6)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"hits": 3}
    assert snapshot["gauges"] == {"depth": 2}
    assert snapshot["histograms"]["sizes"]["count"] == 1
    json.dumps(snapshot)
