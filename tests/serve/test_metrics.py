"""Tests for the fixed-bucket latency histogram and /metrics gauges."""

from __future__ import annotations

import pytest

from repro.serve.metrics import (
    LATENCY_BUCKET_BOUNDS,
    LatencyHistogram,
    ServiceMetrics,
)


class TestLatencyHistogram:
    def test_empty_histogram_reports_none(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) is None
        assert histogram.mean() is None
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p99_ms"] is None

    def test_quantile_never_underestimates(self):
        """The reported quantile is a bucket upper bound: always >= the
        true value, at most one bucket width above it."""
        histogram = LatencyHistogram()
        samples = [0.0005, 0.001, 0.004, 0.01, 0.05, 0.2, 1.5]
        for sample in samples:
            histogram.record(sample)
        for q in (0.5, 0.9, 0.99):
            true_rank = sorted(samples)[
                min(len(samples) - 1, int(q * len(samples)))
            ]
            assert histogram.quantile(q) >= true_rank

    def test_mean_and_max_are_exact(self):
        histogram = LatencyHistogram()
        for sample in (0.010, 0.020, 0.030):
            histogram.record(sample)
        assert histogram.mean() == pytest.approx(0.020)
        assert histogram.max == pytest.approx(0.030)

    def test_overflow_bucket_reports_the_max(self):
        histogram = LatencyHistogram()
        histogram.record(500.0)  # beyond the last bound (~100 s)
        assert histogram.quantile(0.99) == pytest.approx(500.0)

    def test_shared_bounds_cover_serving_range(self):
        """100 µs to 100 s: sub-ms warm hits and multi-second cold
        simulations both land inside the binned range."""
        assert LATENCY_BUCKET_BOUNDS[0] <= 1e-4
        assert LATENCY_BUCKET_BOUNDS[-1] >= 100.0


class TestServiceMetricsSnapshot:
    def test_latency_section_uses_histograms(self):
        metrics = ServiceMetrics()
        metrics.job_latency.record(0.002)
        metrics.job_latency.record(0.004)
        snapshot = metrics.snapshot()
        latency = snapshot["latency"]["job"]
        assert latency["count"] == 2
        assert latency["p50_ms"] is not None
        assert latency["p99_ms"] is not None
