"""Live operational metrics for the simulation service.

One :class:`ServiceMetrics` instance is shared by the HTTP layer and
the scheduler; ``GET /metrics`` renders :meth:`ServiceMetrics.snapshot`
as JSON.  Everything is plain counters plus fixed-bucket latency
histograms (:data:`LATENCY_BUCKET_BOUNDS`) — cheap enough to update on
every request, with quantiles computed only when a snapshot is taken.

All updates happen on the event-loop thread (engine observer events
are trampolined there by the scheduler), so no locking is needed.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Dict, Optional, Sequence


def _log_bounds(lo: float, hi: float, per_decade: int) -> tuple:
    """Log-spaced bucket upper bounds from *lo* to at least *hi*."""
    bounds = []
    value = lo
    factor = 10.0 ** (1.0 / per_decade)
    while value < hi:
        bounds.append(value)
        value *= factor
    bounds.append(value)
    return tuple(bounds)


#: Histogram bucket upper bounds, in seconds: 100 µs to ~100 s,
#: 8 buckets per decade (~33% resolution).
LATENCY_BUCKET_BOUNDS = _log_bounds(1e-4, 100.0, per_decade=8)


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimates.

    Buckets are log-spaced and *fixed* (:data:`LATENCY_BUCKET_BOUNDS`
    by default), so a quantile read anywhere means the same thing.
    A quantile is reported as the upper bound of the bucket holding
    that rank (a ≤33% overestimate, never an underestimate).
    """

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKET_BOUNDS
                 ) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        """Add one observation."""
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def quantile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket holding the *q*-rank observation."""
        if not self.count:
            return None
        rank = max(1, min(self.count, int(q * self.count) + 1))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max  # overflow bucket: all we know is the max
        return self.max

    def mean(self) -> Optional[float]:
        """Exact mean of all observations (``None`` before the first)."""
        if not self.count:
            return None
        return self.total / self.count

    def snapshot(self) -> Dict[str, Optional[float]]:
        """p50/p95/p99/mean/max in milliseconds plus the sample count."""
        def ms(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value * 1000.0, 3)

        return {
            "count": self.count,
            "p50_ms": ms(self.quantile(0.50)),
            "p95_ms": ms(self.quantile(0.95)),
            "p99_ms": ms(self.quantile(0.99)),
            "mean_ms": ms(self.mean()),
            "max_ms": ms(self.max if self.count else None),
        }


class ServiceMetrics:
    """Counters and gauges behind ``GET /metrics``."""

    def __init__(self) -> None:
        #: monotonic start mark — uptime must not jump when the wall
        #: clock is stepped (NTP adjustment, suspend/resume).
        self.started = time.monotonic()
        #: HTTP surface.
        self.requests_total = 0
        self.responses_by_status: Dict[int, int] = {}
        #: Submission funnel.
        self.jobs_submitted = 0      #: accepted as new work
        self.jobs_coalesced = 0      #: deduplicated onto in-flight work
        self.jobs_memoized = 0       #: answered from a terminal entry
        self.jobs_rejected = 0       #: 429 backpressure rejections
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0      #: queued jobs dropped by a drain
        #: Engine-side accounting.
        self.engine_runs = 0
        self.engine_executed = 0     #: jobs actually computed
        self.engine_cache_hits = 0   #: jobs served by the result cache
        self.uops_delivered = 0      #: trace uops of completed sim work
        self.busy_seconds = 0.0      #: summed per-job engine wall time
        #: submit -> terminal latency of completed jobs.
        self.job_latency = LatencyHistogram()
        #: wall time of whole engine batches.
        self.batch_latency = LatencyHistogram()

    # ------------------------------------------------------------------

    def record_response(self, status: int) -> None:
        """Count one HTTP response."""
        self.requests_total += 1
        self.responses_by_status[status] = (
            self.responses_by_status.get(status, 0) + 1
        )

    def uops_per_sec(self) -> Optional[float]:
        """Aggregate simulation throughput over executed jobs."""
        if self.busy_seconds <= 0.0:
            return None
        return self.uops_delivered / self.busy_seconds

    def cache_hit_ratio(self) -> Optional[float]:
        """Engine result-cache hits / engine-resolved jobs."""
        resolved = self.engine_executed + self.engine_cache_hits
        if not resolved:
            return None
        return self.engine_cache_hits / resolved

    def snapshot(
        self, queue_depth: int = 0, inflight: int = 0, draining: bool = False,
    ) -> Dict[str, object]:
        """The ``/metrics`` document (gauges passed in by the caller)."""
        ups = self.uops_per_sec()
        ratio = self.cache_hit_ratio()
        jobs: Dict[str, object] = {
            "submitted": self.jobs_submitted,
            "coalesced": self.jobs_coalesced,
            "memoized": self.jobs_memoized,
            "rejected": self.jobs_rejected,
            "completed": self.jobs_completed,
            "failed": self.jobs_failed,
            "cancelled": self.jobs_cancelled,
            "queue_depth": queue_depth,
            "inflight": inflight,
        }
        return {
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "draining": draining,
            "requests": {
                "total": self.requests_total,
                "by_status": {
                    str(code): count
                    for code, count in sorted(
                        self.responses_by_status.items()
                    )
                },
            },
            "jobs": jobs,
            "engine": {
                "runs": self.engine_runs,
                "executed": self.engine_executed,
                "cache_hits": self.engine_cache_hits,
                "cache_hit_ratio": (
                    None if ratio is None else round(ratio, 4)
                ),
                "uops_delivered": self.uops_delivered,
                "busy_seconds": round(self.busy_seconds, 6),
                "uops_per_sec": None if ups is None else round(ups, 1),
            },
            "latency": {
                "job": self.job_latency.snapshot(),
                "batch": self.batch_latency.snapshot(),
            },
        }


def merge_sysinfo(snapshot: Dict[str, object],
                  cache_root: Optional[str] = None) -> Dict[str, object]:
    """Extend a metrics snapshot with host + persistent-cache info.

    Reuses the same machine-readable builders as ``repro info --json``
    so scripts see one schema in both places.
    """
    from repro.sysinfo import cache_data, host_data

    merged = dict(snapshot)
    merged["cache"] = cache_data(cache_root)
    merged["host"] = host_data()
    return merged
