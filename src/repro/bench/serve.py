"""Serve-mode latency and saturation benchmarks.

Two harnesses live here:

- :func:`run_serve_bench` (``repro bench --serve``) measures the
  per-request overhead a single sweep client experiences: a
  :class:`~repro.serve.app.BackgroundServer` is started on an
  ephemeral port, one cold request pays the real simulation, then a
  stream of identical requests measures the warm path (submit →
  memoized/cached answer → result fetched).
- :func:`run_serve_load` (``repro bench --serve-load``) measures what
  the service does *under saturation*: for each worker count in a
  stage list it starts a fresh server (fresh cache, so cold traffic
  is really cold) and drives it with many concurrent client threads
  submitting a mixed cold/warm request stream for a bounded duration.
  Latencies are recorded into the same fixed-bucket
  :class:`~repro.serve.metrics.LatencyHistogram` the server's
  ``/metrics`` endpoint uses, so the harness's p50/p99 and the
  server's are read from identical buckets.  Each stage reports
  saturation throughput (requests/s and served uops/s), latency
  quantiles, and the error/backpressure counts (client retries, 429
  rejections, failures) that tell saturation apart from collapse.

Reported latencies are end-to-end over HTTP on localhost, so they
include request parsing, scheduling and JSON encoding — the things
``repro bench``'s in-process phases cannot see.
"""

from __future__ import annotations

import itertools
import random
import tempfile
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: Default worker-count stages for ``--serve-load`` (the scaling
#: table: single-worker baseline, then 2x and 4x sharded pools).
DEFAULT_LOAD_WORKERS = (1, 2, 4)


def run_serve_bench(
    requests: int = 32,
    length: int = 20_000,
    total_uops: int = 2048,
    workers: int = 2,
    cache_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run the latency benchmark; returns the ``serve`` report section."""
    from repro.exec.engine import ExecPolicy
    from repro.serve.app import BackgroundServer, build_app
    from repro.serve.client import ServeClient

    policy = ExecPolicy(
        workers=workers, use_cache=True, cache_dir=cache_dir, progress=False
    )
    app = build_app(policy=policy, port=0, queue_size=max(64, requests * 2))
    server = BackgroundServer(app)
    base_url = server.start()
    try:
        client = ServeClient(base_url, timeout=120.0)
        request = {
            "kind": "sim", "frontend": "xbc", "suite": "specint",
            "index": 0, "length": length, "total_uops": total_uops,
        }

        t0 = time.perf_counter()
        acknowledgement = client.submit(request)
        document = client.wait(acknowledgement["job_id"], timeout=120.0)
        cold_seconds = time.perf_counter() - t0
        if document["status"] != "done":
            raise RuntimeError(
                f"cold serve request failed: {document.get('error')}"
            )

        warm: List[float] = []
        for _ in range(requests):
            t0 = time.perf_counter()
            acknowledgement = client.submit(request)
            document = client.wait(acknowledgement["job_id"], timeout=120.0)
            warm.append(time.perf_counter() - t0)
        warm.sort()

        def quantile(q: float) -> float:
            rank = min(len(warm) - 1, max(0, round(q * (len(warm) - 1))))
            return warm[rank]

        metrics = client.metrics()
        return {
            "requests": requests,
            "length_uops": length,
            "total_uops": total_uops,
            "cold_ms": round(cold_seconds * 1000.0, 3),
            "warm_p50_ms": round(quantile(0.50) * 1000.0, 3),
            "warm_p95_ms": round(quantile(0.95) * 1000.0, 3),
            "warm_mean_ms": round(
                sum(warm) / len(warm) * 1000.0, 3
            ),
            "warm_requests_per_sec": round(
                len(warm) / sum(warm), 1
            ),
            "server_jobs": metrics["jobs"],
        }
    finally:
        server.stop()


def format_serve_bench(section: Dict[str, object]) -> str:
    """Human-readable rendering for the CLI."""
    return (
        f"  serve            cold {section['cold_ms']:.1f} ms, "
        f"warm p50 {section['warm_p50_ms']:.1f} ms / "
        f"p95 {section['warm_p95_ms']:.1f} ms "
        f"({section['warm_requests_per_sec']:,.0f} req/s over "
        f"{section['requests']} warm requests)"
    )


# ----------------------------------------------------------------------
# saturation load harness (``repro bench --serve-load``)
# ----------------------------------------------------------------------


def _load_stage(
    workers: int,
    clients: int,
    duration: float,
    length: int,
    total_uops: int,
    warm_fraction: float,
    warm_pool: int,
    queue_size: int,
    cache_dir: str,
    cold_steps: Iterator[int],
) -> Dict[str, object]:
    """Drive one worker-count stage to saturation; returns its report.

    *cold_steps* numbers the cold requests.  It is shared by every stage
    of a ladder so no stage repeats a cold length an earlier stage
    already simulated: the in-memory trace cache of an inline stage
    outlives its server, and forked worker processes of later stages
    inherit it.
    """
    from repro.exec.engine import ExecPolicy
    from repro.serve.app import BackgroundServer, build_app
    from repro.serve.client import (
        RetryPolicy,
        ServeClient,
        ServeError,
        ServeUnavailable,
    )
    from repro.serve.metrics import LatencyHistogram

    # One engine thread per shard: the scaling the stage measures must
    # come from adding *worker processes*, not from hidden threads.
    policy = ExecPolicy(
        workers=1, use_cache=True, cache_dir=cache_dir, progress=False
    )
    app = build_app(
        policy=policy, port=0, queue_size=queue_size, serve_workers=workers
    )
    server = BackgroundServer(app)
    base_url = server.start()
    try:
        seed = ServeClient(base_url, timeout=120.0)
        warm_requests = [
            {
                "kind": "sim", "frontend": "xbc", "suite": "specint",
                "index": index, "length": length,
                "total_uops": total_uops,
            }
            for index in range(warm_pool)
        ]
        # Pre-pay the warm pool's simulations so "warm" traffic during
        # the timed window is genuinely warm (memo/cache hits).
        for request in warm_requests:
            acknowledgement = seed.submit(request)
            document = seed.wait(acknowledgement["job_id"], timeout=120.0)
            if document["status"] != "done":
                raise RuntimeError(
                    f"warm-pool seed failed: {document.get('error')}"
                )

        # Cold traffic: every request gets a never-seen-before job key
        # by stretching the trace length (index is range-capped by the
        # protocol, length is not) — each cold submit really simulates.
        counter_lock = threading.Lock()

        def next_cold_request() -> Dict[str, Any]:
            with counter_lock:
                step = next(cold_steps)
            request = dict(warm_requests[0])
            request["length"] = length + step
            return request

        retry = RetryPolicy(attempts=4, base=0.05, cap=1.0)
        start_gate = threading.Event()
        deadline = [0.0]  # set just before the gate opens

        def client_loop(thread_index: int) -> Dict[str, object]:
            rng = random.Random(0xB0A7 ^ thread_index)
            client = ServeClient(base_url, timeout=30.0)
            histogram = LatencyHistogram()
            counts = {
                "completed": 0, "failed": 0, "retries": 0,
                "cold": 0, "warm": 0, "uops": 0,
            }

            def counting_sleep(seconds: float) -> None:
                counts["retries"] += 1
                time.sleep(seconds)

            start_gate.wait()
            while time.monotonic() < deadline[0]:
                if rng.random() < warm_fraction:
                    request = warm_requests[
                        rng.randrange(len(warm_requests))
                    ]
                    counts["warm"] += 1
                else:
                    request = next_cold_request()
                    counts["cold"] += 1
                t0 = time.perf_counter()
                try:
                    acknowledgement = client.submit_with_retry(
                        request, retry=retry,
                        sleep=counting_sleep, rng=rng.random,
                    )
                    document = client.wait(
                        acknowledgement["job_id"], timeout=60.0
                    )
                    ok = document.get("status") == "done"
                except (ServeError, ServeUnavailable):
                    ok = False
                histogram.record(time.perf_counter() - t0)
                if ok:
                    counts["completed"] += 1
                    counts["uops"] += request["length"]
                else:
                    counts["failed"] += 1
            return {"histogram": histogram, **counts}

        results: List[Optional[Dict[str, object]]] = [None] * clients

        def runner(slot: int) -> None:
            results[slot] = client_loop(slot)

        threads = [
            threading.Thread(
                target=runner, args=(slot,),
                name=f"serve-load-client-{slot}", daemon=True,
            )
            for slot in range(clients)
        ]
        for thread in threads:
            thread.start()
        t_start = time.monotonic()
        deadline[0] = t_start + duration
        start_gate.set()
        for thread in threads:
            thread.join()
        elapsed = max(time.monotonic() - t_start, 1e-9)

        histogram = LatencyHistogram()
        totals = {
            "completed": 0, "failed": 0, "retries": 0,
            "cold": 0, "warm": 0, "uops": 0,
        }
        for result in results:
            if result is None:  # pragma: no cover - thread died
                continue
            histogram.merge(result["histogram"])
            for name in totals:
                totals[name] += result[name]

        metrics = seed.metrics()
        latency = histogram.snapshot()
        return {
            "workers": workers,
            "clients": clients,
            "duration_seconds": round(elapsed, 3),
            "completed": totals["completed"],
            "failed": totals["failed"],
            "retries": totals["retries"],
            "cold": totals["cold"],
            "warm": totals["warm"],
            "requests_per_sec": round(totals["completed"] / elapsed, 1),
            "uops": totals["uops"],
            "uops_per_sec": round(totals["uops"] / elapsed, 1),
            "p50_ms": latency["p50_ms"],
            "p99_ms": latency["p99_ms"],
            "mean_ms": latency["mean_ms"],
            "max_ms": latency["max_ms"],
            "rejected_429": metrics["jobs"]["rejected"],
            "server_failed": metrics["jobs"]["failed"],
            "server_cache_hit_ratio":
                metrics["engine"]["cache_hit_ratio"],
        }
    finally:
        server.stop()


def run_serve_load(
    clients: int = 16,
    duration: float = 4.0,
    worker_counts: Optional[Sequence[int]] = None,
    length: int = 6_000,
    total_uops: int = 2048,
    warm_fraction: float = 0.8,
    warm_pool: int = 4,
    queue_size: int = 512,
) -> Dict[str, object]:
    """Run the saturation load harness over a list of worker counts.

    For each count in *worker_counts* (default
    :data:`DEFAULT_LOAD_WORKERS`) a fresh server with a fresh cache is
    saturated by *clients* concurrent threads for *duration* seconds
    with a *warm_fraction* / cold mixed stream.  Returns the
    ``serve_load`` report section: the shared settings plus one stage
    dict per worker count, each carrying its throughput, latency
    quantiles and error/backpressure counts, and a ``speedup`` factor
    relative to the first (baseline) stage.
    """
    counts = list(worker_counts) if worker_counts else \
        list(DEFAULT_LOAD_WORKERS)
    if not counts or any(count < 1 for count in counts):
        raise ValueError(
            f"worker counts must be positive integers, got {counts}"
        )
    stages: List[Dict[str, object]] = []
    cold_steps = itertools.count(1)
    for workers in counts:
        with tempfile.TemporaryDirectory(
            prefix="repro-serve-load-"
        ) as cache_dir:
            stages.append(_load_stage(
                workers=workers, clients=clients, duration=duration,
                length=length, total_uops=total_uops,
                warm_fraction=warm_fraction, warm_pool=warm_pool,
                queue_size=queue_size, cache_dir=cache_dir,
                cold_steps=cold_steps,
            ))
    baseline = stages[0]["requests_per_sec"] or 1.0
    for stage in stages:
        stage["speedup"] = round(
            float(stage["requests_per_sec"]) / float(baseline), 2
        )
    return {
        "clients": clients,
        "duration_seconds": duration,
        "length_uops": length,
        "total_uops": total_uops,
        "warm_fraction": warm_fraction,
        "warm_pool": warm_pool,
        "queue_size": queue_size,
        "worker_counts": counts,
        "stages": stages,
    }


def format_serve_load(section: Dict[str, object]) -> str:
    """Human-readable scaling table for the CLI."""
    lines = [
        f"  serve-load: {section['clients']} clients, "
        f"{section['duration_seconds']}s/stage, "
        f"{int(float(section['warm_fraction']) * 100)}% warm"
    ]
    for stage in section["stages"]:
        lines.append(
            f"    w={stage['workers']}: "
            f"{stage['requests_per_sec']:8,.1f} req/s "
            f"({stage['speedup']:.2f}x)  "
            f"p50 {stage['p50_ms']:.1f} ms / p99 {stage['p99_ms']:.1f} ms  "
            f"{stage['completed']} ok, {stage['failed']} failed, "
            f"{stage['retries']} retries, {stage['rejected_429']} x 429"
        )
    return "\n".join(lines)
