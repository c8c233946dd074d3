"""Smoke test for the saturation load harness (``--serve-load``).

One tiny single-stage run against a real server: slow-ish (~2 s) but
it is the only guard that the CI ``serve-load-smoke`` job's whole path
— harness, schema-4 report section, registry-gateable phase entries —
keeps working.
"""

from __future__ import annotations

from repro.bench import run_bench
from repro.bench.serve import format_serve_load, run_serve_load


def test_run_serve_load_single_stage_smoke():
    section = run_serve_load(
        clients=3, duration=0.5, worker_counts=[1],
        length=2_000, warm_pool=2,
    )
    assert section["worker_counts"] == [1]
    (stage,) = section["stages"]
    assert stage["workers"] == 1
    assert stage["completed"] > 0
    assert stage["failed"] == 0
    assert stage["uops"] > 0
    assert stage["requests_per_sec"] > 0
    assert stage["p50_ms"] is not None
    assert stage["p99_ms"] >= stage["p50_ms"]
    assert stage["speedup"] == 1.0
    # Error/backpressure counters are always present (zero or not).
    for counter in ("retries", "rejected_429", "server_failed"):
        assert stage[counter] >= 0
    rendered = format_serve_load(section)
    assert "w=1" in rendered
    assert "p99" in rendered


def test_run_bench_serve_load_phase_entries():
    report = run_bench(
        quick=True, phases=["serve_load"],
        load_clients=2, load_duration=0.4, load_workers=[1],
    )
    assert report["schema"] == 4
    assert "serve_load" in report
    assert set(report["phases"]) == {"serve_load_w1"}
    phase = report["phases"]["serve_load_w1"]
    # The perf registry ingests any phase with uops_per_sec; the wide
    # embedded tolerance keeps the gate sane on noisy saturation runs.
    assert phase["uops_per_sec"] > 0
    assert 0.0 < phase["tolerance"] < 1.0


def test_later_stages_draw_fresh_cold_lengths(monkeypatch):
    """Cold requests of a later stage never repeat an earlier stage's.

    Each stage starts a fresh server and cache, but the in-memory trace
    cache of an inline stage survives it (and forked workers of later
    stages inherit it), so a repeated cold length would skip trace
    generation and read as a faster "cold" request.
    """
    from repro.bench import serve as serve_bench
    from repro.serve.client import ServeClient

    base_length = 2_000
    stage_lengths = []
    original_stage = serve_bench._load_stage
    original_submit = ServeClient.submit_with_retry

    def recording_stage(**kwargs):
        stage_lengths.append(set())
        return original_stage(**kwargs)

    def recording_submit(self, request, *args, **kwargs):
        if request["length"] > base_length:
            stage_lengths[-1].add(request["length"])
        return original_submit(self, request, *args, **kwargs)

    monkeypatch.setattr(serve_bench, "_load_stage", recording_stage)
    monkeypatch.setattr(ServeClient, "submit_with_retry", recording_submit)
    section = run_serve_load(
        clients=2, duration=0.4, worker_counts=[1, 1],
        length=base_length, warm_fraction=0.0, warm_pool=1,
    )
    assert [stage["workers"] for stage in section["stages"]] == [1, 1]
    first, second = stage_lengths
    assert first and second
    assert first.isdisjoint(second)
