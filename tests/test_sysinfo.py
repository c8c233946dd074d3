"""The machine-readable documents behind ``repro info --json`` and
``GET /metrics``: their top-level keys are a schema scripts rely on."""

from __future__ import annotations

from repro.cli import main
from repro.serve.metrics import ServiceMetrics, merge_sysinfo
from repro.sysinfo import host_data, info_data

HOST_KEYS = {"python", "implementation", "platform", "cpu_count",
             "cpu_affinity"}


def test_info_data_top_level_keys(tmp_path):
    document = info_data(cache_root=str(tmp_path))
    assert set(document) == {"traces", "profiles", "trace_cache", "cache",
                             "host"}
    assert set(document["host"]) == HOST_KEYS


def test_merge_sysinfo_top_level_keys(tmp_path):
    merged = merge_sysinfo(ServiceMetrics().snapshot(), str(tmp_path))
    assert set(merged) == {"uptime_seconds", "draining", "requests", "jobs",
                           "engine", "latency", "cache", "host"}
    assert set(merged["host"]) == HOST_KEYS


def test_info_text_prints_one_host_line(capsys):
    assert main(["info", "--traces-per-suite", "1", "--length", "3000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    host = [line for line in lines if line.startswith("[host]")]
    assert len(host) == 1
    assert host_data()["python"] in host[0]
    assert not any(line.startswith("[perf]") for line in lines)

