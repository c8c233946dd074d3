"""The benchmark harness behind ``repro bench``.

Each *phase* is timed with ``time.perf_counter`` (best of N repeats,
because the first repeat pays warm-up costs and the scheduler adds
noise) and reported as seconds plus uops/second.  Peak RSS comes from
``resource.getrusage`` where available (Linux/macOS; the import is
gated so the harness still runs on platforms without it).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness.registry import registry_spec
from repro.harness.runner import FRONTEND_KINDS, run_frontend
from repro.program.generator import generate_program
from repro.program.profiles import profile_for_suite
from repro.trace.executor import execute_program

#: Report schema version (bump when the JSON layout changes).
#: 2: added ``phase_list`` and ``cpu_affinity``; phases are filterable.
#: 3: added ``timestamp`` (UTC ISO-8601); ``rev`` carries a ``-dirty``
#:    suffix when the working tree has uncommitted changes.
#: 4: added the ``serve_load`` phase token and report section; a
#:    ``serve_load_w<N>`` phase entry per worker-count stage (with an
#:    embedded ``tolerance``, saturation numbers are noisier than
#:    in-process timing); trace generation is skipped entirely when no
#:    simulation phase is selected.
SCHEMA = 4

_BENCH_SUITES = ("specint", "games", "sysmark")
_QUICK_SUITES = ("specint",)

#: The non-frontend phase names accepted by the ``phases`` filter.
_TRACE_GEN_PHASE = "trace_gen"
_SERVE_LOAD_PHASE = "serve_load"

#: Gate tolerance embedded in ``serve_load_w<N>`` phase entries:
#: end-to-end saturation throughput over HTTP on a shared CI box has
#: far more variance than best-of-N in-process loops.
SERVE_LOAD_TOLERANCE = 0.60


def _cpu_affinity() -> Optional[int]:
    """CPUs this process may run on (None where unsupported)."""
    getter = getattr(os, "sched_getaffinity", None)
    if getter is None:  # pragma: no cover - non-Linux platform
        return None
    try:
        return len(getter(0))
    except OSError:  # pragma: no cover - containers without the syscall
        return None


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB, if measurable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover
        return usage // 1024
    return usage


def _git_rev() -> str:
    """Short HEAD rev, with ``-dirty`` appended when the working tree
    has uncommitted changes — numbers measured on a modified tree must
    never be attributed to the clean rev in the perf registry."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode != 0:
            return "unknown"
        rev = out.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10,
        )
        if status.returncode == 0 and status.stdout.strip():
            rev += "-dirty"
        return rev
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def calibrate(loops: int = 200_000) -> float:
    """Score a fixed pure-Python workload in operations/second.

    The workload (dict traffic, integer arithmetic, attribute-free
    tight loop) is deliberately similar in character to the simulator
    hot loops, so its score tracks how fast *this interpreter on this
    machine* runs simulator-like code.  Reports embed the score;
    cross-machine comparisons divide it out.
    """
    best = float("inf")
    for _ in range(3):
        table: Dict[int, int] = {}
        t0 = time.perf_counter()
        acc = 0
        for i in range(loops):
            key = (i * 2654435761) & 1023
            acc += table.get(key, 0)
            table[key] = acc & 0xFFFF
        best = min(best, time.perf_counter() - t0)
    return loops / best


def _time_best(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Best-of-*repeats* wall time of *fn* and its last return value."""
    best = float("inf")
    value: object = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def resolve_phases(
    phases: Optional[List[str]],
    frontends: Optional[List[str]] = None,
) -> Tuple[bool, List[str], bool]:
    """Resolve the phase filter to
    (time trace_gen?, frontend kinds, run serve_load?).

    *phases* holds tokens from ``--phases`` (frontend kinds plus
    ``trace_gen`` and ``serve_load``); *frontends* is the legacy
    ``--frontend`` filter.  Both absent means every simulation phase
    runs (``serve_load`` is opt-in — it stands up real server
    processes); both present intersect.
    """
    kinds = list(frontends) if frontends else list(FRONTEND_KINDS)
    if phases is None:
        return True, kinds, False
    tokens = [token.strip() for token in phases if token.strip()]
    special = (_TRACE_GEN_PHASE, _SERVE_LOAD_PHASE)
    unknown = [
        token for token in tokens
        if token not in special and token not in FRONTEND_KINDS
    ]
    if unknown:
        valid = ", ".join(special + tuple(FRONTEND_KINDS))
        raise ValueError(
            f"unknown bench phase(s) {', '.join(unknown)}; expected {valid}"
        )
    selected = [kind for kind in kinds if kind in tokens]
    return (
        _TRACE_GEN_PHASE in tokens,
        selected,
        _SERVE_LOAD_PHASE in tokens,
    )


def run_bench(
    budget: int = 150_000,
    quick: bool = False,
    frontends: Optional[List[str]] = None,
    profile_path: Optional[str] = None,
    phases: Optional[List[str]] = None,
    serve_load: bool = False,
    load_clients: int = 16,
    load_duration: float = 4.0,
    load_workers: Optional[List[int]] = None,
) -> dict:
    """Run the benchmark suite and return the report dict.

    *budget* is the dynamic trace length in uops.  ``quick=True``
    shrinks the budget and suite list for CI smoke use.  *phases*
    restricts what is timed (frontend kinds, ``trace_gen`` and/or
    ``serve_load``); trace generation still happens — untimed — when
    filtered out but frontend phases run, because every frontend
    phase consumes its traces; it is skipped entirely when no
    simulation phase is selected (a pure ``serve_load`` run).  When
    *profile_path* is set, the ``xbc`` phase additionally runs once
    under :mod:`cProfile` and the stats are dumped there.

    ``serve_load=True`` (or a ``serve_load`` phase token) also runs
    the saturation load harness (:func:`repro.bench.serve
    .run_serve_load`) with *load_clients* concurrent clients for
    *load_duration* seconds per worker-count stage in *load_workers*;
    each stage lands in the report both as the ``serve_load`` section
    and as a ``serve_load_w<N>`` phase entry the perf registry
    ingests like any other phase.
    """
    if quick:
        budget = min(budget, 60_000)
    suites = _QUICK_SUITES if quick else _BENCH_SUITES
    repeats = 2 if quick else 3
    time_trace_gen, kinds, load_selected = resolve_phases(phases, frontends)
    load_selected = load_selected or serve_load

    phase_reports: Dict[str, dict] = {}
    serve_load_section: Optional[dict] = None

    # Phase 1: trace generation, caches bypassed (generator + executor
    # called directly, exactly what a cold `make_trace` does).  Skipped
    # outright when nothing downstream consumes the traces.
    def generate_all():
        traces = []
        for suite in suites:
            spec = registry_spec(suite, 0, budget)
            profile = profile_for_suite(spec.suite).scaled(spec.static_uops)
            program = generate_program(
                profile, seed=spec.seed, name=spec.name, suite=spec.suite
            )
            traces.append(execute_program(program, max_uops=spec.length_uops))
        return traces

    if time_trace_gen:
        seconds, traces = _time_best(generate_all, repeats)
    elif kinds or profile_path:
        traces = generate_all()
    else:
        traces = []
    total_uops = sum(trace.total_uops for trace in traces)
    if time_trace_gen:
        phase_reports[_TRACE_GEN_PHASE] = {
            "seconds": round(seconds, 6),
            "uops": total_uops,
            "uops_per_sec": round(total_uops / seconds, 1),
            "traces": len(traces),
        }

    # Phase 2..N: one phase per frontend, aggregated over the suites.
    for kind in kinds:
        total_seconds = 0.0
        for trace in traces:
            seconds, _ = _time_best(
                lambda t=trace: run_frontend(kind, t), repeats
            )
            total_seconds += seconds
        phase_reports[f"frontend_{kind}"] = {
            "seconds": round(total_seconds, 6),
            "uops": total_uops,
            "uops_per_sec": round(total_uops / total_seconds, 1),
        }

    if profile_path:
        import cProfile

        profiler = cProfile.Profile()
        trace = traces[0]
        profiler.enable()
        run_frontend("xbc", trace)
        profiler.disable()
        profiler.dump_stats(profile_path)

    if load_selected:
        from repro.bench.serve import run_serve_load

        serve_load_section = run_serve_load(
            clients=load_clients,
            duration=load_duration,
            worker_counts=load_workers,
            length=min(budget, 6_000),
        )
        for stage in serve_load_section["stages"]:
            # One registry-gateable phase per worker-count stage;
            # `uops` is served (not generated) work, so the throughput
            # means "simulation uops delivered to clients per second".
            phase_reports[f"serve_load_w{stage['workers']}"] = {
                "seconds": stage["duration_seconds"],
                "uops": stage["uops"],
                "uops_per_sec": stage["uops_per_sec"],
                "requests_per_sec": stage["requests_per_sec"],
                "p50_ms": stage["p50_ms"],
                "p99_ms": stage["p99_ms"],
                "tolerance": SERVE_LOAD_TOLERANCE,
            }

    report = {
        "schema": SCHEMA,
        "rev": _git_rev(),
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": _cpu_affinity(),
        "budget_uops": budget,
        "quick": quick,
        "suites": list(suites),
        "repeats": repeats,
        "calibration_ops_per_sec": round(calibrate(), 1),
        "peak_rss_kb": _peak_rss_kb(),
        "phase_list": list(phase_reports),
        "phases": phase_reports,
    }
    if serve_load_section is not None:
        report["serve_load"] = serve_load_section
    return report


def write_report(
    report: dict, out_dir: str = ".", registry_dir: Optional[str] = None
) -> str:
    """Write ``BENCH_<rev>.json`` into *out_dir*; returns the path.

    When *registry_dir* is given the report is also recorded into that
    perf registry (see :mod:`repro.perf`), so a plain ``repro bench
    --registry`` run extends the trajectory in one step.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{report['rev']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if registry_dir:
        from repro.perf.registry import PerfRegistry

        PerfRegistry(registry_dir).add(report)
    return path


def format_report(report: dict) -> str:
    """Human-readable rendering of a report."""
    affinity = report.get("cpu_affinity")
    affinity_note = f" ({affinity} usable)" if affinity is not None else ""
    lines = [
        f"bench @ {report['rev']} "
        f"(python {report['python']}, "
        f"{report['cpu_count']} cpus{affinity_note}, "
        f"budget {report['budget_uops']} uops"
        f"{', quick' if report.get('quick') else ''})",
        f"  calibration: {report['calibration_ops_per_sec']:,.0f} ops/s",
    ]
    if report.get("peak_rss_kb") is not None:
        lines.append(f"  peak RSS: {report['peak_rss_kb'] / 1024:.1f} MiB")
    for name, phase in report["phases"].items():
        lines.append(
            f"  {name:<16} {phase['seconds']:8.3f}s   "
            f"{phase['uops_per_sec']:>12,.0f} uops/s"
        )
    return "\n".join(lines)
