"""Performance benchmarking of the simulation core (``repro bench``).

The repo's tier-1 tests pin *what* the simulators compute; this package
pins *how fast*.  ``repro bench`` times trace generation and each
frontend at a fixed uop budget and writes a ``BENCH_<rev>.json`` report
so the repository accumulates a perf trajectory alongside its results.

Machine-to-machine comparability comes from a calibration loop: every
report embeds the score of a fixed pure-Python workload measured in the
same process, and the ``repro perf`` registry gates each phase on its
calibrated throughput (see :mod:`repro.perf`).
"""

from repro.bench.harness import (
    format_report,
    resolve_phases,
    run_bench,
    write_report,
)
from repro.bench.serve import (
    format_serve_bench,
    format_serve_load,
    run_serve_bench,
    run_serve_load,
)

__all__ = [
    "format_report",
    "format_serve_bench",
    "format_serve_load",
    "resolve_phases",
    "run_bench",
    "run_serve_bench",
    "run_serve_load",
    "write_report",
]
