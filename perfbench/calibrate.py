"""Host-speed calibration.

The 2-CPU virtual machines this benchmark runs on change speed by up
to 2x within minutes, whatever runs in them: a fixed pure-Python loop
timed back to back reads anywhere from 23 to 50 ms.  Each unit of work
therefore times :func:`probe` right before and right after itself, and
the end-to-end time metrics are rescaled to a reference host speed:
``reported = measured * REFERENCE_S / probe``.  Raw values are printed
too.  The probe is benchmark code, so a change to the program never
moves it.
"""

from __future__ import annotations

import time

#: Probe time of this loop on the reference host (a 2-CPU VM running
#: CPython 3.11 in its fast state).  Reported times are in seconds of
#: that host.
REFERENCE_S = 0.0300


def _loop() -> int:
    table = {}
    total = 0
    for i in range(120_000):
        table[i & 1023] = total
        total += table.get((i * 7) & 1023, 1) & 0xFF
    return total


def probe(repeats: int = 3) -> float:
    """Fastest of *repeats* timings of a fixed interpreter-bound loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best
