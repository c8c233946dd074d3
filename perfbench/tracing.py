"""Layer spans recorded from outside the program.

:func:`install` replaces each public layer entry point with a thin
wrapper at the module or class attribute its callers resolve, so the
program itself is not edited.  A span records its name, start, end,
parent span and request id; spans stay in memory and are written out
once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: (module, attribute owner or None, attribute, span name).  A module
#: attribute is patched where the caller looks it up, which is why
#: ``build_xb_stream`` appears twice.
ENTRY_POINTS = [
    ("repro.harness.registry", None, "make_trace", "registry.make_trace"),
    ("repro.harness.registry", None, "generate_program", "program.gen"),
    ("repro.harness.registry", None, "execute_program", "trace.exec"),
    ("repro.exec.job", None, "compute_block_stats", "trace.blockstats"),
    ("repro.xbc.frontend", None, "build_xb_stream", "xbseq"),
    ("repro.xbc.xbseq", None, "build_xb_stream", "xbseq"),
    ("repro.frontend.ic_frontend", "ICFrontend", "run", "frontend.ic"),
    ("repro.frontend.decoded_cache", "DecodedCacheFrontend", "run",
     "frontend.dc"),
    ("repro.tc.frontend", "TcFrontend", "run", "frontend.tc"),
    ("repro.xbc.frontend", "XbcFrontend", "run", "frontend.xbc"),
    ("repro.bbtc.frontend", "BbtcFrontend", "run", "frontend.bbtc"),
    ("repro.exec.job", "SimJob", "encode_result", "exec.encode"),
    ("repro.exec.job", "BlockStatsJob", "encode_result", "exec.encode"),
    ("repro.exec.cache", "ResultCache", "put", "exec.cache_put"),
    ("repro.exec.cache", "ResultCache", "get", "exec.cache_get"),
    ("repro.exec.cache", "TraceStore", "store", "exec.trace_store"),
    ("repro.exec.cache", "TraceStore", "load", "exec.trace_load"),
    # execute_jobs is a one-line wrapper over ExecutionEngine.run; the
    # serve scheduler calls the method directly, so the span goes there.
    ("repro.exec.engine", "ExecutionEngine", "run", "exec.engine"),
]

#: Client-side entry points of the serve workload.
CLIENT_ENTRY_POINTS = [
    ("repro.serve.client", "ServeClient", "submit", "serve.submit"),
    ("repro.serve.client", "ServeClient", "wait", "serve.wait"),
]


def _measure(name: str, result: Any) -> Optional[int]:
    """Work count attached to a span: uops simulated or generated."""
    if name.startswith("frontend."):
        return result.uops_from_ic + result.uops_from_structure
    if name == "program.gen":
        return result.static_uops
    return None


class Tracer:
    """In-memory span store shared by every thread of one process."""

    def __init__(self, delays: Optional[Dict[str, float]] = None) -> None:
        #: rows of [name, start, end, parent, request, count]
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[tuple] = []
        #: injected slowdown per span name, as a fraction of the
        #: wrapped call's own duration (sensitivity self-test only).
        self.delays = dict(delays or {})

    def request(self, request_id: Optional[str]) -> None:
        """Tag spans opened by this thread with *request_id*."""
        self._local.request = request_id

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* with a span around every call."""
        delay = self.delays.get(name, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            row = [name, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1,
                   getattr(local, "request", None), None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(row)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                row[5] = _measure(name, result)
                if delay:
                    _spin(delay * (time.perf_counter() - row[1]))
                return result
            finally:
                stack.pop()
                row[2] = time.perf_counter()

        return traced

    def install(self, entry_points=ENTRY_POINTS) -> None:
        """Patch every entry point; :meth:`uninstall` undoes it."""
        for module_name, owner_name, attr, name in entry_points:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(
                module, owner_name
            )
            raw = inspect.getattr_static(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                patched = staticmethod(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw)
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Restore the attributes :meth:`install` replaced."""
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def dump(self, path: str) -> None:
        """Write every span as JSON (called once, at the end)."""
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _spin(seconds: float) -> None:
    """Busy-wait, so an injected delay costs CPU like real work."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def summarize(spans: List[list], window) -> Dict[str, Dict[str, float]]:
    """Per span name: self seconds, call count and work count.

    Only spans that start inside *window* = ``(start, end)`` count.  A
    span's self time is its duration minus the time its child spans
    cover; children run nested inside their parent on one thread, so
    that is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: Dict[str, Dict[str, float]] = {}
    low, high = window
    for index, (name, start, end, _, _, count) in enumerate(spans):
        if not low <= start < high:
            continue
        row = totals.setdefault(name, {"self": 0.0, "calls": 0, "work": 0})
        row["self"] += (end - start) - child[index]
        row["calls"] += 1
        row["work"] += count or 0
    return totals


def covered(spans: List[list], window) -> float:
    """Seconds of *window* covered by the union of all spans."""
    low, high = window
    intervals = sorted(
        (max(s, low), min(e, high)) for _, s, e, _, _, _ in spans
    )
    total = 0.0
    cursor = low
    for s, e in intervals:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total
