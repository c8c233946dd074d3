"""Persistent content-addressed stores for traces and job results.

Layout under one cache root (default ``~/.cache/repro``, overridable
with ``--cache-dir`` or the ``REPRO_CACHE_DIR`` environment variable)::

    <root>/traces/<key>.trace     serialized synthetic traces
    <root>/results/<key>.json     encoded job results
    <root>/manifests/run-*.json   run manifests (written by the engine)

Keys come from :mod:`repro.exec.hashing`: a stable SHA-256 over the
generating recipe (:class:`~repro.harness.registry.TraceSpec` fields,
config dataclasses, code version), so a cache entry can never be served
for a different experiment point and a code-version bump invalidates
everything at once.

Writes are atomic (temp file + ``os.replace``) so concurrent workers
racing on the same key leave a valid file either way, and a reader
never sees a partial entry.  A corrupt entry is treated as a miss.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.exec.hashing import versioned_key
from repro.trace.record import Trace
from repro.trace.tracefile import load_trace_auto, save_trace_binary


def default_cache_dir() -> str:
    """Resolve the cache root: env override, XDG convention, ``~``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def _atomic_write(path: str, text: str) -> None:
    """Write *text* to *path* so readers never observe a partial file.

    The temp file is removed on *any* failure — including
    ``KeyboardInterrupt``/cancellation, which is how a serve-mode drain
    or a per-job timeout can land mid-write — so an interrupted put
    never leaves a partial entry (visible or temp) behind.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


@dataclass
class StoreStats:
    """Session hit/miss counters plus an on-disk inventory."""

    entries: int = 0
    bytes: int = 0
    hits: int = 0
    misses: int = 0

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"entries={self.entries} bytes={self.bytes} "
            f"hits={self.hits} misses={self.misses}"
        )


@dataclass
class PruneReport:
    """What one prune pass removed and what it left in place."""

    removed_entries: int = 0
    removed_bytes: int = 0
    kept_entries: int = 0
    kept_bytes: int = 0

    def merge(self, other: "PruneReport") -> None:
        """Fold *other* into this report (for multi-store totals)."""
        self.removed_entries += other.removed_entries
        self.removed_bytes += other.removed_bytes
        self.kept_entries += other.kept_entries
        self.kept_bytes += other.kept_bytes

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"removed {self.removed_entries} entries "
            f"({self.removed_bytes} bytes), "
            f"kept {self.kept_entries} ({self.kept_bytes} bytes)"
        )


#: Temp files from an in-progress atomic write are ignored for this
#: long before a prune treats them as orphaned debris.
_TMP_GRACE_SECONDS = 15 * 60


def _is_tmp(path: str) -> bool:
    """Whether *path* is an atomic-write temp file (never a valid entry)."""
    return ".tmp." in os.path.basename(path)


def _scan_files(path: str, suffix: str):
    """``(path, mtime, size)`` for store entries *and* stale temp files.

    A ``*.tmp.<pid>`` file younger than the grace period belongs to a
    concurrent writer and is skipped; older ones are debris from a
    killed process and are returned (so prune removes them).
    """
    files = []
    now = time.time()
    try:
        with os.scandir(path) as it:
            for entry in it:
                if not entry.is_file():
                    continue
                is_entry = entry.name.endswith(suffix)
                is_tmp = ".tmp." in entry.name
                if not is_entry and not is_tmp:
                    continue
                stat = entry.stat()
                if is_tmp and not is_entry:
                    if now - stat.st_mtime < _TMP_GRACE_SECONDS:
                        continue
                files.append((entry.path, stat.st_mtime, stat.st_size))
    except OSError:
        pass
    return files


def prune_cache(
    root: Optional[str] = None,
    max_age: Optional[float] = None,
    max_bytes: Optional[int] = None,
    dry_run: bool = False,
) -> Dict[str, PruneReport]:
    """Prune a whole cache root: traces, results and run manifests.

    One oldest-first pass over every store: orphaned atomic-write temp
    files past their grace period are always removed, *max_age*
    (seconds) removes entries older than the cutoff, and *max_bytes*
    then evicts globally-oldest entries until the survivors of the
    whole root fit the budget.  A prune racing a writer may delete a
    fresh entry (it is recomputed on next use); it never removes a
    young temp file, so it cannot break a write in progress.  Returns
    one :class:`PruneReport` per store plus a ``"total"`` roll-up.
    """
    root = root or default_cache_dir()
    stores = {
        name: _scan_files(os.path.join(root, name), suffix)
        for name, suffix in (
            ("traces", ".trace"),
            ("results", ".json"),
            ("manifests", ".json"),
        )
    }
    now = time.time()
    doomed = set()
    kept = []
    for files in stores.values():
        for item in files:
            path, mtime, _ = item
            if _is_tmp(path) or (
                max_age is not None and now - mtime > max_age
            ):
                doomed.add(path)
            else:
                kept.append(item)
    if max_bytes is not None:
        kept.sort(key=lambda item: item[1])  # oldest first
        total = sum(size for _, _, size in kept)
        for path, _, size in kept:
            if total <= max_bytes:
                break
            doomed.add(path)
            total -= size
    reports: Dict[str, PruneReport] = {}
    for name, files in stores.items():
        report = PruneReport()
        for path, _, size in files:
            if path in doomed:
                if not dry_run:
                    try:
                        os.remove(path)
                    except OSError:
                        continue
                report.removed_entries += 1
                report.removed_bytes += size
            else:
                report.kept_entries += 1
                report.kept_bytes += size
        reports[name] = report
    total = PruneReport()
    for report in reports.values():
        total.merge(report)
    reports["total"] = total
    return reports


def _scan_dir(path: str, suffix: str) -> Dict[str, int]:
    entries = 0
    size = 0
    try:
        with os.scandir(path) as it:
            for entry in it:
                if entry.is_file() and entry.name.endswith(suffix):
                    entries += 1
                    size += entry.stat().st_size
    except OSError:
        pass
    return {"entries": entries, "bytes": size}


class ResultCache:
    """Content-addressed JSON store for encoded job results."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.dir = os.path.join(root, "results")
        os.makedirs(self.dir, exist_ok=True)
        self._hits = 0
        self._misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.dir, f"{key}.json")

    def get(self, key: str) -> Optional[Any]:
        """Return the stored payload for *key*, or ``None`` on a miss.

        A corrupt entry (interrupted write from an older, non-atomic
        layout, disk trouble) counts as a miss and is removed.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            self._misses += 1
            return None
        except (OSError, ValueError):
            self._misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self._hits += 1
        return document.get("payload")

    def put(self, key: str, payload: Any, meta: Optional[dict] = None) -> None:
        """Store *payload* under *key* (atomic, last writer wins)."""
        document = {"key": key, "meta": meta or {}, "payload": payload}
        _atomic_write(self._path(key), json.dumps(document, sort_keys=True))

    def stats(self) -> StoreStats:
        """Inventory of the results directory plus session counters."""
        scan = _scan_dir(self.dir, ".json")
        return StoreStats(
            entries=scan["entries"], bytes=scan["bytes"],
            hits=self._hits, misses=self._misses,
        )


class TraceStore:
    """Content-addressed store of serialized synthetic traces.

    :func:`repro.harness.registry.make_trace` consults an installed
    store before generating, making trace generation a cross-process,
    cross-run cache instead of a per-process one.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.dir = os.path.join(root, "traces")
        os.makedirs(self.dir, exist_ok=True)
        self._hits = 0
        self._misses = 0

    @staticmethod
    def key_for(spec) -> str:
        """Stable key for a :class:`TraceSpec` (code version folded in)."""
        return versioned_key({"kind": "trace", "spec": spec})

    def _path(self, spec) -> str:
        return os.path.join(self.dir, f"{self.key_for(spec)}.trace")

    def load(self, spec) -> Optional[Trace]:
        """Return the stored trace for *spec*, or ``None`` on a miss."""
        path = self._path(spec)
        try:
            trace = load_trace_auto(path)
        except FileNotFoundError:
            self._misses += 1
            return None
        except Exception:
            # Unreadable entry: regenerate rather than fail the run.
            self._misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self._hits += 1
        return trace

    def store(self, spec, trace: Trace) -> None:
        """Persist *trace* under the key of *spec* (atomic).

        Interrupted writes (timeout signal, killed worker, drain) are
        cleaned up instead of leaving a temp file behind; the visible
        ``.trace`` entry only ever appears complete.
        """
        path = self._path(spec)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            save_trace_binary(trace, tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    def stats(self) -> StoreStats:
        """Inventory of the traces directory plus session counters."""
        scan = _scan_dir(self.dir, ".trace")
        return StoreStats(
            entries=scan["entries"], bytes=scan["bytes"],
            hits=self._hits, misses=self._misses,
        )


@dataclass
class DiskCacheStats:
    """Combined inventory of one cache root (for ``repro info``)."""

    root: str = ""
    traces: StoreStats = field(default_factory=StoreStats)
    results: StoreStats = field(default_factory=StoreStats)


def disk_cache_stats(root: Optional[str] = None) -> DiskCacheStats:
    """Scan a cache root without touching session counters."""
    root = root or default_cache_dir()
    return DiskCacheStats(
        root=root,
        traces=StoreStats(**_scan_dir(os.path.join(root, "traces"), ".trace")),
        results=StoreStats(**_scan_dir(os.path.join(root, "results"), ".json")),
    )
