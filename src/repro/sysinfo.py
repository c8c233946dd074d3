"""Machine-readable host / cache / profile info.

``repro info --json`` and the serve layer's ``/metrics`` endpoint both
render these dicts, so scripts get one stable schema instead of
scraping the human-readable ``repro info`` text.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict, Optional

from repro.exec.cache import default_cache_dir, disk_cache_stats


def host_data() -> Dict[str, Any]:
    """Interpreter and machine context."""
    getter = getattr(os, "sched_getaffinity", None)
    try:
        affinity = len(getter(0)) if getter is not None else None
    except OSError:  # pragma: no cover - containers without the syscall
        affinity = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
    }


def cache_data(root: Optional[str] = None) -> Dict[str, Any]:
    """Persistent trace/result cache inventory for *root*."""
    root = root or default_cache_dir()
    if not os.path.isdir(root):
        return {"root": root, "present": False}
    disk = disk_cache_stats(root)
    return {
        "root": root,
        "present": True,
        "traces": {
            "entries": disk.traces.entries, "bytes": disk.traces.bytes,
        },
        "results": {
            "entries": disk.results.entries, "bytes": disk.results.bytes,
        },
    }


def profiles_data() -> list:
    """The ``[profiles]`` section: every registered profile's shape.

    Shape statistics are reported at the profile's native static
    footprint target (the scale the registry generates it at).
    """
    from repro.program.profiles import (
        PROFILE_STATIC_UOPS,
        registered_profiles,
    )

    entries = []
    for name, profile in sorted(registered_profiles().items()):
        target = PROFILE_STATIC_UOPS.get(name)
        native = profile.scaled(target) if target else profile
        entries.append({
            "name": name,
            "static_uops": target,
            "functions": native.num_functions,
            "max_call_depth": native.max_call_depth,
            "mean_block_uops": round(native.mean_block_uops(), 2),
            "indirect_rate": round(native.indirect_rate(), 4),
        })
    return entries


def info_data(cache_root: Optional[str] = None,
              traces: Optional[list] = None) -> Dict[str, Any]:
    """The full ``repro info --json`` document."""
    from repro.harness.registry import trace_cache_stats

    memory = trace_cache_stats()
    return {
        "traces": traces or [],
        "profiles": profiles_data(),
        "trace_cache": {
            "entries": memory.entries,
            "bytes": memory.bytes,
            "hits": memory.hits,
            "misses": memory.misses,
        },
        "cache": cache_data(cache_root),
        "host": host_data(),
    }
