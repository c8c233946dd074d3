"""Tests for cache pruning: age cutoff, byte budgets, tmp cleanup,
and pruning under a concurrent writer."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.cli import main
from repro.exec.cache import ResultCache, _TMP_GRACE_SECONDS, prune_cache

HOUR = 3600.0


def _make_file(root, store, name, size=64, age=0.0) -> str:
    directory = os.path.join(root, store)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "wb") as handle:
        handle.write(b"x" * size)
    stamp = time.time() - age
    os.utime(path, (stamp, stamp))
    return path


def test_prune_by_age_removes_only_old_entries(tmp_path):
    root = str(tmp_path)
    old = _make_file(root, "results", "old.json", age=10 * HOUR)
    fresh = _make_file(root, "results", "fresh.json", age=0.0)
    old_trace = _make_file(root, "traces", "old.trace", age=10 * HOUR)

    reports = prune_cache(root, max_age=HOUR)
    assert not os.path.exists(old)
    assert not os.path.exists(old_trace)
    assert os.path.exists(fresh)
    assert reports["results"].removed_entries == 1
    assert reports["results"].kept_entries == 1
    assert reports["traces"].removed_entries == 1
    assert reports["total"].removed_entries == 2
    assert reports["total"].kept_entries == 1


def test_prune_by_bytes_evicts_globally_oldest_first(tmp_path):
    """The byte budget bounds the whole root; eviction order is age,
    not directory."""
    root = str(tmp_path)
    oldest = _make_file(root, "traces", "a.trace", size=100, age=3 * HOUR)
    middle = _make_file(root, "results", "b.json", size=100, age=2 * HOUR)
    newest = _make_file(root, "results", "c.json", size=100, age=1 * HOUR)

    reports = prune_cache(root, max_bytes=250)
    # 300 bytes over a 250 budget: exactly the oldest file goes.
    assert not os.path.exists(oldest)
    assert os.path.exists(middle)
    assert os.path.exists(newest)
    assert reports["traces"].removed_entries == 1
    assert reports["results"].removed_entries == 0
    assert reports["total"].kept_bytes == 200


def test_prune_age_and_bytes_compose(tmp_path):
    root = str(tmp_path)
    ancient = _make_file(root, "results", "a.json", size=10, age=10 * HOUR)
    big_old = _make_file(root, "results", "b.json", size=400, age=2 * HOUR)
    small_new = _make_file(root, "results", "c.json", size=50, age=0.0)

    reports = prune_cache(root, max_age=5 * HOUR, max_bytes=100)
    assert not os.path.exists(ancient)   # over the age cutoff
    assert not os.path.exists(big_old)   # evicted for the byte budget
    assert os.path.exists(small_new)
    assert reports["total"].removed_entries == 2
    assert reports["total"].kept_bytes == 50


def test_dry_run_reports_without_removing(tmp_path):
    root = str(tmp_path)
    old = _make_file(root, "results", "old.json", age=10 * HOUR)
    reports = prune_cache(root, max_age=HOUR, dry_run=True)
    assert reports["results"].removed_entries == 1
    assert os.path.exists(old)


def test_stale_tmp_files_are_always_removed(tmp_path):
    """Atomic-write debris is never a valid entry: any prune pass
    removes temp files past the writer grace period and spares
    recent ones (a concurrent writer may still own those)."""
    root = str(tmp_path)
    stale = _make_file(
        root, "traces", "k.trace.tmp.123",
        age=_TMP_GRACE_SECONDS + 60,
    )
    recent = _make_file(root, "traces", "k.trace.tmp.456", age=0.0)
    entry = _make_file(root, "traces", "k.trace", age=0.0)

    reports = prune_cache(root, max_age=365 * 24 * HOUR)
    assert not os.path.exists(stale)
    assert os.path.exists(recent)
    assert os.path.exists(entry)
    assert reports["traces"].removed_entries == 1

    # Same behaviour under a byte budget large enough to keep all.
    stale2 = _make_file(
        root, "results", "r.json.tmp.9", age=_TMP_GRACE_SECONDS + 60
    )
    prune_cache(root, max_bytes=1 << 20)
    assert not os.path.exists(stale2)


def test_prune_with_live_writer_never_deletes_its_entry(tmp_path):
    """The harshest prune racing a writer that loops ``put``.

    The entry itself may vanish (it is recomputed on next use), but
    prune never removes the writer's young temp file, so ``put``
    never raises; and whenever the entry exists it is a complete
    document, never a partial write.
    """
    root = str(tmp_path)
    cache = ResultCache(root)
    key = "live-writer"
    path = os.path.join(cache.dir, f"{key}.json")
    payload = {"blob": "x" * 4096}
    stop = threading.Event()
    errors = []

    def writer():
        try:
            while not stop.is_set():
                cache.put(key, payload)
        except Exception as exc:  # the assertion below reports it
            errors.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline and not errors:
            prune_cache(root, max_age=0.0, max_bytes=0)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
            except FileNotFoundError:
                continue
            assert document == {"key": key, "meta": {}, "payload": payload}
    finally:
        stop.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert not errors


def test_empty_root_prunes_to_nothing(tmp_path):
    reports = prune_cache(str(tmp_path / "missing"), max_age=1.0)
    assert reports["total"].removed_entries == 0
    assert reports["total"].kept_entries == 0


# ---------------------------------------------------------------------------
# CLI surface (``repro cache prune``)
# ---------------------------------------------------------------------------


def test_cli_prune_requires_a_limit(tmp_path, capsys):
    root = str(tmp_path)
    assert main(["cache", "prune", "--cache-dir", root]) == 1
    assert "max-age" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--max-bytes", "inf"),
    ("--max-bytes", "nan"),
    ("--max-bytes", "1e400"),
    ("--max-age", "nan"),
    ("--max-age", "inf"),
    ("--max-age", "infd"),
])
def test_cli_prune_rejects_non_finite_limits(tmp_path, capsys, flag, value):
    root = str(tmp_path)
    entry = _make_file(root, "results", "old.json", age=10 * HOUR)
    assert main(["cache", "prune", "--cache-dir", root, flag, value]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert os.path.exists(entry)


def test_cli_prune_removes_and_reports(tmp_path, capsys):
    root = str(tmp_path)
    old = _make_file(root, "results", "old.json", age=10 * HOUR)
    _make_file(root, "results", "new.json", age=0.0)
    assert main(["cache", "prune", "--cache-dir", root,
                 "--max-age", "1h"]) == 0
    out = capsys.readouterr().out
    assert not os.path.exists(old)
    assert "[results] removed 1 entries" in out
    assert "[total] removed 1 entries" in out


def test_cli_prune_dry_run_and_size_units(tmp_path, capsys):
    root = str(tmp_path)
    kept = _make_file(root, "traces", "t.trace", size=2048, age=HOUR)
    assert main(["cache", "prune", "--cache-dir", root,
                 "--max-bytes", "1k", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert os.path.exists(kept)
    assert "would remove" in out


def test_cli_info_json_is_machine_readable(tmp_path, capsys):
    ResultCache(str(tmp_path)).put("k", {"v": 1})
    assert main(["info", "--json", "--cache-dir", str(tmp_path),
                 "--traces-per-suite", "1", "--length", "12000"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["cache"]["root"] == str(tmp_path)
    assert document["cache"]["results"]["entries"] == 1
    assert "traces" in document
