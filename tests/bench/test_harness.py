"""Tests for the ``repro bench`` harness."""

import json
import subprocess

import pytest

from repro.bench import format_report, resolve_phases, run_bench, write_report
from repro.bench.harness import _git_rev
from repro.harness.runner import FRONTEND_KINDS


def _tiny_report(**kwargs):
    return run_bench(budget=3_000, quick=True, frontends=["xbc"], **kwargs)


class TestRunBench:
    def test_report_shape(self):
        report = _tiny_report()
        assert report["schema"] == 4
        assert report["quick"] is True
        # Schema 3: every report is stamped with a UTC ISO timestamp.
        assert "T" in report["timestamp"]
        assert report["timestamp"].endswith("+00:00")
        assert report["calibration_ops_per_sec"] > 0
        phases = report["phases"]
        assert set(phases) == {"trace_gen", "frontend_xbc"}
        assert report["phase_list"] == list(phases)
        assert "cpu_affinity" in report  # int on Linux, None elsewhere
        for phase in phases.values():
            assert phase["seconds"] > 0
            assert phase["uops_per_sec"] > 0
            assert phase["uops"] > 0

    def test_phases_filter_drops_trace_gen_timing(self):
        report = _tiny_report(phases=["xbc"])
        assert set(report["phases"]) == {"frontend_xbc"}
        assert report["phase_list"] == ["frontend_xbc"]

    def test_phases_filter_trace_gen_only(self):
        report = _tiny_report(phases=["trace_gen"])
        assert set(report["phases"]) == {"trace_gen"}

    def test_write_and_format(self, tmp_path):
        report = _tiny_report()
        path = write_report(report, str(tmp_path))
        assert path.endswith(f"BENCH_{report['rev']}.json")
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == report
        rendered = format_report(report)
        assert "trace_gen" in rendered
        assert "frontend_xbc" in rendered

    def test_write_report_records_into_registry(self, tmp_path):
        """``write_report(..., registry_dir=...)`` also extends the
        perf registry (the `repro bench --registry` path)."""
        from repro.perf.registry import PerfRegistry

        report = {
            "schema": 3,
            "rev": "abc1234",
            "calibration_ops_per_sec": 5e6,
            "phases": {"frontend_xbc": {
                "seconds": 0.5, "uops": 450_000,
                "uops_per_sec": 900_000.0,
            }},
        }
        registry_dir = str(tmp_path / "registry")
        write_report(report, str(tmp_path), registry_dir=registry_dir)
        registry = PerfRegistry(registry_dir)
        assert registry.revs() == ["abc1234"]
        entry = registry.load("abc1234")
        assert entry["phases"]["frontend_xbc"]["calibrated"] == \
            pytest.approx(900_000.0 / 5e6)


class TestGitRev:
    """The dirty-tree marker: registry entries must never attribute
    numbers from a modified working tree to the clean rev."""

    @pytest.fixture
    def git_repo(self, tmp_path, monkeypatch):
        def git(*argv):
            subprocess.run(
                ["git", *argv], cwd=str(tmp_path), check=True,
                capture_output=True,
            )

        git("init", "-q")
        git("config", "user.email", "bench@test")
        git("config", "user.name", "bench")
        (tmp_path / "file.txt").write_text("v1\n")
        git("add", "file.txt")
        git("commit", "-q", "-m", "seed")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_clean_tree_plain_rev(self, git_repo):
        rev = _git_rev()
        assert rev != "unknown"
        assert not rev.endswith("-dirty")

    def test_uncommitted_change_appends_dirty(self, git_repo):
        (git_repo / "file.txt").write_text("v2\n")
        assert _git_rev().endswith("-dirty")

    def test_untracked_file_appends_dirty(self, git_repo):
        (git_repo / "new.txt").write_text("x\n")
        assert _git_rev().endswith("-dirty")

    def test_outside_a_repo_is_unknown(self, tmp_path, monkeypatch):
        outside = tmp_path / "not-a-repo"
        outside.mkdir()
        monkeypatch.chdir(outside)
        assert _git_rev() == "unknown"


class TestResolvePhases:
    def test_default_runs_everything(self):
        time_gen, kinds, load = resolve_phases(None)
        assert time_gen is True
        assert kinds == list(FRONTEND_KINDS)
        # serve_load is opt-in: it stands up real server processes.
        assert load is False

    def test_subset_selection(self):
        time_gen, kinds, load = resolve_phases(["tc", "dc"])
        assert time_gen is False
        assert kinds == ["dc", "tc"]  # registry order, not request order
        assert load is False

    def test_trace_gen_token(self):
        time_gen, kinds, _ = resolve_phases(["trace_gen", "ic"])
        assert time_gen is True
        assert kinds == ["ic"]

    def test_serve_load_token(self):
        time_gen, kinds, load = resolve_phases(["serve_load"])
        assert time_gen is False
        assert kinds == []
        assert load is True

    def test_serve_load_combines_with_sim_phases(self):
        time_gen, kinds, load = resolve_phases(["serve_load", "xbc"])
        assert time_gen is False
        assert kinds == ["xbc"]
        assert load is True

    def test_intersects_legacy_frontend_filter(self):
        _, kinds, _ = resolve_phases(["tc", "dc"], frontends=["dc", "xbc"])
        assert kinds == ["dc"]

    def test_whitespace_and_empty_tokens_ignored(self):
        time_gen, kinds, _ = resolve_phases([" tc ", ""])
        assert time_gen is False
        assert kinds == ["tc"]

    def test_unknown_token_raises(self):
        with pytest.raises(ValueError, match="unknown bench phase"):
            resolve_phases(["tc", "bogus"])

    def test_unknown_token_error_lists_valid_tokens(self):
        """The error must name every valid phase so a typo'd --phases
        cannot silently bench an unintended subset."""
        with pytest.raises(ValueError) as excinfo:
            resolve_phases(["bogus"])
        message = str(excinfo.value)
        assert "bogus" in message
        for token in ("trace_gen", "serve_load") + tuple(FRONTEND_KINDS):
            assert token in message
