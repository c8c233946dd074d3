"""Differential equivalence: flat frontends vs their reference paths.

Every frontend carries two implementations of the same model: the
fused flat loop that ``run()`` dispatches to, and the original
structured implementation kept as ``_run_reference``.  These tests run
both on the same traces and require *bit-identical* results — equal
:class:`~repro.frontend.metrics.FrontendStats` (every counter and
penalty dict) and an equal per-cycle uop-delivery log.

Two comparison modes matter because the flat loops fast-forward
through queue stalls only when no cycle log is requested:

* stats-only runs exercise the closed-form stall fast-forward, and
* ``cycle_log`` runs exercise the cycle-by-cycle path.

Both must match the reference exactly.
"""

import pytest

from repro.frontend.config import FrontendConfig
from repro.harness.experiments.ablations import _variants
from repro.harness.runner import make_frontend
from repro.tc.config import TcConfig
from repro.tc.frontend import TcFrontend
from repro.xbc.config import XbcConfig

#: The frontends with a flat loop next to their reference path.
FLAT_KINDS = ("ic", "dc", "tc", "bbtc", "xbc")

SUITES = ("specint", "sysmark", "games")

#: The XBC ablation space at the 2K-uop budget of the ablation sweep.
ABLATIONS = _variants(2048)


def _run(kind, trace, reference, cycle_log=None, **configs):
    """Build a fresh frontend and run it on *trace* in the given mode."""
    frontend = make_frontend(kind, FrontendConfig(), **configs)
    if reference:
        return frontend._run_reference(trace, cycle_log)
    return frontend.run(trace, cycle_log=cycle_log)


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("kind", FLAT_KINDS)
class TestFlatMatchesReference:
    def test_stats_identical(self, kind, suite, suite_traces):
        """Stats-only runs (stall fast-forward active) are bit-identical."""
        trace = suite_traces[suite]
        flat = _run(kind, trace, reference=False)
        ref = _run(kind, trace, reference=True)
        assert flat == ref

    def test_cycle_log_identical(self, kind, suite, suite_traces):
        """Per-cycle uop delivery matches the reference cycle for cycle."""
        trace = suite_traces[suite]
        flat_log, ref_log = [], []
        flat = _run(kind, trace, reference=False, cycle_log=flat_log)
        ref = _run(kind, trace, reference=True, cycle_log=ref_log)
        assert flat == ref
        assert flat_log == ref_log
        assert sum(flat_log) == trace.total_uops


class TestDispatch:
    def test_tc_path_associativity_uses_reference(
        self, monkeypatch, small_trace
    ):
        """Path-associative TC always routes to the reference model.

        The flat TC loop only implements the default single-path
        lookup; the path-associative variant (Figure 10's sweep) must
        keep working through the original implementation.
        """
        frontend = TcFrontend(
            FrontendConfig(), TcConfig(path_associativity=True)
        )

        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("flat path taken for path-assoc TC")

        monkeypatch.setattr(frontend, "_run_flat", _boom)
        stats = frontend.run(small_trace)
        assert stats.retired_uops == small_trace.total_uops

    def test_run_is_deterministic(self, small_trace):
        """Structures are per-run: repeat runs are exactly repeatable."""
        frontend = make_frontend("bbtc", FrontendConfig())
        assert frontend.run(small_trace) == frontend.run(small_trace)


class TestXbcFlatPath:
    """XBC-specific differential coverage beyond the shared matrix."""

    def test_warm_rerun_identical(self, suite_traces):
        """Re-running a frontend leaves trace-derived memos (rev tuples,
        XB stream) warm; the second run must still match the reference
        bit for bit, and itself."""
        trace = suite_traces["specint"]
        flat_fe = make_frontend("xbc", FrontendConfig())
        flat_cold = flat_fe.run(trace)
        flat_warm = flat_fe.run(trace)
        ref_fe = make_frontend("xbc", FrontendConfig())
        ref_cold = ref_fe._run_reference(trace)
        ref_warm = ref_fe._run_reference(trace)
        assert flat_cold == ref_cold
        assert flat_warm == ref_warm
        assert flat_cold == flat_warm  # per-run structures: deterministic

    @pytest.mark.parametrize("suite", ("specint", "sysmark"))
    def test_storage_churn_keeps_memos_sound(self, suite, suite_traces):
        """Heavy-eviction regression test for the id()-keyed memos.

        A tiny data array (512 uops) keeps the storage churning:
        constant evictions and refills recycle trimmed rev-tuples from
        partial fetches, which are exactly the objects whose id() the
        probe/rev memos key on.  Without the strong-reference pins a
        freed tuple's address can be reused by a different tuple and
        silently alias a memo entry; flat and reference must stay
        bit-identical (and cycle-log identical) under this load.
        """
        trace = suite_traces[suite]
        config = XbcConfig(total_uops=512)
        flat_log, ref_log = [], []
        flat = _run("xbc", trace, reference=False, cycle_log=flat_log,
                    xbc_config=config)
        ref = _run("xbc", trace, reference=True, cycle_log=ref_log,
                   xbc_config=config)
        assert flat == ref
        assert flat_log == ref_log
        assert sum(flat_log) == trace.total_uops

    @pytest.mark.parametrize("variant", sorted(ABLATIONS))
    def test_ablation_variant_identical(self, variant, suite_traces):
        """Flat == reference over every XBC ablation config.

        Each variant turns one mechanism off or reshapes the data array
        (banks, line size, XBs per cycle, overlap policy), steering the
        flat loop through different mixes of its paths.  Stats-only and
        cycle-logged flat runs must both match the logged reference.
        """
        trace = suite_traces["specint"]
        config = ABLATIONS[variant]
        flat_log, ref_log = [], []
        ref = _run("xbc", trace, reference=True, cycle_log=ref_log,
                   xbc_config=config)
        assert _run("xbc", trace, reference=False, xbc_config=config) == ref
        assert _run("xbc", trace, reference=False, cycle_log=flat_log,
                    xbc_config=config) == ref
        assert flat_log == ref_log
        assert sum(flat_log) == trace.total_uops
        if variant == "baseline":
            # combined-XB (§3.8) fetches reach the data array through
            # _make_unit; the comparison above must cover them
            assert ref.extra.get("comb_fetches", 0) > 0
