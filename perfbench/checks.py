"""Correctness checks applied to every output, from outside the program.

Two kinds: invariants that hold for any seed, and content digests that
are pinned for the default seed and must repeat exactly when a run
repeats an input set.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional


def digest(payload: Any) -> str:
    """Short content hash of one encoded result."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stats_problems(stats: Dict[str, Any],
                   total_uops: Optional[int] = None) -> List[str]:
    """Invariant violations in one encoded ``FrontendStats``.

    *total_uops*, when given, is the trace's exact uop count, which the
    IC and the structure together must supply.
    """
    problems = []
    supplied = stats["uops_from_ic"] + stats["uops_from_structure"]
    if total_uops is not None and supplied != total_uops:
        problems.append(f"uops supplied {supplied} != trace {total_uops}")
    if stats["structure_hits"] > stats["structure_lookups"]:
        problems.append(
            f"hits {stats['structure_hits']} > lookups "
            f"{stats['structure_lookups']}"
        )
    if stats["ic_misses"] > stats["ic_lookups"]:
        problems.append(
            f"IC misses {stats['ic_misses']} > lookups {stats['ic_lookups']}"
        )
    return problems


def compare(pinned: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """Differences between two ``{op id: digest}`` maps."""
    problems = []
    for op in sorted(set(pinned) | set(got)):
        if pinned.get(op) != got.get(op):
            problems.append(
                f"{op}: expected {pinned.get(op)}, got {got.get(op)}"
            )
    return problems


class Simulated:
    """Simulated-frontend totals per kind, exact for a given seed."""

    FIELDS = ("cycles", "build", "delivery", "penalty", "from_ic", "total")

    def __init__(self) -> None:
        self.totals: Dict[str, Dict[str, int]] = {}

    def add(self, stats: Dict[str, Any]) -> None:
        """Fold one encoded ``FrontendStats`` in."""
        row = self.totals.setdefault(
            stats["frontend"], dict.fromkeys(self.FIELDS, 0)
        )
        row["cycles"] += stats["cycles"]
        row["build"] += stats["build_cycles"]
        row["delivery"] += stats["delivery_cycles"]
        row["penalty"] += sum(stats["penalty_cycles"].values())
        row["from_ic"] += stats["uops_from_ic"]
        row["total"] += stats["uops_from_ic"] + stats["uops_from_structure"]

    def merge(self, other: Dict[str, Dict[str, int]]) -> None:
        """Fold another instance's :attr:`totals` in."""
        for kind, row in other.items():
            mine = self.totals.setdefault(kind, dict.fromkeys(self.FIELDS, 0))
            for field, value in row.items():
                mine[field] += value

    def metrics(self, kinds) -> Dict[str, tuple]:
        """``frontend.<k>.*`` simulated metrics (0 for kinds not run)."""
        out = {}
        for kind in kinds:
            row = self.totals.get(kind, dict.fromkeys(self.FIELDS, 0))
            out[f"frontend.{kind}.uop_miss_rate"] = (
                row["from_ic"] / row["total"] if row["total"] else 0.0,
                "ratio")
            out[f"frontend.{kind}.build_cycle_share"] = (
                row["build"] / row["cycles"] if row["cycles"] else 0.0,
                "ratio")
            out[f"frontend.{kind}.cycle_gap"] = (
                row["cycles"] - row["build"] - row["delivery"]
                - row["penalty"], "cycles")
        return out
