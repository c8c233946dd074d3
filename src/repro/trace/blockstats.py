"""Block-length statistics — the data behind the paper's Figure 1.

Figure 1 plots the length distribution (in uops, capped at 16) of four
instruction-block definitions:

- **basic block** — ends on *any* branch;
- **XB** — ends on a conditional branch, indirect branch, return or
  call; unconditional direct jumps do **not** end it (§3.1);
- **XB with promotion** — like XB, but conditional branches that are
  ≥99% biased (measured over the trace itself, mirroring the 7-bit
  promotion counters of §3.8) also do not end a block;
- **dual XB** — two consecutive XBs fetched as one unit.

All four respect the 16-uop quota: a block that would exceed 16 uops is
cut and the next block starts at the first instruction that did not
fit.  Instructions are atomic — their uops never split across blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.common.histogram import Histogram
from repro.isa.instruction import (
    CODE_CALL,
    CODE_COND_BRANCH,
    KIND_ENDS_BB,
    KIND_ENDS_XB,
    InstrKind,
)
from repro.trace.record import DynInstr, Trace

#: The quota every block definition respects (uops).
QUOTA = 16

#: Bias above which a conditional branch is considered monotonic
#: (the paper's 7-bit counter saturates at >= 99.2%).
PROMOTION_BIAS = 0.99

#: Executions below which a branch is never considered monotonic
#: (a branch seen twice is not "99% biased" in any meaningful sense).
PROMOTION_MIN_EXECUTIONS = 16


@dataclass
class BlockLengthStats:
    """The four Figure-1 distributions plus their means."""

    basic_block: Histogram = field(default_factory=Histogram)
    xb: Histogram = field(default_factory=Histogram)
    xb_promoted: Histogram = field(default_factory=Histogram)
    dual_xb: Histogram = field(default_factory=Histogram)

    def means(self) -> Dict[str, float]:
        """Mean block length per series, keyed like the paper's legend."""
        return {
            "basic block": self.basic_block.mean,
            "XB": self.xb.mean,
            "XB w/ promotion": self.xb_promoted.mean,
            "dual XB": self.dual_xb.mean,
        }

    def merged_with(self, other: "BlockLengthStats") -> "BlockLengthStats":
        """Combine two traces' statistics."""
        return BlockLengthStats(
            basic_block=self.basic_block.merged_with(other.basic_block),
            xb=self.xb.merged_with(other.xb),
            xb_promoted=self.xb_promoted.merged_with(other.xb_promoted),
            dual_xb=self.dual_xb.merged_with(other.dual_xb),
        )


def measure_branch_bias(records: Iterable[DynInstr]) -> Dict[int, float]:
    """Per-static-conditional-branch taken rate over the trace."""
    taken: Dict[int, int] = {}
    total: Dict[int, int] = {}
    for record in records:
        if record.instr.kind is InstrKind.COND_BRANCH:
            ip = record.instr.ip
            total[ip] = total.get(ip, 0) + 1
            if record.taken:
                taken[ip] = taken.get(ip, 0) + 1
    return {
        ip: taken.get(ip, 0) / count for ip, count in total.items()
    }


def monotonic_branches(
    bias: Dict[int, float],
    counts: Dict[int, int],
    threshold: float = PROMOTION_BIAS,
    min_executions: int = PROMOTION_MIN_EXECUTIONS,
) -> Dict[int, bool]:
    """Which static branches qualify for promotion under *threshold*."""
    result = {}
    for ip, rate in bias.items():
        seen_enough = counts.get(ip, 0) >= min_executions
        result[ip] = seen_enough and (rate >= threshold or rate <= 1 - threshold)
    return result


class _BlockAccumulator:
    """Streams instructions into quota-limited blocks for one definition.

    Closed block lengths go to *histogram* and, when *lengths* is given,
    are also appended there in stream order (used for dual-XB pairing).
    """

    def __init__(self, histogram: Histogram, lengths=None):
        self.histogram = histogram
        self.lengths = lengths
        self._length = 0

    def _close(self) -> None:
        self.histogram.add(self._length)
        if self.lengths is not None:
            self.lengths.append(self._length)
        self._length = 0

    def feed(self, num_uops: int, ends_block: bool) -> None:
        if self._length + num_uops > QUOTA:
            # Quota cut: the current block closes *before* this instruction.
            self._close()
        self._length += num_uops
        if ends_block or self._length == QUOTA:
            self._close()

    def flush(self) -> None:
        if self._length:
            self._close()


def compute_block_stats(
    trace: Trace,
    promotion_threshold: float = PROMOTION_BIAS,
) -> BlockLengthStats:
    """Compute all four Figure-1 distributions for one trace.

    Runs two passes: the first measures per-branch bias (standing in for
    the promotion counters warmed over the run), the second accumulates
    the block-length histograms.
    """
    ips = trace.ips
    takens = trace.takens
    kinds = trace.kinds
    nuops = trace.nuops

    # Pass 1: per-branch taken rates and execution counts, off the columns.
    taken_counts: Dict[int, int] = {}
    counts: Dict[int, int] = {}
    for i in range(len(ips)):
        if kinds[i] == CODE_COND_BRANCH:
            ip = ips[i]
            counts[ip] = counts.get(ip, 0) + 1
            if takens[i]:
                taken_counts[ip] = taken_counts.get(ip, 0) + 1
    bias = {
        ip: taken_counts.get(ip, 0) / count for ip, count in counts.items()
    }
    promoted = monotonic_branches(bias, counts, promotion_threshold)

    stats = BlockLengthStats()
    xb_lengths: list = []
    bb = _BlockAccumulator(stats.basic_block)
    xb = _BlockAccumulator(stats.xb, lengths=xb_lengths)
    xbp = _BlockAccumulator(stats.xb_promoted)

    for i in range(len(ips)):
        code = kinds[i]
        uops = nuops[i]
        bb.feed(uops, ends_block=KIND_ENDS_BB[code])

        ends_xb = KIND_ENDS_XB[code] or code == CODE_CALL
        xb.feed(uops, ends_block=ends_xb)

        ends_promoted = ends_xb
        if code == CODE_COND_BRANCH and promoted.get(ips[i], False):
            ends_promoted = False
        xbp.feed(uops, ends_block=ends_promoted)

    bb.flush()
    xb.flush()
    xbp.flush()

    # Dual XB: consecutive non-overlapping XB pairs, capped at the quota
    # (a 16-uop fetch window delivers at most 16 uops of a pair).
    for first, second in zip(xb_lengths[0::2], xb_lengths[1::2]):
        stats.dual_xb.add(min(QUOTA, first + second))
    if len(xb_lengths) % 2:
        stats.dual_xb.add(xb_lengths[-1])

    return stats
