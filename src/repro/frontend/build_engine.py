"""Build-mode fetch/decode engine.

This models the "traditional IC based frontend" in the upper half of
the paper's Figure 6: BTB-steered fetch of aligned blocks from the
instruction cache, decode-width-limited translation into uops.  All
three frontend models share it — the TC and XBC run it whenever they
are in build mode and feed its output to their fill units, while the
baseline IC frontend runs it exclusively.

One call to :meth:`BuildEngine.fetch_cycle` is one build-mode cycle:
it supplies the instructions fetched and decoded that cycle (following
the *actual* trace path; prediction quality is charged as stall cycles,
the standard trace-driven-frontend treatment) plus the penalty cycles
incurred.  The engine walks the trace's packed columns directly; the
cycle reports the covered record range, with the classic per-record
list available lazily as :attr:`BuildCycle.records`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.indirect import IndirectPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.frontend.config import FrontendConfig
from repro.frontend.icache import InstructionCache
from repro.frontend.metrics import FrontendStats
from repro.isa.instruction import (
    CODE_CALL,
    CODE_COND_BRANCH,
    CODE_INDIRECT_CALL,
    CODE_JUMP,
    CODE_RETURN,
    KIND_IS_BRANCH,
)
from repro.trace.record import DynInstr, Trace


@dataclass
class BuildCycle:
    """What one build-mode cycle produced.

    ``trace``/``start``/``end`` name the record range fetched this
    cycle; :attr:`records` materializes the per-record view on demand.
    """

    trace: Optional[Trace] = None
    start: int = 0
    end: int = 0
    uops: int = 0
    #: stall cycles by cause, to be charged by the caller.
    penalties: Dict[str, int] = field(default_factory=dict)

    def charge(self, cause: str, cycles: int) -> None:
        """Accumulate penalty cycles under a cause label."""
        if cycles > 0:
            self.penalties[cause] = self.penalties.get(cause, 0) + cycles

    @property
    def records(self) -> List[DynInstr]:
        """The fetched records as :class:`DynInstr` objects (lazy)."""
        trace = self.trace
        if trace is None or self.end <= self.start:
            return []
        table = trace.instr_table
        ips = trace.ips
        takens = trace.takens
        next_ips = trace.next_ips
        return [
            DynInstr(
                instr=table[ips[i]], taken=bool(takens[i]), next_ip=next_ips[i]
            )
            for i in range(self.start, self.end)
        ]


class BuildEngine:
    """Shared build-mode fetch pipeline."""

    def __init__(
        self,
        config: FrontendConfig,
        stats: FrontendStats,
        icache: InstructionCache,
        cond_predictor: GsharePredictor,
        btb: BranchTargetBuffer,
        rsb: ReturnStackBuffer,
        indirect: IndirectPredictor,
    ) -> None:
        self.config = config
        self.stats = stats
        self.icache = icache
        self.cond_predictor = cond_predictor
        self.btb = btb
        self.rsb = rsb
        self.indirect = indirect

    def fetch_cycle(
        self,
        trace: Trace,
        pos: int,
    ) -> Tuple[int, BuildCycle]:
        """Run one build-mode cycle starting at trace position *pos*.

        Returns the new trace position and the cycle's results.  Fetch
        stops at the decode-width limit, at the fetch-block boundary,
        or after the first control transfer (taken branch or call/ret).
        """
        config = self.config
        ips = trace.ips
        kinds = trace.kinds
        nuops = trace.nuops
        is_branch = KIND_IS_BRANCH
        cycle = BuildCycle(trace=trace, start=pos, end=pos)
        ip = ips[pos]

        self.stats.ic_lookups += 1
        if not self.icache.access(ip):
            self.stats.ic_misses += 1
            cycle.charge("ic_miss", config.ic_miss_latency)

        window_start = ip & ~(config.fetch_block_bytes - 1)
        window_end = window_start + config.fetch_block_bytes

        total = len(ips)
        limit = min(total, pos + config.decode_width)
        uops = 0
        while pos < limit:
            ip = ips[pos]
            if not window_start <= ip < window_end:
                break  # sequential prefetch continues next cycle
            uops += nuops[pos]
            pos += 1
            if is_branch[kinds[pos - 1]]:
                cycle.uops = uops
                redirected = self._handle_branch(trace, pos - 1, cycle)
                if redirected:
                    break
        cycle.uops = uops
        cycle.end = pos
        return pos, cycle

    # ------------------------------------------------------------------

    def _handle_branch(self, trace: Trace, index: int, cycle: BuildCycle) -> bool:
        """Predict/train on a branch; returns True when fetch must stop."""
        config = self.config
        stats = self.stats
        code = trace.kinds[index]
        ip = trace.ips[index]
        next_ip = trace.next_ips[index]

        if code == CODE_COND_BRANCH:
            taken = bool(trace.takens[index])
            stats.cond_predictions += 1
            correct = self.cond_predictor.update(ip, taken)
            if not correct:
                stats.cond_mispredicts += 1
                cycle.charge("mispredict", config.mispredict_penalty)
                return True
            if taken:
                self._charge_redirect(ip, next_ip, cycle)
                return True
            return False

        if code == CODE_JUMP:
            self._charge_redirect(ip, next_ip, cycle)
            return True

        if code == CODE_CALL:
            self.rsb.push(trace.snexts[index])
            self._charge_redirect(ip, next_ip, cycle)
            return True

        if code == CODE_RETURN:
            stats.return_predictions += 1
            predicted = self.rsb.pop()
            if predicted != next_ip:
                stats.return_mispredicts += 1
                cycle.charge("mispredict", config.mispredict_penalty)
            else:
                cycle.charge("redirect", config.taken_branch_bubble)
            return True

        # Indirect jump or indirect call.
        stats.indirect_predictions += 1
        if code == CODE_INDIRECT_CALL:
            self.rsb.push(trace.snexts[index])
        correct = self.indirect.update(ip, next_ip, next_ip)
        if not correct:
            stats.indirect_mispredicts += 1
            cycle.charge("mispredict", config.mispredict_penalty)
        else:
            cycle.charge("redirect", config.taken_branch_bubble)
        return True

    def _charge_redirect(self, ip: int, target: int, cycle: BuildCycle) -> None:
        """Charge the redirect cost of a taken direct branch via the BTB."""
        predicted = self.btb.lookup(ip)
        if predicted == target:
            cycle.charge("redirect", self.config.taken_branch_bubble)
        else:
            cycle.charge("btb_miss", self.config.btb_miss_penalty)
            self.btb.install(ip, target)
