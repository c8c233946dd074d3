"""Baseline instruction-cache frontend (paper §2.1).

Always in build mode: every uop is fetched from the IC, decoded, and
delivered at decode-width.  Its bandwidth ceiling — one consecutive
run of instructions per cycle, broken by every taken branch — is the
limitation both the TC and the XBC exist to lift, and it supplies the
"uops brought from the IC" cost inside those models too.

``ports`` models the §2.1 escape hatch the paper cites ([Yeh93],
[Cont95], [Sezn96]): a multi-ported IC with multiple branch
predictions per cycle fetches several consecutive-instruction blocks,
continuing across correctly-predicted taken branches and stopping at
the first stall (mispredict, IC miss, BTB miss).

Two implementations share this class.  ``_run_flat`` is the hot path:
one fused loop over the columnar trace arrays with the gshare/BTB/RSB/
indirect predictors and the icache inlined as integer math (see
:mod:`repro.frontend.flat_engine`), plus an XBC-style queue-stall
fast-forward.  ``_run_reference`` is the original object-per-cycle
code driving :class:`~repro.frontend.build_engine.BuildEngine`, kept
as the behavioural oracle the differential tests call directly; both
produce bit-identical :class:`FrontendStats`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.indirect import IndirectPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.frontend.base import FrontendModel, UopFlow
from repro.frontend.build_engine import BuildEngine
from repro.frontend.config import FrontendConfig
from repro.frontend.flat_engine import make_flat_predictors
from repro.frontend.icache import InstructionCache
from repro.frontend.metrics import FrontendStats
from repro.isa.instruction import (
    CODE_CALL,
    CODE_COND_BRANCH,
    CODE_INDIRECT_CALL,
    CODE_JUMP,
    CODE_RETURN,
)
from repro.trace.record import Trace


class ICFrontend(FrontendModel):
    """Conventional frontend: IC + BTB + decoder, no uop structure."""

    name = "ic"

    def __init__(
        self,
        config: Optional[FrontendConfig] = None,
        ports: int = 1,
    ) -> None:
        super().__init__(config if config is not None else FrontendConfig())
        if ports < 1:
            raise ValueError(f"ports must be >= 1, got {ports}")
        self.ports = ports

    def run(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        """Simulate the whole trace through IC fetch + decode.

        *cycle_log*, when given, receives the uops pushed into the
        decoupling queue each cycle (0 on stall cycles); the epilogue
        drain is not logged.
        """
        return self._run_flat(trace, cycle_log)

    # ------------------------------------------------------------------
    # flat path
    # ------------------------------------------------------------------

    def _run_flat(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        ips, takens, next_ips, kinds, nuops, snexts = trace.hot_columns()
        total = len(ips)
        fp = make_flat_predictors(config)

        # predictors, hoisted
        g_counters = fp.g_counters
        g_imask = fp.g_imask
        g_hmask = fp.g_hmask
        g_hist = 0
        b_tags = fp.b_tags
        b_targets = fp.b_targets
        b_stamps = fp.b_stamps
        b_assoc = fp.b_assoc
        b_set_mask = fp.b_set_mask
        b_clock = 0
        r_slots = fp.r_slots
        r_depth = fp.r_depth
        r_top = 0
        r_count = 0
        i_tags = fp.i_tags
        i_targets = fp.i_targets
        i_imask = fp.i_imask
        i_hmask = fp.i_hmask
        i_hist = 0
        ic_sets = fp.ic_sets
        ic_set_mask = fp.ic_set_mask
        ic_offset = fp.ic_offset_bits
        icache_assoc = fp.ic_assoc
        ic_clock = 0

        # config scalars
        width = config.renamer_width
        depth = config.uop_queue_depth
        decode_width = config.decode_width
        fetch_block = config.fetch_block_bytes
        ic_lat = config.ic_miss_latency
        misp_pen = config.mispredict_penalty
        bubble = config.taken_branch_bubble
        btb_pen = config.btb_miss_penalty
        max_fetch = 4 * decode_width  # worst case 4 uops/instr
        ports = self.ports
        branch_floor = CODE_COND_BRANCH
        c_call = CODE_CALL
        c_icall = CODE_INDIRECT_CALL
        c_jump = CODE_JUMP
        c_ret = CODE_RETURN

        # counters
        cycles = 0
        build_cycles = 0
        retired = 0
        occ = 0
        from_ic = 0
        cond_pred = cond_misp = ind_pred = ind_misp = 0
        ret_pred = ret_misp = 0
        ic_lookups = ic_misses = 0
        pen: dict = {}
        pos = 0
        logging = cycle_log is not None

        while pos < total:
            cycles += 1
            build_cycles += 1
            if occ:
                t = occ if occ < width else width
                occ -= t
                retired += t
            pushed = 0
            for _port in range(ports):
                if pos >= total or depth - occ < max_fetch:
                    break
                # ---- one build fetch cycle, inlined (oracle:
                # BuildEngine.fetch_cycle) ----
                stalled = False
                ip = ips[pos]
                ic_lookups += 1
                line_addr = ip >> ic_offset
                iset = ic_sets[line_addr & ic_set_mask]
                ic_clock += 1
                if line_addr in iset:
                    iset[line_addr] = ic_clock
                else:
                    ic_misses += 1
                    if len(iset) >= icache_assoc:
                        del iset[min(iset, key=iset.get)]
                    iset[line_addr] = ic_clock
                    if ic_lat > 0:
                        cycles += ic_lat
                        pen["ic_miss"] = pen.get("ic_miss", 0) + ic_lat
                        stalled = True
                window_start = ip & ~(fetch_block - 1)
                window_end = window_start + fetch_block
                limit = pos + decode_width
                if limit > total:
                    limit = total
                cuops = 0
                while pos < limit:
                    ip = ips[pos]
                    if ip < window_start or ip >= window_end:
                        break
                    cuops += nuops[pos]
                    pos += 1
                    k = kinds[pos - 1]
                    if k >= branch_floor:
                        i = pos - 1
                        if k == branch_floor:  # conditional
                            tk = takens[i]
                            cond_pred += 1
                            gi = ((ip >> 1) ^ g_hist) & g_imask
                            c = g_counters[gi]
                            if tk:
                                if c < 3:
                                    g_counters[gi] = c + 1
                                g_hist = ((g_hist << 1) | 1) & g_hmask
                                if c < 2:  # mispredicted taken
                                    cond_misp += 1
                                    if misp_pen > 0:
                                        cycles += misp_pen
                                        pen["mispredict"] = (
                                            pen.get("mispredict", 0) + misp_pen
                                        )
                                        stalled = True
                                    break
                                # correct taken: redirect through the BTB
                                tgt = next_ips[i]
                                base = ((ip >> 1) & b_set_mask) * b_assoc
                                found = -1
                                for slot in range(base, base + b_assoc):
                                    if b_tags[slot] == ip:
                                        found = slot
                                        break
                                if found >= 0:
                                    b_clock += 1
                                    b_stamps[found] = b_clock
                                    if b_targets[found] == tgt:
                                        if bubble > 0:
                                            cycles += bubble
                                            pen["redirect"] = (
                                                pen.get("redirect", 0) + bubble
                                            )
                                    else:
                                        if btb_pen > 0:
                                            cycles += btb_pen
                                            pen["btb_miss"] = (
                                                pen.get("btb_miss", 0) + btb_pen
                                            )
                                            stalled = True
                                        b_targets[found] = tgt
                                        b_clock += 1
                                        b_stamps[found] = b_clock
                                else:
                                    if btb_pen > 0:
                                        cycles += btb_pen
                                        pen["btb_miss"] = (
                                            pen.get("btb_miss", 0) + btb_pen
                                        )
                                        stalled = True
                                    victim = -1
                                    vstamp = 0
                                    for slot in range(base, base + b_assoc):
                                        if b_tags[slot] == -1:
                                            victim = slot
                                            break
                                        s = b_stamps[slot]
                                        if victim < 0 or s < vstamp:
                                            victim = slot
                                            vstamp = s
                                    b_tags[victim] = ip
                                    b_targets[victim] = tgt
                                    b_clock += 1
                                    b_stamps[victim] = b_clock
                                break
                            else:
                                if c > 0:
                                    g_counters[gi] = c - 1
                                g_hist = (g_hist << 1) & g_hmask
                                if c >= 2:  # mispredicted not-taken
                                    cond_misp += 1
                                    if misp_pen > 0:
                                        cycles += misp_pen
                                        pen["mispredict"] = (
                                            pen.get("mispredict", 0) + misp_pen
                                        )
                                        stalled = True
                                    break
                                # correct fall-through: keep fetching
                        elif k == c_ret:
                            ret_pred += 1
                            if r_count == 0:
                                predicted = -1
                            else:
                                r_top -= 1
                                if r_top < 0:
                                    r_top = r_depth - 1
                                r_count -= 1
                                predicted = r_slots[r_top]
                            if predicted != next_ips[i]:
                                ret_misp += 1
                                if misp_pen > 0:
                                    cycles += misp_pen
                                    pen["mispredict"] = (
                                        pen.get("mispredict", 0) + misp_pen
                                    )
                                    stalled = True
                            elif bubble > 0:
                                cycles += bubble
                                pen["redirect"] = pen.get("redirect", 0) + bubble
                            break
                        elif k == c_call or k == c_jump:  # direct call / jump
                            if k == c_call:
                                if r_count < r_depth:
                                    r_count += 1
                                r_slots[r_top] = snexts[i]
                                r_top += 1
                                if r_top == r_depth:
                                    r_top = 0
                            tgt = next_ips[i]
                            base = ((ip >> 1) & b_set_mask) * b_assoc
                            found = -1
                            for slot in range(base, base + b_assoc):
                                if b_tags[slot] == ip:
                                    found = slot
                                    break
                            if found >= 0:
                                b_clock += 1
                                b_stamps[found] = b_clock
                                if b_targets[found] == tgt:
                                    if bubble > 0:
                                        cycles += bubble
                                        pen["redirect"] = (
                                            pen.get("redirect", 0) + bubble
                                        )
                                else:
                                    if btb_pen > 0:
                                        cycles += btb_pen
                                        pen["btb_miss"] = (
                                            pen.get("btb_miss", 0) + btb_pen
                                        )
                                        stalled = True
                                    b_targets[found] = tgt
                                    b_clock += 1
                                    b_stamps[found] = b_clock
                            else:
                                if btb_pen > 0:
                                    cycles += btb_pen
                                    pen["btb_miss"] = (
                                        pen.get("btb_miss", 0) + btb_pen
                                    )
                                    stalled = True
                                victim = -1
                                vstamp = 0
                                for slot in range(base, base + b_assoc):
                                    if b_tags[slot] == -1:
                                        victim = slot
                                        break
                                    s = b_stamps[slot]
                                    if victim < 0 or s < vstamp:
                                        victim = slot
                                        vstamp = s
                                b_tags[victim] = ip
                                b_targets[victim] = tgt
                                b_clock += 1
                                b_stamps[victim] = b_clock
                            break
                        else:  # indirect jump / indirect call
                            ind_pred += 1
                            if k == c_icall:
                                if r_count < r_depth:
                                    r_count += 1
                                r_slots[r_top] = snexts[i]
                                r_top += 1
                                if r_top == r_depth:
                                    r_top = 0
                            nxt = next_ips[i]
                            ii = ((ip >> 1) ^ (i_hist << 2)) & i_imask
                            hit = i_tags[ii] == ip and i_targets[ii] == nxt
                            i_tags[ii] = ip
                            i_targets[ii] = nxt
                            mixed = (nxt ^ (nxt >> 4) ^ (nxt >> 9)) & 0xF
                            i_hist = ((i_hist << 2) ^ mixed) & i_hmask
                            if not hit:
                                ind_misp += 1
                                if misp_pen > 0:
                                    cycles += misp_pen
                                    pen["mispredict"] = (
                                        pen.get("mispredict", 0) + misp_pen
                                    )
                                    stalled = True
                            elif bubble > 0:
                                cycles += bubble
                                pen["redirect"] = pen.get("redirect", 0) + bubble
                            break
                from_ic += cuops
                occ += cuops
                pushed += cuops
                if stalled:
                    break  # redirect resolved by the next cycle
            if logging:
                cycle_log.append(pushed)
            elif pos < total:
                # Queue-stall fast-forward: while the queue lacks room
                # for a worst-case fetch, cycles are pure full-width
                # drains — skip them in one step (cycle-exact, see the
                # XBC delivery loop).
                deficit = max_fetch - (depth - occ)
                if deficit > 0:
                    extra = (deficit + width - 1) // width - 1
                    if extra > 0 and occ >= extra * width:
                        cycles += extra
                        retired += extra * width
                        occ -= extra * width
                        build_cycles += extra
        if occ:
            cycles += (occ + width - 1) // width
            retired += occ

        stats = FrontendStats(frontend=self.name, trace_name=trace.name)
        stats.cycles = cycles
        stats.build_cycles = build_cycles
        stats.penalty_cycles = pen
        stats.uops_from_ic = from_ic
        stats.retired_uops = retired
        stats.cond_predictions = cond_pred
        stats.cond_mispredicts = cond_misp
        stats.indirect_predictions = ind_pred
        stats.indirect_mispredicts = ind_misp
        stats.return_predictions = ret_pred
        stats.return_mispredicts = ret_misp
        stats.ic_lookups = ic_lookups
        stats.ic_misses = ic_misses
        stats.verify_conservation(trace.total_uops)
        return stats

    # ------------------------------------------------------------------
    # reference path (behavioural oracle)
    # ------------------------------------------------------------------

    def _run_reference(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        stats = FrontendStats(frontend=self.name, trace_name=trace.name)
        flow = UopFlow(config, stats)
        engine = BuildEngine(
            config=config,
            stats=stats,
            icache=InstructionCache(
                config.ic_size_bytes, config.ic_line_bytes, config.ic_assoc
            ),
            cond_predictor=GsharePredictor(
                config.gshare_history_bits, config.gshare_entries
            ),
            btb=BranchTargetBuffer(config.btb_entries, config.btb_assoc),
            rsb=ReturnStackBuffer(config.rsb_depth),
            indirect=IndirectPredictor(
                config.indirect_entries, config.indirect_history_bits
            ),
        )

        total = len(trace)
        pos = 0
        max_fetch_uops = 4 * config.decode_width  # worst case 4 uops/instr
        while pos < total:
            stats.cycles += 1
            stats.build_cycles += 1
            flow.drain()
            pushed = 0
            for _port in range(self.ports):
                if pos >= total:
                    break
                if not flow.can_accept(max_fetch_uops):
                    break
                pos, cycle = engine.fetch_cycle(trace, pos)
                stats.uops_from_ic += cycle.uops
                flow.push(cycle.uops)
                pushed += cycle.uops
                stalled = False
                for cause, cycles in cycle.penalties.items():
                    stats.add_penalty(cause, cycles)
                    if cause in ("mispredict", "ic_miss", "btb_miss"):
                        stalled = True
                if stalled:
                    break  # redirect resolved by the next cycle
            if cycle_log is not None:
                cycle_log.append(pushed)
        flow.drain_all()
        stats.verify_conservation(trace.total_uops)
        return stats
