"""Trace-cache frontend: build/delivery mode state machine.

Delivery mode looks the next fetch IP up in the trace cache and
consumes the stored trace against the actual path: uops are delivered
up to the first point where either the recorded path or the predicted
path diverges from the actual one (partial hits, as in [Frie97]).
Build mode runs the shared IC/BTB/decode engine and feeds the fill
unit; once a trace completes and the next fetch IP hits in the cache,
the frontend switches back to delivery.

Two implementations share this class: ``_run_flat`` (default for the
§4 baseline, which has path associativity OFF) is one fused loop over
the columnar trace arrays with inlined predictors and tuple-payload
trace lines, plus an XBC-style queue-stall fast-forward.
``_run_reference`` is the original object-per-cycle code, kept as the
behavioural oracle the differential tests call directly and used for
path-associative configurations (predictor-steered way selection stays
on the object path).  Both produce bit-identical
:class:`FrontendStats`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
    CODE_INDIRECT_JUMP,
    CODE_JUMP,
    CODE_RETURN,
    InstrKind,
)
from repro.tc.cache import TraceCache
from repro.tc.config import TcConfig
from repro.tc.fill import TcFillUnit
from repro.tc.trace_line import TraceLine
from repro.trace.record import Trace


class TcFrontend(FrontendModel):
    """The paper's §4 trace-cache configuration."""

    name = "tc"

    def __init__(
        self,
        config: Optional[FrontendConfig] = None,
        tc_config: Optional[TcConfig] = None,
    ) -> None:
        super().__init__(config if config is not None else FrontendConfig())
        tc_config = tc_config if tc_config is not None else TcConfig()
        tc_config.validate()
        self.tc_config = tc_config

    def run(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        """Simulate the trace through the trace-cache frontend."""
        if self.tc_config.path_associativity:
            return self._run_reference(trace, cycle_log)
        return self._run_flat(trace, cycle_log)

    # ------------------------------------------------------------------
    # flat path (path associativity off — the §4 baseline)
    # ------------------------------------------------------------------

    def _run_flat(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        tc = self.tc_config
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

        # trace-cache store: set -> {start_ip: (entries, uops, stamp)}
        # with entry = (ip, taken, kind, nuops, snext).  Static fields
        # are functions of ip, so entries-tuple equality is exactly the
        # reference's path-signature equality.
        sets: List[dict] = [{} for _ in range(tc.num_sets)]
        set_mask = tc.num_sets - 1
        tc_assoc = tc.assoc
        line_quota = tc.line_uops
        max_conds = tc.max_cond_branches
        clock = 0

        # config scalars
        width = config.renamer_width
        depth = config.uop_queue_depth
        decode_width = config.decode_width
        fetch_block = config.fetch_block_bytes
        ic_lat = config.ic_miss_latency
        misp_pen = config.mispredict_penalty
        bubble = config.taken_branch_bubble
        btb_pen = config.btb_miss_penalty
        mode_pen = config.mode_switch_penalty
        max_build = 4 * decode_width
        branch_floor = CODE_COND_BRANCH
        c_jump = CODE_JUMP
        c_ijump = CODE_INDIRECT_JUMP
        c_call = CODE_CALL
        c_icall = CODE_INDIRECT_CALL
        c_ret = CODE_RETURN

        # counters
        cycles = 0
        build_cycles = 0
        delivery_cycles = 0
        retired = 0
        occ = 0
        from_ic = 0
        from_structure = 0
        fetch_cycles_s = 0
        s_lookups = s_hits = 0
        blocks_built = 0
        sw_deliver = sw_build = 0
        cond_pred = cond_misp = ind_pred = ind_misp = 0
        ret_pred = ret_misp = 0
        ic_lookups = ic_misses = 0
        pen: dict = {}
        pos = 0
        delivery = False
        pending: list = []          # [(ip, taken, kind, nu, snext), ...]
        pending_uops = 0
        pending_conds = 0
        logging = cycle_log is not None

        def finalize() -> bool:
            """Install the pending trace (oracle: TcFillUnit._finalize
            + TraceCache.insert); returns True when a line completed."""
            nonlocal pending, pending_uops, pending_conds, clock, blocks_built
            if not pending:
                return False
            start_ip = pending[0][0]
            entries = tuple(pending)
            bucket = sets[(start_ip >> 1) & set_mask]
            clock += 1
            existing = bucket.get(start_ip)
            if existing is not None:
                if existing[0] == entries:
                    bucket[start_ip] = (existing[0], existing[1], clock)
                else:
                    bucket[start_ip] = (entries, pending_uops, clock)
            else:
                if len(bucket) >= tc_assoc:
                    victim = min(bucket, key=lambda k: bucket[k][2])
                    del bucket[victim]
                bucket[start_ip] = (entries, pending_uops, clock)
            blocks_built += 1
            pending = []
            pending_uops = 0
            pending_conds = 0
            return True

        while pos < total:
            cycles += 1
            if occ:
                t = occ if occ < width else width
                occ -= t
                retired += t

            if delivery:
                delivery_cycles += 1
                room = depth - occ
                if room < line_quota:
                    if logging:
                        cycle_log.append(0)
                        continue
                    # Queue-stall fast-forward: cycles until a line
                    # fits are pure full-width drains (cycle-exact,
                    # see the XBC delivery loop).
                    extra = (line_quota - room + width - 1) // width - 1
                    if extra > 0 and occ >= extra * width:
                        cycles += extra
                        retired += extra * width
                        occ -= extra * width
                        delivery_cycles += extra
                    continue
                s_lookups += 1
                ip0 = ips[pos]
                bucket = sets[(ip0 >> 1) & set_mask]
                entry = bucket.get(ip0)
                if entry is None:
                    delivery = False
                    sw_build += 1
                    if mode_pen > 0:
                        cycles += mode_pen
                        pen["mode_switch"] = pen.get("mode_switch", 0) + mode_pen
                    if logging:
                        cycle_log.append(0)
                    continue
                clock += 1
                bucket[ip0] = (entry[0], entry[1], clock)
                s_hits += 1
                fetch_cycles_s += 1
                # ---- consume the line against the actual path ----
                uops = 0
                for ip, rec_taken, k, nu, snext in entry[0]:
                    if pos >= total or ips[pos] != ip:
                        break  # stale line contents vs the actual path
                    i = pos
                    pos += 1
                    uops += nu
                    if k < branch_floor:
                        continue
                    if k == branch_floor:  # conditional
                        tk = takens[i]
                        cond_pred += 1
                        gi = ((ip >> 1) ^ g_hist) & g_imask
                        c = g_counters[gi]
                        if tk:
                            if c < 3:
                                g_counters[gi] = c + 1
                            g_hist = ((g_hist << 1) | 1) & g_hmask
                            if c < 2:
                                cond_misp += 1
                                if misp_pen > 0:
                                    cycles += misp_pen
                                    pen["mispredict"] = (
                                        pen.get("mispredict", 0) + misp_pen
                                    )
                                break
                        else:
                            if c > 0:
                                g_counters[gi] = c - 1
                            g_hist = (g_hist << 1) & g_hmask
                            if c >= 2:
                                cond_misp += 1
                                if misp_pen > 0:
                                    cycles += misp_pen
                                    pen["mispredict"] = (
                                        pen.get("mispredict", 0) + misp_pen
                                    )
                                break
                        if tk != rec_taken:
                            break  # partial hit: recorded path diverges
                    elif k == c_call:
                        if r_count < r_depth:
                            r_count += 1
                        r_slots[r_top] = snext
                        r_top += 1
                        if r_top == r_depth:
                            r_top = 0
                    elif k == c_icall or k == c_ijump:
                        if k == c_icall:
                            if r_count < r_depth:
                                r_count += 1
                            r_slots[r_top] = snext
                            r_top += 1
                            if r_top == r_depth:
                                r_top = 0
                        ind_pred += 1
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
                    # direct JUMP: embedded target, no action
                from_structure += uops
                occ += uops
                if logging:
                    cycle_log.append(uops)
            else:
                build_cycles += 1
                room = depth - occ
                if room < max_build:
                    if logging:
                        cycle_log.append(0)
                        continue
                    extra = (max_build - room + width - 1) // width - 1
                    if extra > 0 and occ >= extra * width:
                        cycles += extra
                        retired += extra * width
                        occ -= extra * width
                        build_cycles += extra
                    continue
                # ---- one build fetch cycle, inlined (oracle:
                # BuildEngine.fetch_cycle) ----
                start = pos
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
                                if c < 2:
                                    cond_misp += 1
                                    if misp_pen > 0:
                                        cycles += misp_pen
                                        pen["mispredict"] = (
                                            pen.get("mispredict", 0) + misp_pen
                                        )
                                    break
                                # correct taken: redirect via the BTB
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
                                        b_targets[found] = tgt
                                        b_clock += 1
                                        b_stamps[found] = b_clock
                                else:
                                    if btb_pen > 0:
                                        cycles += btb_pen
                                        pen["btb_miss"] = (
                                            pen.get("btb_miss", 0) + btb_pen
                                        )
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
                                if c >= 2:
                                    cond_misp += 1
                                    if misp_pen > 0:
                                        cycles += misp_pen
                                        pen["mispredict"] = (
                                            pen.get("mispredict", 0) + misp_pen
                                        )
                                    break
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
                            elif bubble > 0:
                                cycles += bubble
                                pen["redirect"] = pen.get("redirect", 0) + bubble
                            break
                        elif k == c_call or k == c_jump:
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
                                    b_targets[found] = tgt
                                    b_clock += 1
                                    b_stamps[found] = b_clock
                            else:
                                if btb_pen > 0:
                                    cycles += btb_pen
                                    pen["btb_miss"] = (
                                        pen.get("btb_miss", 0) + btb_pen
                                    )
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
                            elif bubble > 0:
                                cycles += bubble
                                pen["redirect"] = pen.get("redirect", 0) + bubble
                            break
                from_ic += cuops
                occ += cuops
                if logging:
                    cycle_log.append(cuops)

                # ---- feed the fill unit (oracle: TcFillUnit.feed) ----
                completed = False
                for i in range(start, pos):
                    nu = nuops[i]
                    if pending and pending_uops + nu > line_quota:
                        # Quota cut: the instruction starts the next trace.
                        completed |= finalize()
                    k = kinds[i]
                    pending.append((ips[i], takens[i], k, nu, snexts[i]))
                    pending_uops += nu
                    if k == branch_floor:
                        pending_conds += 1
                    if (
                        k == c_ijump
                        or k == c_icall
                        or k == c_ret
                        or pending_uops >= line_quota
                        or pending_conds >= max_conds
                    ):
                        completed |= finalize()
                if completed and pos < total and (
                    ips[pos] in sets[(ips[pos] >> 1) & set_mask]
                ):
                    delivery = True
                    pending = []
                    pending_uops = 0
                    pending_conds = 0
                    sw_deliver += 1
                    if mode_pen > 0:
                        cycles += mode_pen
                        pen["mode_switch"] = pen.get("mode_switch", 0) + mode_pen
        if occ:
            cycles += (occ + width - 1) // width
            retired += occ

        # redundancy audit over the resident lines (oracle:
        # TraceCache.redundancy / stored_uops)
        copies: dict = {}
        resident_uops = 0
        for bucket in sets:
            for entries, line_uops_total, _stamp in bucket.values():
                resident_uops += line_uops_total
                for ip, _taken, _k, nu, _snext in entries:
                    for index in range(nu):
                        key = (ip << 4) | index
                        copies[key] = copies.get(key, 0) + 1
        if copies:
            redundancy = sum(copies.values()) / len(copies)
        else:
            redundancy = 1.0

        stats = FrontendStats(frontend=self.name, trace_name=trace.name)
        stats.cycles = cycles
        stats.build_cycles = build_cycles
        stats.delivery_cycles = delivery_cycles
        stats.penalty_cycles = pen
        stats.uops_from_ic = from_ic
        stats.uops_from_structure = from_structure
        stats.retired_uops = retired
        stats.structure_fetch_cycles = fetch_cycles_s
        stats.structure_lookups = s_lookups
        stats.structure_hits = s_hits
        stats.blocks_built = blocks_built
        stats.switches_to_delivery = sw_deliver
        stats.switches_to_build = sw_build
        stats.cond_predictions = cond_pred
        stats.cond_mispredicts = cond_misp
        stats.indirect_predictions = ind_pred
        stats.indirect_mispredicts = ind_misp
        stats.return_predictions = ret_pred
        stats.return_mispredicts = ret_misp
        stats.ic_lookups = ic_lookups
        stats.ic_misses = ic_misses
        stats.extra["tc_redundancy_x1000"] = int(redundancy * 1000)
        stats.extra["tc_resident_uops"] = resident_uops
        stats.verify_conservation(trace.total_uops)
        return stats

    # ------------------------------------------------------------------
    # reference path (behavioural oracle; also the path-assoc model)
    # ------------------------------------------------------------------

    def _run_reference(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        stats = FrontendStats(frontend=self.name, trace_name=trace.name)
        flow = UopFlow(config, stats)

        gshare = GsharePredictor(config.gshare_history_bits, config.gshare_entries)
        rsb: ReturnStackBuffer = ReturnStackBuffer(config.rsb_depth)
        indirect: IndirectPredictor = IndirectPredictor(
            config.indirect_entries, config.indirect_history_bits
        )
        engine = BuildEngine(
            config=config,
            stats=stats,
            icache=InstructionCache(
                config.ic_size_bytes, config.ic_line_bytes, config.ic_assoc
            ),
            cond_predictor=gshare,
            btb=BranchTargetBuffer(config.btb_entries, config.btb_assoc),
            rsb=rsb,
            indirect=indirect,
        )
        cache = TraceCache(self.tc_config)
        fill = TcFillUnit(self.tc_config)

        ips = trace.ips
        takens = trace.takens
        instr_table = trace.instr_table
        total = len(trace)
        pos = 0
        delivery = False
        max_build_uops = 4 * config.decode_width

        while pos < total:
            stats.cycles += 1
            flow.drain()

            if delivery:
                stats.delivery_cycles += 1
                if not flow.can_accept(self.tc_config.line_uops):
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                stats.structure_lookups += 1
                line = self._select_line(
                    cache, cache.lookup_all(ips[pos]), gshare
                )
                if line is None:
                    delivery = False
                    stats.switches_to_build += 1
                    stats.add_penalty("mode_switch", config.mode_switch_penalty)
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                stats.structure_hits += 1
                stats.structure_fetch_cycles += 1
                uops, pos = self._consume_line(
                    line, trace, pos, stats, gshare, rsb, indirect
                )
                stats.uops_from_structure += uops
                flow.push(uops)
                if cycle_log is not None:
                    cycle_log.append(uops)
            else:
                stats.build_cycles += 1
                if not flow.can_accept(max_build_uops):
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                pos, cycle = engine.fetch_cycle(trace, pos)
                stats.uops_from_ic += cycle.uops
                flow.push(cycle.uops)
                if cycle_log is not None:
                    cycle_log.append(cycle.uops)
                for cause, cycles in cycle.penalties.items():
                    stats.add_penalty(cause, cycles)
                completed = False
                for i in range(cycle.start, cycle.end):
                    for line in fill.feed(instr_table[ips[i]], bool(takens[i])):
                        cache.insert(line)
                        stats.blocks_built += 1
                        completed = True
                if completed and pos < total and cache.contains(ips[pos]):
                    delivery = True
                    fill.abandon()
                    stats.switches_to_delivery += 1
                    stats.add_penalty("mode_switch", config.mode_switch_penalty)

        flow.drain_all()
        stats.extra["tc_redundancy_x1000"] = int(cache.redundancy() * 1000)
        stats.extra["tc_resident_uops"] = cache.stored_uops()
        stats.verify_conservation(trace.total_uops)
        return stats

    # ------------------------------------------------------------------

    def _select_line(self, cache, candidates, gshare):
        """Pick among same-start traces by predicted path ([Jaco97]).

        Without path associativity there is at most one candidate.  With
        it, the line whose embedded directions the predictor agrees with
        longest wins (predictions are peeked, not consumed — consumption
        happens when the line is walked against the actual path).
        """
        if len(candidates) <= 1:
            return candidates[0] if candidates else None
        best = None
        best_score = -1
        for line in candidates:
            score = 0
            for entry in line.entries:
                if entry.instr.kind is InstrKind.COND_BRANCH:
                    if gshare.predict(entry.instr.ip) != entry.taken:
                        break
                    score += 1
            if score > best_score:
                best = line
                best_score = score
        cache.touch(best)
        return best

    def _consume_line(
        self,
        line: TraceLine,
        trace: Trace,
        pos: int,
        stats: FrontendStats,
        gshare: GsharePredictor,
        rsb: ReturnStackBuffer,
        indirect: IndirectPredictor,
    ) -> Tuple[int, int]:
        """Deliver the line against the actual path.

        Returns ``(correct-path uops delivered, new trace position)``.
        Delivery stops at the first conditional branch where the
        recorded path or the prediction leaves the actual path.
        """
        config = self.config
        ips = trace.ips
        takens = trace.takens
        next_ips = trace.next_ips
        total = len(ips)
        uops = 0
        consumed = 0
        for entry in line.entries:
            index = pos + consumed
            if index >= total:
                break
            instr = entry.instr
            if ips[index] != instr.ip:
                break  # stale line contents relative to the actual path
            consumed += 1
            uops += instr.num_uops
            kind = instr.kind

            if kind is InstrKind.COND_BRANCH:
                taken = bool(takens[index])
                stats.cond_predictions += 1
                correct = gshare.update(instr.ip, taken)
                if not correct:
                    stats.cond_mispredicts += 1
                    stats.add_penalty("mispredict", config.mispredict_penalty)
                    break
                if taken != entry.taken:
                    break  # partial hit: recorded path leaves the actual path
            elif kind is InstrKind.CALL:
                rsb.push(instr.next_ip)
            elif kind is InstrKind.INDIRECT_CALL:
                rsb.push(instr.next_ip)
                stats.indirect_predictions += 1
                nxt = next_ips[index]
                if not indirect.update(instr.ip, nxt, nxt):
                    stats.indirect_mispredicts += 1
                    stats.add_penalty("mispredict", config.mispredict_penalty)
            elif kind is InstrKind.INDIRECT_JUMP:
                stats.indirect_predictions += 1
                nxt = next_ips[index]
                if not indirect.update(instr.ip, nxt, nxt):
                    stats.indirect_mispredicts += 1
                    stats.add_penalty("mispredict", config.mispredict_penalty)
            elif kind is InstrKind.RETURN:
                stats.return_predictions += 1
                if rsb.pop() != next_ips[index]:
                    stats.return_mispredicts += 1
                    stats.add_penalty("mispredict", config.mispredict_penalty)
        return uops, pos + consumed
