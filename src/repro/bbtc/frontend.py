"""BBTC frontend: block cache + trace table of block pointers.

Build mode segments the uop stream into basic blocks (ending on any
branch or the block-size quota, identified by their *start* IP),
installs each block in the block cache, and records traces of up to
``blocks_per_trace`` pointers in the trace table.  Delivery mode walks
a trace-table entry, fetching each pointed-to block from the block
cache and checking the embedded conditional directions against gshare
and the actual path, exactly as the TC model does at uop granularity.

Two implementations share this class: ``_run_flat`` (default) is one
fused loop over the columnar trace arrays with inlined predictors and
tuple-payload blocks, plus an XBC-style queue-stall fast-forward;
``_run_reference`` is the original object-per-cycle code, kept as the
behavioural oracle the differential tests call directly.  Both
produce bit-identical :class:`FrontendStats`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.indirect import IndirectPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.bbtc.config import BbtcConfig
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
    Instruction,
    InstrKind,
)
from repro.trace.record import Trace


class _Block:
    """A basic block in the block cache."""

    __slots__ = ("start_ip", "entries", "uops")

    def __init__(self, entries: List[Tuple[Instruction, bool]]) -> None:
        self.start_ip = entries[0][0].ip
        self.entries = entries
        self.uops = sum(instr.num_uops for instr, _ in entries)


class _SetAssoc:
    """Tiny generic set-associative store keyed by IP."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self._mask = num_sets - 1
        self._sets: List[Dict[int, object]] = [{} for _ in range(num_sets)]
        self._stamps: List[Dict[int, int]] = [{} for _ in range(num_sets)]
        self._clock = 0

    def get(self, key: int):
        index = (key >> 1) & self._mask
        value = self._sets[index].get(key)
        if value is not None:
            self._clock += 1
            self._stamps[index][key] = self._clock
        return value

    def put(self, key: int, value: object) -> None:
        index = (key >> 1) & self._mask
        entries = self._sets[index]
        stamps = self._stamps[index]
        self._clock += 1
        if key not in entries and len(entries) >= self.assoc:
            victim = min(stamps, key=stamps.get)
            del entries[victim]
            del stamps[victim]
        entries[key] = value
        stamps[key] = self._clock


class BbtcFrontend(FrontendModel):
    """Block-based trace cache frontend."""

    name = "bbtc"

    def __init__(
        self,
        config: Optional[FrontendConfig] = None,
        bbtc_config: Optional[BbtcConfig] = None,
    ) -> None:
        super().__init__(config if config is not None else FrontendConfig())
        bbtc_config = bbtc_config if bbtc_config is not None else BbtcConfig()
        bbtc_config.validate()
        self.bbtc_config = bbtc_config

    def run(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        """Simulate the trace through block cache + trace table."""
        return self._run_flat(trace, cycle_log)

    # ------------------------------------------------------------------
    # flat path
    # ------------------------------------------------------------------

    def _run_flat(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        bc = self.bbtc_config
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

        # block cache: set -> {start_ip: (entries, uops, stamp)} with
        # entry = (ip, taken, kind, nuops, snext); trace table:
        # set -> {first_block_ip: (block_ip_tuple, stamp)}.  Each store
        # keeps its own LRU clock, as the reference _SetAssoc does.
        bb_sets: List[dict] = [{} for _ in range(bc.num_sets)]
        bb_mask = bc.num_sets - 1
        bb_assoc = bc.assoc
        bb_clock = 0
        table_sets_n = bc.table_entries // bc.table_assoc
        tb_sets: List[dict] = [{} for _ in range(table_sets_n)]
        tb_mask = table_sets_n - 1
        tb_assoc = bc.table_assoc
        tb_clock = 0
        block_quota = bc.block_uops
        blocks_per_trace = bc.blocks_per_trace
        max_conds = bc.max_cond_branches

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
        max_fetch = blocks_per_trace * block_quota
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
        # fill state
        pending_block: list = []    # [(ip, taken, kind, nu, snext), ...]
        pending_uops = 0
        pending_trace: list = []    # block start IPs
        pending_conds = 0
        logging = cycle_log is not None

        def close_block() -> None:
            nonlocal pending_block, pending_uops, bb_clock
            if not pending_block:
                return
            start_ip = pending_block[0][0]
            bucket = bb_sets[(start_ip >> 1) & bb_mask]
            bb_clock += 1
            if start_ip not in bucket and len(bucket) >= bb_assoc:
                victim = min(bucket, key=lambda k: bucket[k][2])
                del bucket[victim]
            bucket[start_ip] = (tuple(pending_block), pending_uops, bb_clock)
            if len(pending_trace) < blocks_per_trace:
                pending_trace.append(start_ip)
            pending_block = []
            pending_uops = 0

        def close_trace() -> None:
            nonlocal pending_trace, pending_conds, tb_clock, blocks_built
            if pending_trace:
                key = pending_trace[0]
                bucket = tb_sets[(key >> 1) & tb_mask]
                tb_clock += 1
                if key not in bucket and len(bucket) >= tb_assoc:
                    victim = min(bucket, key=lambda k: bucket[k][1])
                    del bucket[victim]
                bucket[key] = (tuple(pending_trace), tb_clock)
                blocks_built += 1
            pending_trace = []
            pending_conds = 0

        while pos < total:
            cycles += 1
            if occ:
                t = occ if occ < width else width
                occ -= t
                retired += t

            if delivery:
                delivery_cycles += 1
                room = depth - occ
                if room < max_fetch:
                    if logging:
                        cycle_log.append(0)
                        continue
                    # Queue-stall fast-forward: cycles until a trace
                    # fits are pure full-width drains (cycle-exact,
                    # see the XBC delivery loop).
                    extra = (max_fetch - room + width - 1) // width - 1
                    if extra > 0 and occ >= extra * width:
                        cycles += extra
                        retired += extra * width
                        occ -= extra * width
                        delivery_cycles += extra
                    continue
                s_lookups += 1
                ip0 = ips[pos]
                tbucket = tb_sets[(ip0 >> 1) & tb_mask]
                tentry = tbucket.get(ip0)
                if tentry is None:
                    delivery = False
                    sw_build += 1
                    if mode_pen > 0:
                        cycles += mode_pen
                        pen["mode_switch"] = pen.get("mode_switch", 0) + mode_pen
                    if logging:
                        cycle_log.append(0)
                    continue
                tb_clock += 1
                tbucket[ip0] = (tentry[0], tb_clock)
                # ---- walk the pointed-to blocks against the path ----
                uops = 0
                complete = True
                for block_ip in tentry[0]:
                    if pos >= total or ips[pos] != block_ip:
                        complete = False
                        break
                    bbucket = bb_sets[(block_ip >> 1) & bb_mask]
                    block = bbucket.get(block_ip)
                    if block is None:
                        complete = False  # pointer into evicted block
                        break
                    bb_clock += 1
                    bbucket[block_ip] = (block[0], block[1], bb_clock)
                    diverged = False
                    for ip, rec_taken, k, nu, snext in block[0]:
                        if pos >= total or ips[pos] != ip:
                            complete = False
                            break
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
                                    complete = False
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
                                    complete = False
                                    break
                            if tk != rec_taken:
                                diverged = True
                                break
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
                    if diverged:
                        complete = False
                        break
                    if not complete:
                        break
                if uops == 0 and not complete:
                    # first block pointer missed in the block cache
                    delivery = False
                    sw_build += 1
                    if mode_pen > 0:
                        cycles += mode_pen
                        pen["mode_switch"] = pen.get("mode_switch", 0) + mode_pen
                    if logging:
                        cycle_log.append(0)
                    continue
                s_hits += 1
                fetch_cycles_s += 1
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

                # ---- segment this fetch run into blocks/traces ----
                closed_any = False
                for i in range(start, pos):
                    nu = nuops[i]
                    if pending_block and pending_uops + nu > block_quota:
                        close_block()
                        if len(pending_trace) >= blocks_per_trace:
                            close_trace()
                            closed_any = True
                    k = kinds[i]
                    pending_block.append((ips[i], takens[i], k, nu, snexts[i]))
                    pending_uops += nu
                    ends_block = (
                        k >= branch_floor or pending_uops >= block_quota
                    )
                    if k == branch_floor:
                        pending_conds += 1
                    if ends_block:
                        close_block()
                        end_trace = (
                            len(pending_trace) >= blocks_per_trace
                            or pending_conds >= max_conds
                            or k == c_ijump or k == c_icall or k == c_ret
                        )
                        if end_trace:
                            close_trace()
                            closed_any = True
                if closed_any and pos < total:
                    ip0 = ips[pos]
                    tbucket = tb_sets[(ip0 >> 1) & tb_mask]
                    tentry = tbucket.get(ip0)
                    if tentry is not None:
                        tb_clock += 1
                        tbucket[ip0] = (tentry[0], tb_clock)
                        delivery = True
                        pending_block = []
                        pending_uops = 0
                        pending_trace = []
                        pending_conds = 0
                        sw_deliver += 1
                        if mode_pen > 0:
                            cycles += mode_pen
                            pen["mode_switch"] = (
                                pen.get("mode_switch", 0) + mode_pen
                            )
        if occ:
            cycles += (occ + width - 1) // width
            retired += occ

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
        stats.verify_conservation(trace.total_uops)
        return stats

    # ------------------------------------------------------------------
    # reference path (behavioural oracle)
    # ------------------------------------------------------------------

    def _run_reference(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        bc = self.bbtc_config
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
        blocks = _SetAssoc(bc.num_sets, bc.assoc)
        table = _SetAssoc(bc.table_entries // bc.table_assoc, bc.table_assoc)

        ips = trace.ips
        takens = trace.takens
        instr_table = trace.instr_table
        total = len(trace)
        pos = 0
        delivery = False
        # fill state
        pending_block: List[Tuple[Instruction, bool]] = []
        pending_uops = 0
        pending_trace: List[int] = []  # block start IPs
        pending_conds = 0

        def close_block() -> None:
            nonlocal pending_block, pending_uops, pending_conds
            if not pending_block:
                return
            block = _Block(pending_block)
            blocks.put(block.start_ip, block)
            if len(pending_trace) < bc.blocks_per_trace:
                pending_trace.append(block.start_ip)
            pending_block = []
            pending_uops = 0

        def close_trace() -> None:
            nonlocal pending_trace, pending_conds
            if pending_trace:
                table.put(pending_trace[0], tuple(pending_trace))
                stats.blocks_built += 1
            pending_trace = []
            pending_conds = 0

        max_build_uops = 4 * config.decode_width
        max_fetch_uops = bc.blocks_per_trace * bc.block_uops

        while pos < total:
            stats.cycles += 1
            flow.drain()

            if delivery:
                stats.delivery_cycles += 1
                if not flow.can_accept(max_fetch_uops):
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                stats.structure_lookups += 1
                entry = table.get(ips[pos])
                if entry is None:
                    delivery = False
                    stats.switches_to_build += 1
                    stats.add_penalty("mode_switch", config.mode_switch_penalty)
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                uops, pos, complete = self._consume_trace(
                    entry, blocks, trace, pos, stats, gshare, rsb, indirect
                )
                if uops == 0 and not complete:
                    # first block pointer missed in the block cache
                    delivery = False
                    stats.switches_to_build += 1
                    stats.add_penalty("mode_switch", config.mode_switch_penalty)
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                stats.structure_hits += 1
                stats.structure_fetch_cycles += 1
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
                closed_any = False
                for i in range(cycle.start, cycle.end):
                    instr = instr_table[ips[i]]
                    if (
                        pending_block
                        and pending_uops + instr.num_uops > bc.block_uops
                    ):
                        close_block()
                        if len(pending_trace) >= bc.blocks_per_trace:
                            close_trace()
                            closed_any = True
                    pending_block.append((instr, bool(takens[i])))
                    pending_uops += instr.num_uops
                    ends_block = (
                        instr.kind.is_branch
                        or pending_uops >= bc.block_uops
                    )
                    if instr.kind is InstrKind.COND_BRANCH:
                        pending_conds += 1
                    if ends_block:
                        close_block()
                        end_trace = (
                            len(pending_trace) >= bc.blocks_per_trace
                            or pending_conds >= bc.max_cond_branches
                            or instr.kind.is_indirect
                        )
                        if end_trace:
                            close_trace()
                            closed_any = True
                if (
                    closed_any
                    and pos < total
                    and table.get(ips[pos]) is not None
                ):
                    delivery = True
                    pending_block = []
                    pending_uops = 0
                    pending_trace = []
                    pending_conds = 0
                    stats.switches_to_delivery += 1
                    stats.add_penalty("mode_switch", config.mode_switch_penalty)

        flow.drain_all()
        stats.verify_conservation(trace.total_uops)
        return stats

    # ------------------------------------------------------------------

    def _consume_trace(
        self,
        entry: Tuple[int, ...],
        blocks: _SetAssoc,
        trace: Trace,
        pos: int,
        stats: FrontendStats,
        gshare: GsharePredictor,
        rsb: ReturnStackBuffer,
        indirect: IndirectPredictor,
    ) -> Tuple[int, int, bool]:
        """Fetch the pointed-to blocks against the actual path.

        Returns (uops delivered, new position, walked-to-end flag).
        """
        config = self.config
        ips = trace.ips
        takens = trace.takens
        next_ips = trace.next_ips
        total = len(ips)
        uops = 0
        consumed = 0
        for block_ip in entry:
            index = pos + consumed
            if index >= total or ips[index] != block_ip:
                return uops, pos + consumed, False
            block = blocks.get(block_ip)
            if block is None:
                return uops, pos + consumed, False  # pointer into evicted block
            diverged = False
            for instr, recorded_taken in block.entries:
                index = pos + consumed
                if index >= total:
                    return uops, pos + consumed, False
                if ips[index] != instr.ip:
                    return uops, pos + consumed, False
                consumed += 1
                uops += instr.num_uops
                kind = instr.kind
                if kind is InstrKind.COND_BRANCH:
                    taken = bool(takens[index])
                    stats.cond_predictions += 1
                    if not gshare.update(instr.ip, taken):
                        stats.cond_mispredicts += 1
                        stats.add_penalty("mispredict", config.mispredict_penalty)
                        return uops, pos + consumed, False
                    if taken != recorded_taken:
                        diverged = True
                        break
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
            if diverged:
                return uops, pos + consumed, False
        return uops, pos + consumed, True
