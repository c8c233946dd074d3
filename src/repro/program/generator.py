"""Synthetic program generator.

Turns a :class:`~repro.program.profiles.WorkloadProfile` plus a seed
into a laid-out :class:`~repro.program.cfg.Program`:

1. **Call graph** — function 0 is ``main``; every other function gets a
   call-graph level in ``1..max_call_depth`` and a callee set drawn from
   strictly deeper levels, so the call graph is acyclic and the dynamic
   call depth is bounded (no recursion).  ``main`` loops forever over
   calls to every level-1 function, giving the trace its phase/reuse
   structure; the executor's instruction budget terminates it.
2. **Blocks** — each function is a spine of basic blocks.  Conditional
   backedges (always bound to a :class:`LoopBehavior`, so every
   intra-function cycle is trip-limited) create loops; forward
   conditional/unconditional targets create join points, which is what
   gives extended blocks their multiple entry points.
3. **Layout** — every instruction's shape (1–11 bytes, 1–4 uops) and
   every block's address in a linear address space are fixed up front;
   a block is lowered to IA-32-like instructions, and its
   conditional/indirect terminator given a behaviour object, the first
   time the program is asked for it.
"""

from __future__ import annotations

from math import log
from typing import Dict, List, Optional, Tuple

from repro.common.errors import GenerationError
from repro.common.rng import DeterministicRng
from repro.isa.instruction import Instruction, InstrKind
from repro.program.behavior import (
    BiasedBehavior,
    BranchBehavior,
    IndirectBehavior,
    LoopBehavior,
    PatternBehavior,
)
from repro.program.cfg import (
    BasicBlockSpec,
    FunctionSpec,
    LayoutBlock,
    LazyMapping,
    Program,
    TerminatorKind,
)
from repro.program.profiles import WorkloadProfile

#: Byte size and uop count of each terminator kind (IA-32-flavoured).
_TERMINATOR_SHAPE: Dict[TerminatorKind, Tuple[int, int]] = {
    TerminatorKind.COND: (2, 1),
    TerminatorKind.JUMP: (2, 1),
    TerminatorKind.CALL: (3, 2),
    TerminatorKind.INDIRECT_CALL: (3, 2),
    TerminatorKind.INDIRECT: (2, 1),
    TerminatorKind.RET: (1, 2),
}

#: Terminators whose targets come from an :class:`IndirectBehavior`.
_INDIRECT_TERMINATORS = (TerminatorKind.INDIRECT, TerminatorKind.INDIRECT_CALL)

#: Minimum gap left between functions during layout (bytes).
_MIN_FUNCTION_GAP = 16


class ProgramGenerator:
    """Generates one synthetic program from a profile and a seed."""

    def __init__(self, profile: WorkloadProfile, seed: int) -> None:
        profile.validate()
        self.profile = profile
        self.seed = seed
        self._rng = DeterministicRng(seed)
        self._body_thresholds = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def generate(self, name: str = "", suite: str = "") -> Program:
        """Build the program (call graph → blocks → layout)."""
        levels = self._assign_levels()
        callees = self._assign_callees(levels)
        functions, specs = self._build_blocks(levels, callees)
        return self._layout(functions, specs, name=name, suite=suite or self.profile.name)

    # ------------------------------------------------------------------
    # call graph
    # ------------------------------------------------------------------

    def _assign_levels(self) -> List[int]:
        """Level per function id; main (id 0) is level 0."""
        p = self.profile
        rng = self._rng.fork(1)
        levels = [0]
        for fid in range(1, p.num_functions):
            levels.append(rng.randint(1, p.max_call_depth))
        # Guarantee at least one level-1 function (main needs callees)
        # and at least one function at the deepest level is harmless to skip.
        if 1 not in levels[1:]:
            levels[1] = 1
        return levels

    def _assign_callees(self, levels: List[int]) -> List[List[int]]:
        """Callee set per function, acyclic by construction (deeper only)."""
        p = self.profile
        rng = self._rng.fork(2)
        by_level: Dict[int, List[int]] = {}
        for fid, level in enumerate(levels):
            by_level.setdefault(level, []).append(fid)

        callees: List[List[int]] = [[] for _ in levels]
        # main calls every level-1 function: this is the outer phase loop.
        callees[0] = list(by_level.get(1, []))

        # Candidate sets depend only on the caller's level, so build the
        # "functions deeper than L" lists once per level (ascending fid,
        # matching the old per-function scan exactly) instead of doing
        # an O(n) scan per function — O(n^2) at server function counts.
        max_level = max(levels) if levels else 0
        deeper_than: Dict[int, List[int]] = {
            level: [
                g for g in range(1, len(levels)) if levels[g] > level
            ]
            for level in range(max_level + 1)
        }

        for fid in range(1, len(levels)):
            level = levels[fid]
            candidates = deeper_than[level]
            if not candidates:
                continue  # leaf function
            want = rng.geometric(p.mean_callees_per_function, lo=1, hi=6)
            want = min(want, len(candidates))
            # Zipf-popular callees: a few hot shared functions.
            chosen: List[int] = []
            for _ in range(want * 3):
                pick = rng.zipf_choice(candidates, p.callee_popularity_skew)
                if pick not in chosen:
                    chosen.append(pick)
                if len(chosen) == want:
                    break
            callees[fid] = chosen

        # Coverage fix: every non-main function should be reachable from
        # some shallower caller, otherwise it is pure dead code.  Same
        # per-level precompute as above (main, level 0, included here).
        shallower_than: Dict[int, List[int]] = {
            level: [
                g for g in range(len(levels)) if levels[g] < level
            ]
            for level in range(1, max_level + 1)
        }
        covered = set()
        for cs in callees:
            covered.update(cs)
        for fid in range(1, len(levels)):
            if fid in covered:
                continue
            caller = rng.choice(shallower_than[levels[fid]])
            callees[caller].append(fid)
        return callees

    # ------------------------------------------------------------------
    # block structure
    # ------------------------------------------------------------------

    def _build_blocks(
        self,
        levels: List[int],
        callees: List[List[int]],
    ) -> Tuple[List[FunctionSpec], Dict[int, BasicBlockSpec]]:
        """Create every function's block specs with global block ids."""
        p = self.profile
        functions: List[FunctionSpec] = []
        specs: Dict[int, BasicBlockSpec] = {}
        next_bid = 0

        # First pass: reserve block-id ranges so calls can reference the
        # callee entry block before the callee's blocks are generated.
        counts: List[int] = []
        for fid in range(p.num_functions):
            if fid == 0:
                counts.append(len(callees[0]) + 1)  # one call block each + loop-back
            else:
                rng = self._rng.fork(100 + fid)
                counts.append(
                    rng.geometric(
                        p.mean_blocks_per_function,
                        lo=p.min_blocks_per_function,
                        hi=p.max_blocks_per_function,
                    )
                )
        entry_bids: List[int] = []
        for count in counts:
            entry_bids.append(next_bid)
            next_bid += count

        for fid in range(p.num_functions):
            base = entry_bids[fid]
            bids = list(range(base, base + counts[fid]))
            functions.append(FunctionSpec(fid=fid, level=levels[fid], block_bids=bids))
            if fid == 0:
                self._build_main_blocks(specs, bids, callees[0], entry_bids)
            else:
                self._build_function_blocks(
                    specs, fid, bids, callees[fid], entry_bids
                )

        for spec in specs.values():
            spec.validate()
        if not specs:
            raise GenerationError("generator produced no blocks")
        return functions, specs

    def _build_main_blocks(
        self,
        specs: Dict[int, BasicBlockSpec],
        bids: List[int],
        main_callees: List[int],
        entry_bids: List[int],
    ) -> None:
        """main: one CALL block per level-1 function, then loop forever."""
        rng = self._rng.fork(99)
        p = self.profile
        for i, callee_fid in enumerate(main_callees):
            bid = bids[i]
            specs[bid] = BasicBlockSpec(
                bid=bid,
                fid=0,
                body_uop_counts=self._draw_body(rng),
                terminator=TerminatorKind.CALL,
                taken_bid=entry_bids[callee_fid],
                fall_bid=bids[i + 1],
            )
        last = bids[-1]
        specs[last] = BasicBlockSpec(
            bid=last,
            fid=0,
            body_uop_counts=self._draw_body(rng),
            terminator=TerminatorKind.JUMP,
            taken_bid=bids[0],
        )

    def _plan_loops(self, rng: DeterministicRng, nb: int) -> Dict[int, int]:
        """Plan loop intervals on a function spine.

        Returns ``{backedge_block_index: loop_start_index}``.  Loops are
        disjoint along the spine, with at most one nested inner loop per
        outer loop (depth <= 2), which keeps the dynamic blow-up of
        nested trip counts bounded while still exercising nesting.
        """
        p = self.profile
        loops: Dict[int, int] = {}
        pos = 0
        while True:
            gap = rng.geometric(p.mean_loop_gap, lo=0, hi=12)
            start = pos + gap
            body = rng.geometric(p.mean_loop_body, lo=1, hi=p.max_backedge_span)
            end = start + body
            if end >= nb - 1:
                return loops
            loops[end] = start
            if body >= 3 and rng.random() < p.p_nested_loop:
                inner_body = rng.randint(1, body - 2)
                inner_start = rng.randint(start, end - 1 - inner_body)
                loops[inner_start + inner_body] = inner_start
            pos = end + 1

    @staticmethod
    def _innermost_loop_end(loops: Dict[int, int], index: int) -> Optional[int]:
        """Backedge index of the innermost loop whose body contains *index*."""
        best: Optional[int] = None
        for end, start in loops.items():
            if start <= index < end and (best is None or end < best):
                best = end
        return best

    def _build_function_blocks(
        self,
        specs: Dict[int, BasicBlockSpec],
        fid: int,
        bids: List[int],
        fn_callees: List[int],
        entry_bids: List[int],
    ) -> None:
        """Generate the spine of one non-main function.

        Control flow inside a planned loop body stays inside the loop
        (targets are clamped to the backedge block), so loops actually
        iterate; rare "escape" conditionals model loop breaks and are
        bound to monotonic not-taken behaviour.
        """
        p = self.profile
        rng = self._rng.fork(1000 + fid)
        nb = len(bids)
        loops = self._plan_loops(rng.fork(7), nb)
        join_targets: List[int] = []  # local indices already targeted
        forced_jump: Dict[int, int] = {}  # diamond/switch "break" jumps

        for i in range(nb):
            bid = bids[i]
            body = self._draw_body(rng)
            if i == nb - 1:
                specs[bid] = BasicBlockSpec(
                    bid=bid, fid=fid, body_uop_counts=body,
                    terminator=TerminatorKind.RET,
                )
                continue
            if i in loops:
                specs[bid] = BasicBlockSpec(
                    bid=bid, fid=fid, body_uop_counts=body,
                    terminator=TerminatorKind.COND,
                    taken_bid=bids[loops[i]],
                    fall_bid=bids[i + 1],
                    cond_class="backedge",
                )
                continue

            enclosing_end = self._innermost_loop_end(loops, i)
            # The furthest forward target this block may use: the
            # enclosing backedge block when in a loop, else the spine end.
            clamp = enclosing_end if enclosing_end is not None else nb - 1
            if i in forced_jump:
                # A diamond arm or switch case breaking to its merge
                # block: two such arms give one XB two distinct prefixes
                # (§3.3 case 3).
                specs[bid] = BasicBlockSpec(
                    bid=bid, fid=fid, body_uop_counts=body,
                    terminator=TerminatorKind.JUMP,
                    taken_bid=bids[forced_jump[i]],
                )
                continue
            kind = self._draw_terminator(rng, i, clamp, fn_callees)
            spec = BasicBlockSpec(
                bid=bid, fid=fid, body_uop_counts=body, terminator=kind
            )
            if kind is TerminatorKind.COND:
                spec.fall_bid = bids[i + 1]
                if (
                    enclosing_end is not None
                    and enclosing_end + 1 < nb
                    and rng.random() < p.p_loop_escape
                ):
                    hi = min(nb - 1, enclosing_end + 1 + p.max_forward_jump_blocks)
                    spec.taken_bid = bids[rng.randint(enclosing_end + 1, hi)]
                    spec.cond_class = "escape"
                else:
                    hi = min(clamp, i + 1 + p.max_forward_jump_blocks)
                    target = rng.randint(i + 1, hi)
                    join_targets.append(target)
                    spec.taken_bid = bids[target]
                    self._maybe_diamond(
                        rng, loops, forced_jump, i, target, clamp, nb
                    )
            elif kind is TerminatorKind.JUMP:
                hi = min(clamp, i + 1 + p.max_forward_jump_blocks)
                # Prefer re-converging on an existing join: this is the
                # if/else-diamond shape that yields shared-suffix XBs.
                joins = [t for t in join_targets if i + 1 <= t <= hi]
                if joins and rng.random() < p.p_join_jump:
                    target = rng.choice(joins)
                else:
                    target = rng.randint(i + 1, hi)
                join_targets.append(target)
                spec.taken_bid = bids[target]
            elif kind is TerminatorKind.CALL:
                callee = rng.zipf_choice(fn_callees, p.callee_popularity_skew)
                spec.taken_bid = entry_bids[callee]
                spec.fall_bid = bids[i + 1]
            elif kind is TerminatorKind.INDIRECT_CALL:
                count = min(len(fn_callees), rng.randint(2, 4))
                spec.indirect_bids = [
                    entry_bids[c] for c in rng.sample(fn_callees, count)
                ]
                spec.fall_bid = bids[i + 1]
            elif kind is TerminatorKind.INDIRECT:
                lo_pool = i + 1
                pool = list(range(lo_pool, clamp + 1))
                count = rng.geometric(
                    p.mean_indirect_targets, lo=2, hi=p.max_indirect_targets
                )
                count = min(count, len(pool))
                locals_chosen = rng.sample(pool, count)
                spec.indirect_bids = [bids[t] for t in locals_chosen]
                self._maybe_switch_merge(
                    rng, loops, forced_jump, locals_chosen, clamp, nb
                )
            specs[bid] = spec

    def _maybe_diamond(
        self,
        rng: DeterministicRng,
        loops: Dict[int, int],
        forced_jump: Dict[int, int],
        i: int,
        taken: int,
        clamp: int,
        nb: int,
    ) -> None:
        """Close an if/else into a diamond: then-arm jumps over the else."""
        p = self.profile
        if rng.random() >= p.p_diamond:
            return
        arm_end = taken - 1
        if arm_end <= i or arm_end in loops or arm_end in forced_jump:
            return
        hi = min(clamp, taken + 4)
        if hi <= taken:
            return
        merge = rng.randint(taken + 1, hi) if hi > taken + 1 else taken + 1
        if self._jump_is_safe(loops, arm_end, merge, nb):
            forced_jump[arm_end] = merge

    def _maybe_switch_merge(
        self,
        rng: DeterministicRng,
        loops: Dict[int, int],
        forced_jump: Dict[int, int],
        targets: List[int],
        clamp: int,
        nb: int,
    ) -> None:
        """Make switch cases break to one merge block (shared suffix)."""
        p = self.profile
        if rng.random() >= p.p_switch_merge:
            return
        top = max(targets)
        if top >= clamp:
            return
        merge = rng.randint(top + 1, clamp)
        for t in targets:
            if t == merge or t in loops or t in forced_jump:
                continue
            if self._jump_is_safe(loops, t, merge, nb):
                forced_jump[t] = merge

    def _jump_is_safe(
        self,
        loops: Dict[int, int],
        source: int,
        target: int,
        nb: int,
    ) -> bool:
        """A forced jump must not escape the source's enclosing loop."""
        if target >= nb - 1 and target != nb - 1:
            return False
        enclosing = self._innermost_loop_end(loops, source)
        limit = enclosing if enclosing is not None else nb - 1
        return source < target <= limit

    def _draw_terminator(
        self,
        rng: DeterministicRng,
        index: int,
        clamp: int,
        fn_callees: List[int],
    ) -> TerminatorKind:
        """Draw a terminator kind, downgrading infeasible choices.

        *clamp* is the furthest forward block index available as a
        target (the enclosing backedge block inside loops).
        """
        p = self.profile
        kind = rng.weighted_choice([
            (TerminatorKind.COND, p.p_cond),
            (TerminatorKind.JUMP, p.p_jump),
            (TerminatorKind.CALL, p.p_call),
            (TerminatorKind.INDIRECT, p.p_indirect),
            (TerminatorKind.INDIRECT_CALL, p.p_indirect_call),
        ])
        if kind in (TerminatorKind.CALL, TerminatorKind.INDIRECT_CALL) and not fn_callees:
            kind = TerminatorKind.COND  # leaf function: nothing to call
        if kind is TerminatorKind.INDIRECT_CALL and len(fn_callees) < 2:
            kind = TerminatorKind.CALL
        if kind is TerminatorKind.INDIRECT and clamp - index < 2:
            kind = TerminatorKind.JUMP  # not enough forward blocks for a switch
        return kind

    def _draw_body(self, rng: DeterministicRng) -> List[int]:
        """Uop counts of a block's non-branch instructions."""
        p = self.profile
        count = rng.geometric(p.mean_body_instrs, lo=1, hi=p.max_body_instrs)
        # Inlined weighted_choice over p.uops_per_instr with cumulative
        # thresholds hoisted out of the per-instruction loop; the float
        # accumulation matches weighted_choice's exactly so the drawn
        # values (and the RNG stream) are unchanged.
        thresholds = self._body_thresholds
        if thresholds is None:
            total = sum(weight for _, weight in p.uops_per_instr)
            acc = 0.0
            pairs = []
            for item, weight in p.uops_per_instr:
                acc += weight
                pairs.append((acc, item))
            thresholds = (total, tuple(pairs), p.uops_per_instr[-1][0])
            self._body_thresholds = thresholds
        total, pairs, last = thresholds
        rnd = rng._materialize().random
        out: List[int] = []
        append = out.append
        for _ in range(count):
            point = rnd() * total
            for acc, item in pairs:
                if point < acc:
                    append(item)
                    break
            else:
                append(last)
        return out

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    def _layout(
        self,
        functions: List[FunctionSpec],
        specs: Dict[int, BasicBlockSpec],
        name: str,
        suite: str,
    ) -> Program:
        """Place specs at concrete addresses; lower blocks on demand."""
        rng = self._rng.fork(3)
        # Pass A: draw every instruction's shape, then fix every block's
        # address, its terminator IP and the static footprint.
        # The kind/size draws are inlined (weighted_choice and geometric
        # unrolled with the same float accumulation and draw order, so
        # the RNG stream is unchanged): this loop runs once per static
        # instruction and dominates layout time.
        rnd = rng._materialize().random
        alu, load, store = InstrKind.ALU, InstrKind.LOAD, InstrKind.STORE
        kind_total = sum(w for w in (0.55, 0.30, 0.15))
        t_alu = 0.0 + 0.55
        t_load = t_alu + 0.30
        size_inv = 1.0 / log(1.0 - 1.0 / (3.2 - 1 + 1.0))
        body_shapes: Dict[int, List[Tuple[InstrKind, int, int]]] = {}
        entry_ips: Dict[int, int] = {}
        block_owners: Dict[int, int] = {}
        cond_owners: Dict[int, int] = {}      # terminator IP -> bid
        indirect_owners: Dict[int, int] = {}  # terminator IP -> bid
        static_uops = 0
        cursor = 0x1000
        end_ip = cursor
        for fn in functions:
            for bid in fn.block_bids:
                spec = specs[bid]
                shapes = []
                append = shapes.append
                term_ip = cursor
                for uops in spec.body_uop_counts:
                    point = rnd() * kind_total
                    if point < t_alu:
                        kind = alu
                    elif point < t_load:
                        kind = load
                    else:
                        kind = store
                    size = 1 + int(log(1.0 - rnd()) * size_inv)
                    if size > 11:
                        size = 11
                    append((kind, uops, size))
                    term_ip += size
                body_shapes[bid] = shapes
                entry_ips[bid] = cursor
                block_owners[bid] = bid
                terminator = spec.terminator
                if terminator is TerminatorKind.COND:
                    cond_owners[term_ip] = bid
                elif terminator in _INDIRECT_TERMINATORS:
                    indirect_owners[term_ip] = bid
                term_size, term_uops = _TERMINATOR_SHAPE[terminator]
                static_uops += sum(spec.body_uop_counts) + term_uops
                cursor = end_ip = term_ip + term_size
            cursor += _MIN_FUNCTION_GAP + rng.geometric(
                self.profile.mean_function_gap_bytes, lo=0, hi=65536
            )

        # Pass B, on demand: a block's instructions, layout record and
        # behaviour are built the first time anything looks it up, since
        # a bounded trace executes a small fraction of a large program.
        # Every behaviour draws from its own fork of the seed and every
        # instruction depends only on pass-A data, so the order blocks
        # are lowered in cannot change the program.
        blocks: Dict[int, LayoutBlock] = {}
        cond_behaviors: Dict[int, BranchBehavior] = {}
        indirect_behaviors: Dict[int, IndirectBehavior] = {}
        trusted = Instruction.trusted

        def lower(bid: int) -> None:
            spec = specs[bid]
            ip = entry_ips[bid]
            body: List[Instruction] = []
            for kind, uops, size in body_shapes[bid]:
                body.append(trusted(ip, size, kind, uops))
                ip += size
            term = self._make_terminator(spec, ip, entry_ips)
            blocks[bid] = LayoutBlock(
                bid=bid,
                fid=spec.fid,
                entry_ip=entry_ips[bid],
                body=body,
                terminator=term,
                taken_bid=spec.taken_bid,
                fall_bid=spec.fall_bid,
                indirect_bids=list(spec.indirect_bids),
                terminator_kind=spec.terminator,
            )
            self._attach_behavior(
                spec, term, entry_ips, cond_behaviors, indirect_behaviors
            )

        entry_bid = functions[0].entry_bid
        return Program(
            image=None,
            blocks=LazyMapping(block_owners, blocks, lower),
            functions=functions,
            entry_bid=entry_bid,
            cond_behaviors=LazyMapping(cond_owners, cond_behaviors, lower),
            indirect_behaviors=LazyMapping(
                indirect_owners, indirect_behaviors, lower
            ),
            suite=suite,
            name=name,
            seed=self.seed,
            entry_ips=entry_ips,
            static_uops=static_uops,
            total_bytes=end_ip - entry_ips[entry_bid],
        )

    def _make_terminator(
        self,
        spec: BasicBlockSpec,
        ip: int,
        entry_ips: Dict[int, int],
    ) -> Instruction:
        size, uops = _TERMINATOR_SHAPE[spec.terminator]
        target: Optional[int] = None
        if spec.taken_bid is not None and spec.terminator in (
            TerminatorKind.COND, TerminatorKind.JUMP, TerminatorKind.CALL
        ):
            target = entry_ips[spec.taken_bid]
        return Instruction.trusted(
            ip, size, spec.terminator.instr_kind, uops, target
        )

    def _attach_behavior(
        self,
        spec: BasicBlockSpec,
        term: Instruction,
        entry_ips: Dict[int, int],
        cond_behaviors: Dict[int, BranchBehavior],
        indirect_behaviors: Dict[int, IndirectBehavior],
    ) -> None:
        p = self.profile
        if spec.terminator is TerminatorKind.COND:
            rng = self._rng.fork(10_000 + spec.bid)
            if spec.cond_class == "backedge":
                behavior: BranchBehavior = LoopBehavior(
                    mean_trip=rng.geometric(
                        p.mean_loop_trip, lo=3, hi=p.max_mean_trip
                    ),
                    rng=rng.fork(1),
                )
            elif spec.cond_class == "escape":
                # Loop breaks fire rarely: monotonic not-taken, the
                # classic promotion candidate of §3.8.
                behavior = BiasedBehavior(p.escape_rate, rng.fork(6))
            else:
                behavior = self._draw_cond_behavior(rng)
            cond_behaviors[term.ip] = behavior
        elif spec.terminator in _INDIRECT_TERMINATORS:
            rng = self._rng.fork(10_000 + spec.bid)
            indirect_behaviors[term.ip] = IndirectBehavior(
                targets=[entry_ips[b] for b in spec.indirect_bids],
                rng=rng.fork(2),
                skew=p.indirect_skew,
            )

    def _draw_cond_behavior(self, rng: DeterministicRng) -> BranchBehavior:
        p = self.profile
        kind = rng.weighted_choice(list(p.cond_mixture))
        if kind == "monotonic":
            p_taken = p.monotonic_bias if rng.random() < 0.5 else 1 - p.monotonic_bias
            return BiasedBehavior(p_taken, rng.fork(3))
        if kind == "biased":
            lo, hi = p.biased_range
            p_taken = lo + rng.random() * (hi - lo)
            if rng.random() < 0.5:
                p_taken = 1.0 - p_taken
            return BiasedBehavior(p_taken, rng.fork(4))
        if kind == "pattern":
            period = rng.randint(2, p.pattern_max_period)
            pattern = [rng.random() < 0.5 for _ in range(period)]
            if all(pattern) or not any(pattern):
                pattern[0] = not pattern[0]  # avoid degenerate all-same patterns
            return PatternBehavior(pattern)
        return BiasedBehavior(0.5, rng.fork(5))


def generate_program(
    profile: WorkloadProfile,
    seed: int,
    name: str = "",
    suite: str = "",
) -> Program:
    """Convenience wrapper: one call from profile+seed to laid-out program."""
    return ProgramGenerator(profile, seed).generate(name=name, suite=suite)
