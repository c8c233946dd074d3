"""Trace-driven executor: walks a synthetic program's CFG.

The executor is the synthetic stand-in for the paper's trace collector:
it follows real control flow through the generated program — evaluating
each branch's behaviour model, maintaining a call stack for
call/return pairing — and emits the dynamic instruction stream the
frontend simulators replay.

It runs one basic block at a time and appends straight into the
trace's packed columns: each block's body is rendered once into
per-column array templates (replayed with six ``array.extend`` calls),
and only its terminator is resolved dynamically.  Only the blocks the
trace enters are looked up, so a lazily lowered program lowers those
and, at most, the successor of the final terminator.

Execution ends when the uop budget is reached (the synthetic ``main``
loops forever by construction, mirroring how the paper samples 30M
consecutive instructions out of longer executions).  The final block
is emitted whole, so the trace may overshoot ``max_uops`` by up to one
block; ``max_instructions``, in contrast, is enforced exactly — the
final block's columns are trimmed to the cap.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.isa.instruction import KIND_CODE
from repro.program.cfg import LayoutBlock, Program, TerminatorKind
from repro.trace.record import Trace

#: Hard cap on the executor's call stack; deeper than any generated
#: call graph, so hitting it means a generator bug (recursion).
_MAX_CALL_DEPTH = 128


class _BlockTemplate:
    """Precomputed columnar rendering of one block's body + terminator."""

    __slots__ = (
        "ips", "zeros", "next_ips", "kinds", "nuops", "snexts",
        "body_uops", "term_ip", "term_kind_code", "term_nuops",
        "term_snext", "total_len",
    )

    def __init__(self, block: LayoutBlock) -> None:
        self.ips = array("q")
        self.next_ips = array("q")
        self.kinds = array("b")
        self.nuops = array("b")
        self.snexts = array("q")
        kind_code = KIND_CODE
        uops = 0
        for instr in block.body:
            self.ips.append(instr.ip)
            self.next_ips.append(instr.next_ip)
            self.kinds.append(kind_code[instr.kind])
            self.nuops.append(instr.num_uops)
            self.snexts.append(instr.next_ip)
            uops += instr.num_uops
        self.zeros = array("b", bytes(len(self.ips)))
        self.body_uops = uops
        term = block.terminator
        self.term_ip = term.ip
        self.term_kind_code = kind_code[term.kind]
        self.term_nuops = term.num_uops
        self.term_snext = term.next_ip
        self.total_len = len(self.ips) + 1


class TraceExecutor:
    """Executes a program, producing a :class:`~repro.trace.record.Trace`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._templates: Dict[int, _BlockTemplate] = {}

    def run(self, max_uops: int, max_instructions: Optional[int] = None) -> Trace:
        """Execute from the program entry until *max_uops* are emitted.

        The final block is always emitted in full, so the trace may
        overshoot the uop budget by up to one block.  When
        *max_instructions* is given it is enforced exactly: the final
        block's columns are trimmed to the cap.
        """
        program = self.program
        if program.behaviors_dirty:
            program.reset_behaviors()
        program.behaviors_dirty = True
        ips = array("q")
        takens = array("b")
        next_ips = array("q")
        kinds = array("b")
        nuops = array("b")
        snexts = array("q")
        instr_table: Dict[int, object] = {}
        uops = 0
        count = 0
        instr_cap = max_instructions if max_instructions is not None else 2**62

        call_stack: List[int] = []  # bids execution resumes at after RET
        templates = self._templates
        execute_terminator = self._execute_terminator
        block = program.entry_block

        while uops < max_uops and count < instr_cap:
            template = templates.get(block.bid)
            if template is None:
                template = _BlockTemplate(block)
                templates[block.bid] = template
            if template.term_ip not in instr_table:
                # First visit this run: register the block's instructions
                # (templates outlive a run; the table does not).
                for instr in block.body:
                    instr_table[instr.ip] = instr
                instr_table[block.terminator.ip] = block.terminator

            # Body: straight columnar replay of the template.
            ips.extend(template.ips)
            takens.extend(template.zeros)
            next_ips.extend(template.next_ips)
            kinds.extend(template.kinds)
            nuops.extend(template.nuops)
            snexts.extend(template.snexts)
            uops += template.body_uops

            # Terminator: the only dynamic part.
            next_block, taken, next_ip = execute_terminator(block, call_stack)
            ips.append(template.term_ip)
            takens.append(1 if taken else 0)
            next_ips.append(next_ip)
            kinds.append(template.term_kind_code)
            nuops.append(template.term_nuops)
            snexts.append(template.term_snext)
            uops += template.term_nuops
            count += template.total_len

            if next_block is None:
                raise SimulationError(
                    f"execution fell off the program at block {block.bid} "
                    f"({block.terminator_kind.value} terminator)"
                )
            block = next_block

        if max_instructions is not None and len(ips) > max_instructions:
            # Exact instruction cap: trim the final block's overshoot.
            del ips[max_instructions:]
            del takens[max_instructions:]
            del next_ips[max_instructions:]
            del kinds[max_instructions:]
            del nuops[max_instructions:]
            del snexts[max_instructions:]

        return Trace.from_columns(
            ips, takens, next_ips, kinds, nuops, snexts, instr_table,
            name=program.name, suite=program.suite, seed=program.seed,
        )

    # ------------------------------------------------------------------

    def _execute_terminator(
        self,
        block: LayoutBlock,
        call_stack: List[int],
    ) -> Tuple[Optional[LayoutBlock], bool, int]:
        """Resolve the terminator; returns ``(next_block, taken, next_ip)``."""
        program = self.program
        kind = block.terminator_kind
        term = block.terminator

        if kind is TerminatorKind.COND:
            behavior = program.cond_behaviors[term.ip]
            taken = behavior.next_taken()
            bid = block.taken_bid if taken else block.fall_bid
            nxt = program.blocks[bid]
            return nxt, taken, nxt.entry_ip

        if kind is TerminatorKind.JUMP:
            nxt = program.blocks[block.taken_bid]
            return nxt, True, nxt.entry_ip

        if kind is TerminatorKind.CALL:
            if len(call_stack) >= _MAX_CALL_DEPTH:
                raise SimulationError("call stack overflow: recursive call graph?")
            call_stack.append(block.fall_bid)
            nxt = program.blocks[block.taken_bid]
            return nxt, True, nxt.entry_ip

        if kind is TerminatorKind.INDIRECT_CALL:
            if len(call_stack) >= _MAX_CALL_DEPTH:
                raise SimulationError("call stack overflow: recursive call graph?")
            behavior = program.indirect_behaviors[term.ip]
            target_ip = behavior.next_target()
            nxt = program.block_at_ip(target_ip)
            if nxt is None:
                raise SimulationError(
                    f"indirect call at {term.ip:#x} targets non-block {target_ip:#x}"
                )
            call_stack.append(block.fall_bid)
            return nxt, True, nxt.entry_ip

        if kind is TerminatorKind.INDIRECT:
            behavior = program.indirect_behaviors[term.ip]
            target_ip = behavior.next_target()
            nxt = program.block_at_ip(target_ip)
            if nxt is None:
                raise SimulationError(
                    f"indirect jump at {term.ip:#x} targets non-block {target_ip:#x}"
                )
            return nxt, True, nxt.entry_ip

        if kind is TerminatorKind.RET:
            if not call_stack:
                raise SimulationError(
                    f"return at {term.ip:#x} with an empty call stack"
                )
            bid = call_stack.pop()
            nxt = program.blocks[bid]
            return nxt, True, nxt.entry_ip

        raise SimulationError(f"unhandled terminator kind {kind}")


def execute_program(program: Program, max_uops: int) -> Trace:
    """Convenience wrapper: run *program* for *max_uops* uops."""
    return TraceExecutor(program).run(max_uops=max_uops)
