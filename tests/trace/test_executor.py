"""Tests for the trace-driven executor."""

from dataclasses import replace

import pytest

from repro.common.errors import SimulationError
from repro.harness.registry import DEFAULT_LENGTH, registry_spec
from repro.isa.instruction import InstrKind
from repro.program.generator import generate_program
from repro.program.profiles import profile_by_name, profile_for_suite
from repro.trace.executor import TraceExecutor, execute_program


@pytest.fixture(scope="module")
def program():
    profile = replace(profile_for_suite("specint"), num_functions=12)
    return generate_program(profile, seed=21, name="exec-test", suite="specint")


class TestBudget:
    def test_budget_respected_with_block_slack(self, program):
        trace = execute_program(program, max_uops=5000)
        # May overshoot by at most one block (a block is < 100 uops).
        assert 5000 <= trace.total_uops < 5100

    def test_instruction_cap(self, program):
        trace = TraceExecutor(program).run(max_uops=10**9, max_instructions=500)
        assert 500 <= len(trace) < 560


class TestStreamConsistency:
    def test_next_ip_links_the_stream(self, program):
        trace = execute_program(program, max_uops=20_000)
        for current, following in zip(trace.records, trace.records[1:]):
            assert current.next_ip == following.ip

    def test_non_branches_fall_through(self, program):
        trace = execute_program(program, max_uops=20_000)
        for record in trace.records:
            if not record.instr.kind.is_branch:
                assert record.next_ip == record.instr.next_ip
                assert not record.taken

    def test_direct_branch_targets_honoured(self, program):
        trace = execute_program(program, max_uops=20_000)
        for record in trace.records:
            kind = record.instr.kind
            if kind in (InstrKind.JUMP, InstrKind.CALL):
                assert record.next_ip == record.instr.target
            if kind is InstrKind.COND_BRANCH:
                if record.taken:
                    assert record.next_ip == record.instr.target
                else:
                    assert record.next_ip == record.instr.next_ip

    def test_calls_and_returns_pair_like_a_stack(self, program):
        trace = execute_program(program, max_uops=30_000)
        stack = []
        for record in trace.records:
            kind = record.instr.kind
            if kind in (InstrKind.CALL, InstrKind.INDIRECT_CALL):
                stack.append(record.instr.next_ip)
            elif kind is InstrKind.RETURN:
                assert stack, "return without a matching call"
                assert record.next_ip == stack.pop()

    def test_all_records_are_real_instructions(self, program):
        trace = execute_program(program, max_uops=10_000)
        for record in trace.records:
            assert program.image.fetch(record.ip) is record.instr


class TestDeterminism:
    def test_same_program_same_trace(self, program):
        t1 = execute_program(program, max_uops=8000)
        t2 = execute_program(program, max_uops=8000)
        assert len(t1) == len(t2)
        assert all(
            a.ip == b.ip and a.taken == b.taken
            for a, b in zip(t1.records, t2.records)
        )

    def test_trace_metadata(self, program):
        trace = execute_program(program, max_uops=1000)
        assert trace.name == "exec-test"
        assert trace.suite == "specint"
        assert "exec-test" in trace.describe()


class TestErrorPaths:
    def test_return_with_empty_stack_raises(self, program):
        # Start execution at a block inside a non-main function: its RET
        # pops an empty stack.
        ret_block = None
        for fn in program.functions[1:]:
            ret_block = program.blocks[fn.block_bids[-1]]
            break
        assert ret_block is not None
        executor = TraceExecutor(program)
        broken = program.__class__(
            image=program.image,
            blocks=program.blocks,
            functions=program.functions,
            entry_bid=ret_block.bid,
            cond_behaviors=program.cond_behaviors,
            indirect_behaviors=program.indirect_behaviors,
        )
        with pytest.raises(SimulationError):
            TraceExecutor(broken).run(max_uops=10_000)


class TestInstructionCapBoundaries:
    """The max_instructions cap is exact, not block-granular."""

    def test_cap_is_exact(self, program):
        trace = TraceExecutor(program).run(
            max_uops=10**9, max_instructions=500
        )
        assert len(trace) == 500

    def test_cap_of_one(self, program):
        trace = TraceExecutor(program).run(
            max_uops=10**9, max_instructions=1
        )
        assert len(trace) == 1

    def test_capped_trace_is_prefix_of_uncapped(self, program):
        full = TraceExecutor(program).run(max_uops=20_000)
        n = len(full) // 2
        capped = TraceExecutor(program).run(
            max_uops=10**9, max_instructions=n
        )
        assert len(capped) == n
        assert capped.ips == full.ips[:n]
        assert capped.kinds == full.kinds[:n]
        assert capped.takens == full.takens[:n]
        assert capped.next_ips == full.next_ips[:n]
        assert capped.nuops == full.nuops[:n]

    def test_uop_budget_still_binds_with_loose_cap(self, program):
        trace = TraceExecutor(program).run(
            max_uops=5000, max_instructions=10**9
        )
        assert 5000 <= trace.total_uops < 5100

    def test_cap_at_the_budget_stop_changes_nothing(self, program):
        plain = TraceExecutor(program).run(max_uops=5000)
        capped = TraceExecutor(program).run(
            max_uops=5000, max_instructions=len(plain)
        )
        assert len(capped) == len(plain)
        assert capped.ips == plain.ips
        assert capped.total_uops == plain.total_uops


#: ``Trace.content_hash()`` of fixed traces, pinned so any change to the
#: executor's output shows up here.  Each case is (suite, registry index,
#: static-uop override, seed override, max_uops, max_instructions).
GOLDEN_TRACES = {
    "specint-0": (
        ("specint", 0, None, None, 20_000, None),
        "80c78ae58058136fa185598cc55eba91",
    ),
    "sysmark-0": (
        ("sysmark", 0, None, None, 20_000, None),
        "4c2f9be3255ebb486e1d588a7e6d22a3",
    ),
    "games-0": (
        ("games", 0, None, None, 20_000, None),
        "d1570c0eced4cba71ee650a80ae147d0",
    ),
    # Loop-heavy: the games trace of perfbench's seed-1 paper_figures
    # set, whose 12 blocks cover the whole trace.
    "games-loops": (
        ("games", 0, 4500, 1522111315, 20_000, None),
        "02451ae6b304536798bfe5d528a4bb8e",
    ),
    "server-web-30k": (
        ("server-web", 0, 30_000, 7005, 20_000, None),
        "13e733814dd32dba4ff7a146d1a2c3db",
    ),
    "sysmark-1-capped": (
        ("sysmark", 1, None, None, 10**9, 7777),
        "dba0b626ea7a385408bcaa3774cac4ae",
    ),
    "specint-2-default-length": (
        ("specint", 2, None, None, DEFAULT_LENGTH, None),
        "61ff3dab3d0f0c41230057c611caccc2",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TRACES))
def test_golden_trace_hash(case):
    (suite, index, static_uops, seed, max_uops, cap), expected = (
        GOLDEN_TRACES[case]
    )
    if static_uops is None:
        spec = registry_spec(suite, index)
        static_uops, seed = spec.static_uops, spec.seed
    program = generate_program(
        profile_by_name(suite).scaled(static_uops), seed=seed,
        name=f"{suite}-{index}", suite=suite,
    )
    trace = TraceExecutor(program).run(max_uops, max_instructions=cap)
    assert trace.content_hash() == expected
