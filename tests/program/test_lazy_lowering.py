"""On-demand lowering builds the same program as lowering everything.

The generator fixes every address up front and lowers a block (its
instructions, layout record and behaviour) the first time it is looked
up.  These tests pin both halves of that contract: lowering order never
changes the program or its traces, and looking a program over or
running a short trace lowers only what it touches.
"""

import pytest

from repro.common.rng import DeterministicRng
from repro.harness.registry import registry_spec, scenario_spec
from repro.isa.instruction import KIND_ENDS_BB
from repro.program.generator import generate_program
from repro.program.profiles import SUITE_NAMES, profile_by_name
from repro.scenario.space import ParameterSpace
from repro.trace.executor import execute_program

LENGTH = 12_000
SERVER_UOPS = 30_000
SERVER_LENGTH = 10_000

#: The paper suites, a server profile scaled down, and fuzzer points
#: sampled from the default parameter space (3.6k-31k static uops).
CASES = [*SUITE_NAMES, "server-web-30k", "space-1", "space-3", "space-5"]


def _program(case):
    if case in SUITE_NAMES:
        spec = registry_spec(case, 0, LENGTH)
        profile = profile_by_name(case).scaled(spec.static_uops)
        seed = spec.seed
    elif case == "server-web-30k":
        profile, seed = profile_by_name("server-web").scaled(SERVER_UOPS), 7005
    else:
        space = ParameterSpace.default()
        sample_seed = int(case.split("-")[1])
        built, static_uops = space.build(
            space.sample(DeterministicRng(sample_seed))
        )
        profile, seed = built.scaled(static_uops), 100 + sample_seed
    return generate_program(profile, seed=seed, name=case)


def _lower_all(program, order):
    bids = list(program.blocks)
    for bid in (reversed(bids) if order == "reverse" else bids):
        program.blocks[bid]
    assert len(program.blocks.built) == program.num_blocks
    return program


def _trace_key(trace):
    columns = tuple(
        bytes(col) for col in (
            trace.ips, trace.takens, trace.next_ips,
            trace.kinds, trace.nuops, trace.snexts,
        )
    )
    return columns, dict(trace.instr_table)


def _behavior_params(behavior):
    """A behaviour's type and fields, with each RNG stream as its seed."""
    return type(behavior).__name__, {
        name: value.seed if isinstance(value, DeterministicRng) else value
        for name, value in vars(behavior).items()
    }


@pytest.mark.parametrize("case", CASES)
class TestLoweringOrder:
    def test_trace_matches_fully_lowered_program(self, case):
        fresh = execute_program(_program(case), LENGTH)
        for order in ("forward", "reverse"):
            lowered = _lower_all(_program(case), order)
            assert _trace_key(execute_program(lowered, LENGTH)) == (
                _trace_key(fresh)
            ), order

    def test_blocks_and_behaviours_match_across_orders(self, case):
        forward = _lower_all(_program(case), "forward")
        reverse = _lower_all(_program(case), "reverse")
        assert dict(forward.blocks) == dict(reverse.blocks)
        for attr in ("cond_behaviors", "indirect_behaviors"):
            a, b = getattr(forward, attr), getattr(reverse, attr)
            assert list(a) == list(b)
            assert [_behavior_params(x) for x in a.values()] == [
                _behavior_params(x) for x in b.values()
            ]

    def test_footprint_from_layout_matches_image(self, case):
        program = _program(case)
        static_uops, total_bytes = program.static_uops, program.total_bytes
        assert static_uops == program.image.total_uops
        assert total_bytes == program.image.total_bytes
        assert len(program.image) == sum(
            len(block.instructions) for block in program.blocks.values()
        )


def _built_counts(program):
    return (
        len(program.blocks.built),
        len(program.cond_behaviors.built),
        len(program.indirect_behaviors.built),
    )


def _native_server():
    """server-web at its native footprint, where lowering on demand pays."""
    spec = scenario_spec("server-web", 0, SERVER_LENGTH)
    profile = profile_by_name("server-web").scaled(spec.static_uops)
    return generate_program(profile, seed=spec.seed, name=spec.name)


class TestLaziness:
    """Counted, not timed: what each access lowers."""

    def test_inspection_and_lookup_lower_only_what_they_return(self):
        program = _native_server()
        assert _built_counts(program) == (0, 0, 0)
        assert program.static_uops > 200_000
        assert "server-web-0" in program.describe()
        assert program.num_blocks == len(program.blocks) > 10_000
        assert next(iter(program.blocks)) in program.blocks
        assert next(iter(program.cond_behaviors)) in program.cond_behaviors
        assert program.block_at_ip(0) is None
        program.reset_behaviors()
        assert _built_counts(program) == (0, 0, 0)

        entry = program.entry_block  # main's first block: a direct call
        callee = program.block_at_ip(entry.terminator.target)
        assert callee.bid == entry.taken_bid
        assert list(program.blocks.built) == [entry.bid, callee.bid]
        term_ip = list(program.cond_behaviors)[-1]
        behavior = program.cond_behaviors[term_ip]
        assert program.cond_behaviors.built[term_ip] is behavior
        assert len(program.blocks.built) == 3

    @pytest.mark.parametrize("case", [*SUITE_NAMES, "server-web-30k"])
    def test_trace_lowers_only_the_blocks_it_enters(self, case):
        program = _program(case)
        trace = execute_program(program, LENGTH)
        ends = [
            i for i, code in enumerate(trace.kinds) if KIND_ENDS_BB[code]
        ]
        assert ends[-1] == len(trace) - 1
        entered = {trace.ips[0]} | {trace.next_ips[i] for i in ends[:-1]}
        lowered = {block.entry_ip for block in program.blocks.built.values()}
        # Resolving the final terminator may look up its successor.
        assert lowered - entered <= {trace.next_ips[-1]}
        assert entered <= lowered

    def test_short_trace_lowers_few_blocks(self):
        program = _native_server()
        first = _trace_key(execute_program(program, SERVER_LENGTH))
        lowered = len(program.blocks.built)
        assert 0 < lowered < 0.05 * program.num_blocks
        # A rerun resets the behaviours created so far and lowers no more.
        assert _trace_key(execute_program(program, SERVER_LENGTH)) == first
        assert len(program.blocks.built) == lowered
