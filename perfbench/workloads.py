"""Inputs of each workload, derived from the benchmark seed.

Everything here is a pure function of the seed: the trace specs of the
two batch workloads and the request stream of ``serve_sweep``.  The
program only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Tuple

#: Seed whose outputs are pinned in ``digests.json``.
DEFAULT_SEED = 1

#: Distinct input sets one run cycles through.  A run repeats each
#: set, so every run also checks that a repeat reproduces its outputs.
INPUT_SETS = {"paper_figures": 6, "server_compare": 3, "serve_sweep": 2}

#: Pinned trace lengths (uops).
PAPER_LENGTH = 20_000
SERVER_LENGTH = 10_000
SERVER_BUDGET = 8192

#: serve_sweep round: this many warm repeats of the pool, then every
#: cold point (traces x frontends x budgets) once.
SERVE_WARM_REQUESTS = 480
SERVE_COLD_TRACES = 6     # paper-suite traces the cold points share
SERVE_COLD_LENGTH = 12_000
SERVE_WARM_LENGTH = 6_000
SERVE_BUDGETS = (2048, 4096, 8192, 16384)   # the fig9 sweep
#: Registry indexes requests draw from.  The registry's footprint grows
#: with the index (0.75x base at 0, 13x at 63), so a narrow range keeps
#: the cost of a round from depending on the seed.
SERVE_INDEXES = range(4)
SERVE_CLIENTS = 2


def sub_seed(seed: int, input_set: int) -> int:
    """A 31-bit seed for one input set of a run."""
    digest = hashlib.sha256(f"{seed}:{input_set}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def paper_specs(seed: int):
    """One trace per paper suite: registry footprint, seeded program."""
    from repro.harness.registry import TraceSpec, registry_spec
    from repro.program.profiles import SUITE_NAMES

    specs = []
    for ordinal, suite in enumerate(SUITE_NAMES):
        base = registry_spec(suite, 0, PAPER_LENGTH)
        specs.append(TraceSpec(
            suite=suite, index=0, seed=sub_seed(seed, 100 + ordinal),
            static_uops=base.static_uops, length_uops=PAPER_LENGTH,
        ))
    return specs


def server_specs(seed: int):
    """One trace per server profile at its native footprint."""
    from repro.harness.registry import TraceSpec, scenario_spec
    from repro.program.profiles import SERVER_NAMES

    specs = []
    for ordinal, name in enumerate(SERVER_NAMES):
        base = scenario_spec(name, 0, SERVER_LENGTH)
        specs.append(TraceSpec(
            suite=name, index=0, seed=sub_seed(seed, 200 + ordinal),
            static_uops=base.static_uops, length_uops=SERVER_LENGTH,
        ))
    return specs


def serve_requests(seed: int) -> Tuple[List[Dict], List[Tuple[str, Dict]]]:
    """``(warm pool, stream)`` of one ``serve_sweep`` round.

    The warm pool is submitted during set-up.  The stream holds warm
    repeats of the pool, then cold points that are unique within the
    round: frontend in {tc, xbc} x the fig9 budgets, over a few
    paper-suite traces.  Stream items are ``("warm"|"cold", request)``.
    """
    from repro.program.profiles import SUITE_NAMES

    rng = random.Random(seed)
    warm_pool = [
        {"kind": "sim", "frontend": frontend, "suite": suite,
         "index": index, "length": SERVE_WARM_LENGTH, "total_uops": budget}
        for suite, index in (("games", rng.choice(SERVE_INDEXES)),
                             ("specint", rng.choice(SERVE_INDEXES)))
        for frontend, budget in (("tc", 4096), ("xbc", 4096), ("xbc", 8192))
    ]
    # The same suite mix in every round: two traces per suite.
    per_suite = SERVE_COLD_TRACES // len(SUITE_NAMES)
    traces = [(suite, index) for suite in SUITE_NAMES
              for index in rng.sample(SERVE_INDEXES, per_suite)]
    cold_points = [
        {"kind": "sim", "frontend": frontend, "suite": suite,
         "index": index, "length": SERVE_COLD_LENGTH, "total_uops": budget}
        for suite, index in traces
        for frontend in ("tc", "xbc")
        for budget in SERVE_BUDGETS
    ]
    rng.shuffle(cold_points)
    # Warm phase first, then the cold phase.  Mixed, a warm request's
    # latency depended on whether it overlapped a cold job holding the
    # interpreter lock, and its p50 and p99 swung by 30-100 % between
    # seeds.
    warm = [("warm", rng.choice(warm_pool))
            for _ in range(SERVE_WARM_REQUESTS)]
    return warm_pool, warm + [("cold", point) for point in cold_points]
