#!/usr/bin/env python
"""Microbenchmark: packed predictor implementations vs their references.

The flat frontends inline the packed-array predictors, so their wins
show up only indirectly in whole-frontend timings; this script measures each
structure head-to-head on synthetic operation streams so a predictor
regression is visible in isolation.  For every structure it drives the
packed class and the reference class with the *same* pre-generated
stream and prints ops/second plus the speedup ratio.

Run from the repository root::

    python scripts/bench_predictors.py [--ops N] [--repeats N] [--json]

The streams deliberately mix hits, misses and capacity evictions
(addresses are drawn from pools a few times larger than each
structure) because that is the regime the frontends operate in.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.branch.btb import (  # noqa: E402
    BranchTargetBuffer,
    ReferenceBranchTargetBuffer,
)
from repro.branch.indirect import (  # noqa: E402
    IndirectPredictor,
    ReferenceIndirectPredictor,
)
from repro.branch.rsb import IntReturnStack, ReturnStackBuffer  # noqa: E402


def _time_best(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _btb_stream(rng, ops):
    pool = [rng.randrange(0x1000, 0x40000) & ~1 for _ in range(2048 * 3)]
    return [
        (rng.random() < 0.5, rng.choice(pool),
         rng.randrange(0x1000, 0x40000) & ~1)
        for _ in range(ops)
    ]


def _bench_btb(kind, stream):
    cls = BranchTargetBuffer if kind == "packed" else ReferenceBranchTargetBuffer
    def run():
        btb = cls(entries=2048, assoc=4)
        lookup = btb.lookup
        install = btb.install
        for is_lookup, ip, target in stream:
            if is_lookup:
                lookup(ip)
            else:
                install(ip, target)
    return run


def _indirect_stream(rng, ops):
    pool = [rng.randrange(0x1000, 0x40000) & ~1 for _ in range(96)]
    targets = [rng.randrange(0x1000, 0x40000) & ~1 for _ in range(8)]
    return [(rng.choice(pool), rng.choice(targets)) for _ in range(ops)]


def _bench_indirect(kind, stream):
    cls = IndirectPredictor if kind == "packed" else ReferenceIndirectPredictor
    def run():
        pred = cls(table_entries=1024, history_bits=8)
        update = pred.update
        for ip, target in stream:
            update(ip, target, target)
    return run


def _rsb_stream(rng, ops):
    return [
        (rng.random() < 0.5, rng.randrange(0x1000, 0x40000) & ~1)
        for _ in range(ops)
    ]


def _bench_rsb(kind, stream):
    cls = IntReturnStack if kind == "packed" else ReturnStackBuffer
    def run():
        rsb = cls(depth=16)
        push = rsb.push
        pop = rsb.pop
        for is_push, value in stream:
            if is_push:
                push(value)
            else:
                pop()
    return run


STRUCTURES = (
    ("btb", _btb_stream, _bench_btb),
    ("indirect", _indirect_stream, _bench_indirect),
    ("rsb", _rsb_stream, _bench_rsb),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=200_000,
                        help="operations per stream (default 200k)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default 3)")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable report")
    args = parser.parse_args(argv)

    report = {}
    for name, make_stream, make_bench in STRUCTURES:
        stream = make_stream(random.Random(1234), args.ops)
        row = {}
        for kind in ("packed", "reference"):
            seconds = _time_best(make_bench(kind, stream), args.repeats)
            row[kind] = round(args.ops / seconds, 1)
        row["speedup"] = round(row["packed"] / row["reference"], 2)
        report[name] = row

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"predictor microbench ({args.ops:,} ops, best of {args.repeats})")
    for name, row in report.items():
        print(
            f"  {name:<9} packed {row['packed']:>12,.0f} ops/s   "
            f"reference {row['reference']:>12,.0f} ops/s   "
            f"{row['speedup']:.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
