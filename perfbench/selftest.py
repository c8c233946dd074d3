"""Sensitivity self-test: does the benchmark catch a slowed layer?

Usage: ``python3 perfbench/selftest.py [--seeds 1 2 3] [--seconds S]``

For each case, a busy-wait is injected into one layer's span from the
benchmark side (``run.py --inject``), adding the given fraction of the
layer's own time.  Runs with and without the injection alternate, one
pair per seed.  The end-to-end comparison applies the rule of
``BENCHMARK.json``: a metric is flagged when the injected median is
worse than the clean median by more than its bound.  A traced run of
each side then names the layer whose self time grew most.  The test
passes when every expected metric is flagged, every metric predicted
not to change stays within its bound, and the traced run names the
injected layer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (layer, fraction, {workload: (metrics expected flagged,
#:                               metrics predicted unchanged)})
CASES = [
    ("frontend.xbc", 0.5, {
        "paper_figures": (["batch_s", "sim_uops_per_s"], ["setup_s"]),
        "serve_sweep": ([], ["warm_p50_ms", "warm_tail_ms"]),
    }),
    ("program.gen", 0.5, {
        "server_compare": (["batch_s"], ["setup_s"]),
        "paper_figures": ([], ["batch_s", "sim_uops_per_s"]),
    }),
]

#: Per-layer time metric of each injectable span.
LAYER_METRIC = {"frontend.xbc": "frontend.xbc.s",
                "program.gen": "program.gen_s"}


def run(workload, seed, seconds, trace=0, inject=None):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed checks")
    return result["metrics"]


def worse(metric, clean, injected):
    """Relative change of the injected median in the worse direction."""
    change = (injected - clean) / clean
    return -change if metric["better"] == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    passed = True
    for layer, fraction, workloads in CASES:
        inject = f"{layer}={fraction}"
        print(f"== inject {inject}")
        for workload, (flagged, unchanged) in workloads.items():
            clean, slow = [], []
            for n, seed in enumerate(args.seeds):
                sides = [(clean, None), (slow, inject)]
                for values, option in sides[::1 if n % 2 == 0 else -1]:
                    values.append(run(workload, seed, seconds, inject=option))
            for name in flagged + unchanged:
                change = worse(
                    metrics[name],
                    statistics.median(v[name]["value"] for v in clean),
                    statistics.median(v[name]["value"] for v in slow),
                )
                hit = change > metrics[name]["bound"]
                ok = hit if name in flagged else not hit
                passed &= ok
                print(f"  {workload:15s} {name:15s} worse by {change:+.3f}"
                      f" (bound {metrics[name]['bound']}) "
                      f"{'flagged' if hit else 'within'}"
                      f" -> {'ok' if ok else 'FAIL'}")
            if flagged:
                base = run(workload, args.seeds[0], seconds, trace=1)
                traced = run(workload, args.seeds[0], seconds, trace=1,
                             inject=inject)
                grown = {
                    name: traced[name]["value"] - metric["value"]
                    for name, metric in base.items() if metric["unit"] == "s"
                }
                named = max(grown, key=grown.get)
                ok = named == LAYER_METRIC[layer]
                passed &= ok
                print(f"  {workload:15s} traced run: largest self-time "
                      f"growth in {named} ({grown[named]:+.3f} s) "
                      f"-> {'ok' if ok else 'FAIL'}")
    print("self-test", "passed" if passed else "FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
