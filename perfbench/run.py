"""The repository benchmark: three workloads, timed from outside.

Usage::

    python3 perfbench/run.py --workload WORKLOAD [--seed N] [--seconds S]
        [--trace 0|1] [--inject SPAN=FRACTION]

WORKLOAD is paper_figures, server_compare or serve_sweep.

Run from the root of a checkout.  A run repeats cold units of work --
batches in fresh processes, or rounds against a fresh ``repro serve``
-- until ``--seconds`` is spent, cycling through the seed's input sets.
It prints every metric to stderr and, as its last stdout line, one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  ``--inject`` busy-waits inside one layer's span for the
given fraction of its duration (used by ``selftest.py``).  See
``METRICS.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import calibrate
import tracing
import workloads
from checks import Simulated, compare
from workloads import DEFAULT_SEED, sub_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Tail percentile per workload and latency kind: the highest that keeps
#: at least ten samples beyond it at the sample count a run reaches
#: (METRICS.md lists the counts).
TAILS = {
    "paper_figures": {"warm": 95, "cold": 95},
    "server_compare": {"warm": 92, "cold": 83},
    "serve_sweep": {"warm": 98, "cold": 95},
}

FRONTENDS = ("ic", "dc", "tc", "xbc", "bbtc")


def percentile(values, pct):
    """Exact percentile, linear between closest ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def run_batch(args, work, env, seed, trace):
    """One cold batch of a batch workload in a fresh process."""
    command = [sys.executable, os.path.join(HERE, "batch.py"),
               args.workload, str(seed), os.path.join(work, "cache"),
               os.path.join(work, "out.json")]
    if trace:
        command.append(os.path.join(work, "spans.json"))
    for item in args.inject:
        command += ["--inject", item]
    began = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - began
        proc.stdout.read()
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"batch process exited with {proc.returncode}")
    with open(os.path.join(work, "out.json")) as handle:
        unit = json.load(handle)
    unit["setup_s"] = setup
    if trace:
        with open(os.path.join(work, "spans.json")) as handle:
            unit["spans"] = json.load(handle)
    return unit


def run_round(args, work, env, seed, trace, first):
    """One ``serve_sweep`` round against a fresh server."""
    import sweep  # imports the program's serve client

    inject = dict(item.split("=") for item in args.inject)
    spans = os.path.join(work, "spans.json") if trace else None
    unit = sweep.run_round(seed, work, spans_path=spans, inject=inject,
                           env=env, check_uops=first)
    if trace:
        with open(spans) as handle:
            unit["spans"] = json.load(handle)
    return unit


def repeat(args, scratch, env):
    """Run units until the time is spent; returns ``(units, outcome)``.

    Every input set runs at least once, and a traced run alternates
    traced and untraced units, so it has at least one of each.
    """
    n_sets = workloads.INPUT_SETS[args.workload]
    pinned = None
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json")) as handle:
            pinned = json.load(handle)[args.workload]
    seen = {}
    outcome = {"attempted": 0, "failed": 0, "problems": []}
    units = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        input_set = index % n_sets
        trace = bool(args.trace) and index % 2 == 0
        work = os.path.join(scratch, str(index))
        os.makedirs(work)
        seed = sub_seed(args.seed, input_set)
        began = time.perf_counter()
        try:
            if args.workload == "serve_sweep":
                unit = run_round(args, work, env, seed, trace, index == 0)
            else:
                unit = run_batch(args, work, env, seed, trace)
        except Exception:  # one broken unit must not lose the others
            traceback.print_exc()
            unit = None
        took = time.perf_counter() - began
        shutil.rmtree(work)
        if unit is None:
            outcome["attempted"] += 1
            outcome["failed"] += 1
            outcome["problems"].append(f"unit {index} failed")
        else:
            unit.update(input_set=input_set, traced=trace)
            units.append(unit)
            print(f"unit {index} set {input_set}{' traced' if trace else ''}"
                  f": setup {unit['setup_s']:.3f} s, batch "
                  f"{unit['batch_s']:.3f} s, probe {unit['probe_s']:.4f} s, "
                  f"total {took:.1f} s",
                  file=sys.stderr)
            outcome["attempted"] += unit["attempted"]
            outcome["failed"] += unit["failed"]
            outcome["problems"] += unit["problems"][:5]
            # Pinned digests for the default seed; otherwise a repeat of
            # an input set must reproduce the first one exactly.
            key = str(input_set)
            expected = (pinned or seen).get(key)
            seen.setdefault(key, unit["digests"])
            if expected is not None:
                bad = compare(expected, unit["digests"])
                outcome["failed"] += len(bad)
                outcome["problems"] += [f"set {key}: {p}" for p in bad[:5]]
        index += 1
        if index < max(n_sets, 2 if args.trace else 1):
            continue
        if time.perf_counter() + took > deadline:
            break
    needed = {True, False} if args.trace else {False}
    if not needed <= {unit["traced"] for unit in units}:
        raise SystemExit("too few units completed; see the problems above")
    return units, outcome


def end_to_end(workload, units, out):
    """Medians over the run's units; latency quantiles over all samples.

    Times are rescaled to the reference host speed with each unit's own
    probe (see ``calibrate.py``); peak RSS is not a time and stays raw.
    The raw medians go to stderr.
    """
    def scale(unit):
        return calibrate.REFERENCE_S / unit["probe_s"]

    def median(field, power=1):
        """Median of ``field * scale ** power`` (-1 for rates, 0 raw)."""
        return statistics.median(
            field(unit) * scale(unit) ** power for unit in units
        )

    out["setup_s"] = (median(lambda u: u["setup_s"]), "s")
    out["batch_s"] = (median(lambda u: u["batch_s"]), "s")
    out["sim_uops_per_s"] = (
        median(lambda u: u["sim_uops"] / u["batch_s"], -1), "uops/s")
    out["peak_rss_mb"] = (median(lambda u: u["rss_mb"], 0), "MB")
    out["req_per_s"] = (median(lambda u: u["ops"] / u["batch_s"], -1), "1/s")
    for kind in ("warm", "cold"):
        values = [v * scale(unit) for unit in units
                  for v in unit[f"{kind}_ms"]]
        pct = TAILS[workload][kind]
        beyond = len(values) * (100 - pct) / 100.0
        if beyond < 10:
            print(f"warning: {kind} p{pct} has {beyond:.0f} samples beyond "
                  f"it ({len(values)} total)", file=sys.stderr)
        out[f"{kind}_p50_ms"] = (percentile(values, 50), "ms")
        out[f"{kind}_tail_ms"] = (percentile(values, pct), "ms")
    print(f"raw: setup_s {median(lambda u: u['setup_s'], 0):.4f}, "
          f"batch_s {median(lambda u: u['batch_s'], 0):.4f}, "
          f"probe_s {median(lambda u: u['probe_s'], 0):.5f} "
          f"(reference {calibrate.REFERENCE_S})", file=sys.stderr)


def per_layer(traced, untraced, out):
    """Per-layer metrics from the spans of the traced units.

    Seconds are self time per unit; shares are self time over the
    summed traced ``batch_s``.
    """
    totals = {}
    for unit in traced:
        for name, row in tracing.summarize(unit["spans"],
                                           unit["window"]).items():
            mine = totals.setdefault(name, dict.fromkeys(row, 0))
            for field, value in row.items():
                mine[field] += value
    batch_total = sum(unit["batch_s"] for unit in traced)

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    def seconds(name):
        return get(name, "self") / len(traced)

    def rate(name):
        busy = get(name, "self")
        return get(name, "work") / busy if busy else 0.0

    def share(name):
        return 100.0 * get(name, "self") / batch_total

    for kind in ("xbc", "tc"):
        out[f"frontend.{kind}.s"] = (seconds(f"frontend.{kind}"), "s")
        out[f"frontend.{kind}.uops_per_s"] = (
            rate(f"frontend.{kind}"), "uops/s")
    for kind in ("ic", "dc", "bbtc"):
        out[f"frontend.{kind}.share"] = (share(f"frontend.{kind}"), "%")
        out[f"frontend.{kind}.uops_per_s"] = (
            rate(f"frontend.{kind}"), "uops/s")
    out["xbseq.s"] = (seconds("xbseq"), "s")
    out["xbseq.calls_per_trace"] = (
        get("xbseq", "calls") / max(1, get("program.gen", "calls")), "count")
    out["program.gen_s"] = (seconds("program.gen"), "s")
    out["program.static_uops_per_s"] = (rate("program.gen"), "uops/s")
    out["trace.exec_s"] = (seconds("trace.exec"), "s")
    out["trace.blockstats.share"] = (share("trace.blockstats"), "%")
    out["exec.encode_s"] = (seconds("exec.encode"), "s")
    out["exec.cache_put_s"] = (seconds("exec.cache_put"), "s")
    out["exec.cache_get_s"] = (seconds("exec.cache_get"), "s")
    out["exec.trace_store_s"] = (seconds("exec.trace_store"), "s")
    out["exec.engine_self_s"] = (seconds("exec.engine"), "s")
    # A make_trace call that generates no program found its trace cached.
    out["registry.trace_hit_ratio"] = (
        1.0 - get("program.gen", "calls")
        / max(1, get("registry.make_trace", "calls")), "ratio")
    out["experiments.self.share"] = (share("experiments"), "%")
    # Serve rounds measure coverage by the client's submit/wait spans,
    # since the server's spans cover only the time it computes.
    covered = sum(
        tracing.covered(unit.get("client_spans", unit["spans"]),
                        unit["window"])
        for unit in traced
    )
    out["tracing.coverage"] = (covered / batch_total, "ratio")
    out["tracing.overhead_frac"] = (
        statistics.median(unit["batch_s"] for unit in traced)
        / statistics.median(unit["batch_s"] for unit in untraced) - 1.0,
        "ratio")


def simulated_and_serve(units, out):
    """Simulated-frontend totals, cache ratios and serve counters.

    Simulated totals take the first unit of each input set, so they are
    exact for a seed whatever the number of units.
    """
    first = {}
    for unit in units:
        first.setdefault(unit["input_set"], unit)
    simulated = Simulated()
    for unit in first.values():
        simulated.merge(unit["simulated"])
    out.update(simulated.metrics(FRONTENDS))
    computed = sum(unit["computed"] for unit in units)
    hits = sum(unit["cache_hits"] for unit in units)
    out["exec.cache_hit_ratio"] = (hits / (computed + hits), "ratio")
    serve = [unit["serve"] for unit in units if "serve" in unit]
    if not serve:
        out["serve.memoized_ratio"] = (0.0, "ratio")
        for name in ("serve.busy_share", "serve.hop_share"):
            out[name] = (0.0, "%")
        for name in ("serve.batches", "serve.rejected",
                     "serve.client_retries"):
            out[name] = (0, "count")
        return
    submissions = sum(s["submitted"] + s["coalesced"] + s["memoized"]
                      for s in serve)
    out["serve.memoized_ratio"] = (
        sum(s["memoized"] for s in serve) / submissions, "ratio")
    out["serve.busy_share"] = (100.0 * statistics.median(
        s["busy_seconds"] / unit["batch_s"]
        for unit, s in zip(units, serve)), "%")
    out["serve.hop_share"] = (100.0 * statistics.median(
        v for s in serve for v in s["hop_share"]), "%")
    out["serve.batches"] = (
        statistics.median(s["runs"] for s in serve), "count")
    out["serve.rejected"] = (sum(s["rejected"] for s in serve), "count")
    out["serve.client_retries"] = (
        sum(s["retries"] for s in serve), "count")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.INPUT_SETS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", action="append", default=[],
                        metavar="SPAN=FRACTION")
    args = parser.parse_args(argv)
    # Exit through the ``finally`` blocks, which stop child processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    # Nothing the program runs may fall back to the user's cache.
    env["REPRO_CACHE_DIR"] = os.path.join(scratch, "default-cache")
    try:
        units, outcome = repeat(args, scratch, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = {}
    untraced = [unit for unit in units if not unit["traced"]]
    if args.trace:
        per_layer([unit for unit in units if unit["traced"]], untraced, out)
        simulated_and_serve(units, out)
    else:
        end_to_end(args.workload, untraced, out)
    for problem in outcome["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in out.items():
        print(f"{name:34s} {value:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.items()},
    }))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.exit(main())
