"""One cold batch of a batch workload, in a fresh process.

Usage: ``python3 perfbench/batch.py WORKLOAD SEED CACHE_DIR OUT [SPANS]
[--inject SPAN=FRACTION ...]``

Prints ``ready`` once the imports are done and the empty cache
directory exists, so the parent can time set-up.  Then it runs the
workload's job set cold (``ExecPolicy(workers=1, use_cache=True)``, the
default command's path) between two host-speed probes, runs the same
job set ``WARM_PASSES`` more times against the now warm cache (repeat
invocations of the same command), checks every output and writes a
JSON summary to OUT.  With SPANS it records layer spans over the cold
batch and writes them there.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from calibrate import probe
from checks import Simulated, digest, stats_problems
from tracing import ENTRY_POINTS, Tracer
import workloads

from repro.exec import ExecPolicy, ExecutionEngine, SimJob
from repro.harness import experiments, registry
from repro.harness.runner import FRONTEND_KINDS

#: Runs of the job set against the warm cache, for more warm samples.
WARM_PASSES = 3

#: Experiment modules whose ``execute_jobs`` the recorder observes.
EXPERIMENT_MODULES = ("fig1", "fig8", "fig9", "fig10", "ablations")


class Recorder:
    """``execute_jobs`` with an observer timing each job from outside.

    Same behaviour as :func:`repro.exec.execute_jobs` (a fresh engine
    per call).  A computed job's latency is the time since the previous
    engine event: inline, the previous job finished then.  A cache hit's
    latency is the time since the previous hit; the first hit of a call
    is not timed, as it would also carry the call's set-up.
    """

    def __init__(self) -> None:
        self.ops = []      # (op id, job, JobResult)
        self.latency = {"cold": [], "warm": []}

    def execute_jobs(self, jobs, policy=None, label=""):
        last = [time.perf_counter(), None]   # any event, last cache hit

        def observer(event):
            now = time.perf_counter()
            if event["event"] == "done":
                self.latency["cold"].append((now - last[0]) * 1000.0)
            elif event["event"] == "cached":
                if last[1] is not None:
                    self.latency["warm"].append((now - last[1]) * 1000.0)
                last[1] = now
            last[0] = now

        results = ExecutionEngine(policy).run(
            jobs, label=label, observer=observer
        )
        for index, result in enumerate(results):
            self.ops.append((f"{label}#{index}", result.job, result))
        return results

    def install(self):
        for name in EXPERIMENT_MODULES:
            module = getattr(experiments, name)
            module.execute_jobs = self.execute_jobs


def paper_figures(seed, policy, recorder, tracer):
    """The ``repro all`` job set over one trace per paper suite."""
    specs = workloads.paper_specs(seed)
    call = (lambda fn: tracer.wrap("experiments", fn)) if tracer else (
        lambda fn: fn)
    call(experiments.run_fig1)(specs, policy=policy)
    call(experiments.run_fig8)(specs, policy=policy)
    fig9 = call(experiments.run_fig9)(specs, policy=policy)
    call(experiments.run_fig10)(specs, policy=policy)
    call(experiments.run_claims)(specs, fig9=fig9)
    call(experiments.run_ablations)(specs, policy=policy)


def server_compare(seed, policy, recorder, tracer):
    """Every frontend over one trace per server profile, one budget."""
    jobs = [
        SimJob(frontend=kind, spec=spec, total_uops=workloads.SERVER_BUDGET)
        for spec in workloads.server_specs(seed)
        for kind in FRONTEND_KINDS
    ]
    recorder.execute_jobs(jobs, policy, label="server_compare")


WORKLOADS = {"paper_figures": paper_figures, "server_compare": server_compare}


def main(argv):
    injected = {}
    while "--inject" in argv:
        at = argv.index("--inject")
        name, fraction = argv[at + 1].split("=")
        injected[name] = float(fraction)
        del argv[at:at + 2]
    workload, seed, cache_dir, out = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    run = WORKLOADS[workload]
    seed = int(seed)
    os.makedirs(cache_dir)
    policy = ExecPolicy(workers=1, use_cache=True, cache_dir=cache_dir)
    print("ready", flush=True)

    tracer = None
    if spans_path or injected:
        tracer = Tracer(delays=injected)
        points = ENTRY_POINTS if spans_path else [
            entry for entry in ENTRY_POINTS if entry[3] in injected
        ]
        tracer.install(points)
    cold = Recorder()
    cold.install()
    probe_before = probe()
    start = time.perf_counter()
    run(seed, policy, cold, tracer)
    end = time.perf_counter()
    probes = [probe_before, probe()]
    if tracer:
        tracer.uninstall()

    problems = []
    digests = {}
    simulated = Simulated()
    sim_uops = 0
    for op, job, result in cold.ops:
        payload = job.encode_result(result.value)
        digests[op] = digest(payload)
        if isinstance(job, SimJob):
            simulated.add(payload)
            if not result.cached:
                sim_uops += payload["uops_from_ic"]
                sim_uops += payload["uops_from_structure"]
            total = registry.make_trace(job.spec).total_uops
            problems += [f"{op}: {p}" for p in stats_problems(payload, total)]

    # The same command again: every job is now a result-cache hit and
    # must return the payload the cold run produced.
    registry.clear_trace_cache()
    warm = Recorder()
    warm.install()
    for _ in range(WARM_PASSES):
        run(seed, policy, warm, None)
    for op, job, result in warm.ops:
        if not result.cached:
            problems.append(f"warm {op}: not served from the cache")
        if digest(job.encode_result(result.value)) != digests.get(op):
            problems.append(f"warm {op}: payload differs from cold run")

    summary = {
        "batch_s": end - start,
        "ops": len(cold.ops),
        "attempted": len(cold.ops) + len(warm.ops),
        "failed": len(problems),
        "problems": problems,
        "computed": sum(1 for _, _, r in cold.ops if not r.cached),
        "cache_hits": sum(1 for _, _, r in cold.ops if r.cached),
        "cold_ms": cold.latency["cold"],
        "warm_ms": warm.latency["warm"],
        "sim_uops": sim_uops,
        "digests": digests,
        "simulated": simulated.totals,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "window": [start, end],
        "probe_s": sum(probes) / len(probes),
    }
    with open(out, "w") as handle:
        json.dump(summary, handle)
    if spans_path:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
