"""Regenerate ``digests.json``: the pinned outputs of the default seed.

Usage: ``python3 perfbench/pin.py`` from the root of a checkout.

Batch workloads pin the digest of every job's encoded result, as one
cold batch per input set produces it.  ``serve_sweep`` pins, per
request, the digest of the inline oracle ``SimJob.execute()`` that
every served response must equal.  Re-pin only when a change is meant
to alter simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from checks import digest  # noqa: E402
from workloads import DEFAULT_SEED, sub_seed  # noqa: E402


def batch_digests(workload, seed):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        out = os.path.join(scratch, "out.json")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "batch.py"), workload,
             str(seed), os.path.join(scratch, "cache"), out],
            check=True, env=env, stdout=subprocess.DEVNULL,
        )
        with open(out) as handle:
            summary = json.load(handle)
    if summary["problems"]:
        raise SystemExit(f"{workload}: {summary['problems'][:3]}")
    return summary["digests"]


def serve_digests(seed):
    from repro.serve.protocol import parse_job

    warm_pool, stream = workloads.serve_requests(seed)
    pinned = {}
    for request in warm_pool + [request for _, request in stream]:
        name = digest(request)
        if name not in pinned:
            job = parse_job(request)
            pinned[name] = digest(job.encode_result(job.execute()))
    return pinned


def main():
    pinned = {}
    for workload, n_sets in workloads.INPUT_SETS.items():
        pinned[workload] = {}
        for input_set in range(n_sets):
            seed = sub_seed(DEFAULT_SEED, input_set)
            if workload == "serve_sweep":
                digests = serve_digests(seed)
            else:
                digests = batch_digests(workload, seed)
            pinned[workload][str(input_set)] = digests
            print(f"{workload} set {input_set}: {len(digests)} digests")
    with open(os.path.join(HERE, "digests.json"), "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
