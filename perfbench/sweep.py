"""One ``serve_sweep`` round: a fresh ``repro serve`` process and a
closed-loop client.

The server runs as its own process (default single engine) on an empty
cache directory.  Set-up lasts from spawning it until ``/healthz``
answers and the warm pool is computed.  Then ``SERVE_CLIENTS`` threads
each send their next request only after the previous reply arrived,
and every request's latency is kept.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

from calibrate import probe
from checks import Simulated, digest, stats_problems
from tracing import CLIENT_ENTRY_POINTS, Tracer
import workloads

from repro.harness.registry import (
    clear_trace_cache, make_trace, registry_spec,
)
from repro.serve.client import ServeClient, ServeError, ServeUnavailable

HERE = os.path.dirname(os.path.abspath(__file__))


def _url(log_path: str, proc, deadline: float) -> str:
    """Wait for the server's ``listening on`` line; return its URL."""
    marker = "listening on "
    while time.perf_counter() < deadline:
        with open(log_path) as handle:
            for line in handle:
                if marker in line:
                    return line.split(marker, 1)[1].split()[0]
        if proc.poll() is not None:
            break
        time.sleep(0.005)
    raise RuntimeError("repro serve did not start")


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


class _Round:
    """What the client threads record; guarded by :attr:`lock`."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latency = {"warm": [], "cold": []}   # ms
        self.hop_share = []                       # cold requests
        self.problems = []
        self.failed = 0
        self.digests = {}
        self.totals = {}                          # trace -> uops seen
        self.sim_uops = 0
        self.retries = 0
        self.simulated = Simulated()

    def check(self, kind: str, request: dict, document: dict) -> bool:
        """Record problems in one terminal job document; True if none."""
        name = digest(request)
        if document.get("status") != "done" or "result" not in document:
            self.problems.append(f"{name}: status {document.get('status')}"
                                 f" {document.get('error', '')}")
            self.failed += 1
            return False
        stats = document["result"]
        problems = stats_problems(stats)
        # Uop conservation is checked against the traces once the round
        # is over, so the client computes nothing while it is timed.
        trace = (request["suite"], request["index"], request["length"])
        self.totals.setdefault(trace, set()).add(
            stats["uops_from_ic"] + stats["uops_from_structure"]
        )
        if kind == "cold" and document.get("cached"):
            problems.append("cold request answered from the result cache")
        payload = digest(stats)
        if self.digests.setdefault(name, payload) != payload:
            problems.append("repeat of a request returned another result")
        if problems:
            self.problems += [f"{name}: {p}" for p in problems]
            self.failed += 1
        return not problems


def _submit(client: ServeClient, request: dict, state: _Round) -> str:
    """Submit, retrying refusals (429) after the server's hint."""
    for _ in range(10):
        try:
            return client.submit(request)["job_id"]
        except ServeError as exc:
            if exc.status != 429:
                raise
            with state.lock:
                state.retries += 1
            time.sleep(exc.retry_after or 0.05)
    raise ServeError(429, "still refused after 10 tries")


def _drive(client: ServeClient, stream, state: _Round, cursor, tracer):
    """One closed-loop client thread: next request after each reply."""
    while True:
        with state.lock:
            index = next(cursor, None)
        if index is None:
            return
        kind, request = stream[index]
        if tracer:
            tracer.request(str(index))
        sent = time.perf_counter()
        try:
            document = client.wait(_submit(client, request, state))
        except (ServeError, ServeUnavailable) as exc:
            with state.lock:
                state.failed += 1
                state.problems.append(f"request {index}: {exc}")
            continue
        elapsed = time.perf_counter() - sent
        with state.lock:
            state.latency[kind].append(elapsed * 1000.0)
            if state.check(kind, request, document) and kind == "cold":
                stats = document["result"]
                state.hop_share.append(
                    1.0 - document["wall_ms"] / (elapsed * 1000.0)
                )
                state.sim_uops += (stats["uops_from_ic"]
                                   + stats["uops_from_structure"])
                state.simulated.add(stats)


def run_round(seed: int, scratch: str, spans_path=None, inject=None,
              env=None, check_uops=True) -> dict:
    """Start a server, seed the warm pool, drive the stream, stop it.

    With *spans_path* the server and the client record layer spans;
    *inject* maps span names to injected slowdowns.  Every point on one
    trace must report the same uop count; with *check_uops* the client
    also regenerates the traces after the server has stopped, to check
    that count against the trace exactly.
    """
    warm_pool, stream = workloads.serve_requests(seed)
    state = _Round()
    serve_args = ["serve", "--port", "0",
                  "--cache-dir", os.path.join(scratch, "cache")]
    if spans_path or inject:
        options = []
        for name, fraction in (inject or {}).items():
            options += ["--inject", f"{name}={fraction}"]
        command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                   spans_path or "-", *options, "--", *serve_args]
    else:
        command = [sys.executable, "-m", "repro", *serve_args]
    log_path = os.path.join(scratch, "serve.log")
    start = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                stderr=log, env=env)
    tracer = Tracer() if spans_path else None
    try:
        client = ServeClient(_url(log_path, proc, start + 60), timeout=120)
        while not client.is_up():
            time.sleep(0.005)
        pool_ids = [_submit(client, request, state) for request in warm_pool]
        for request, job_id in zip(warm_pool, pool_ids):
            state.check("warm", request, client.wait(job_id))
        setup = time.perf_counter() - start
        before = client.metrics()

        if tracer:
            tracer.install(CLIENT_ENTRY_POINTS)
        cursor = iter(range(len(stream)))
        probes = [probe()]
        threads = [
            threading.Thread(target=_drive, args=(
                ServeClient(client.base_url, timeout=120), stream, state,
                cursor, tracer))
            for _ in range(workloads.SERVE_CLIENTS)
        ]
        stream_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stream_end = time.perf_counter()
        probes.append(probe())
        if tracer:
            tracer.uninstall()
        after = client.metrics()
        rss_mb = _peak_rss_mb(proc.pid)
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        state.problems.append(f"repro serve exited with {proc.returncode}")
        state.failed += 1

    def delta(section, field):
        return after[section][field] - before[section][field]

    n_cold = sum(1 for kind, _ in stream if kind == "cold")
    if delta("engine", "executed") != n_cold:
        state.problems.append(f"server computed {delta('engine', 'executed')}"
                              f" jobs for {n_cold} cold requests")
        state.failed += 1
    for (suite, index, length), supplied in state.totals.items():
        spec = registry_spec(suite, index, length)
        if check_uops:
            supplied = supplied | {make_trace(spec).total_uops}
        if len(supplied) != 1:
            state.problems.append(f"{spec.name}@{length}: uops supplied "
                                  f"{sorted(supplied)} disagree")
            state.failed += 1
    clear_trace_cache()
    return {
        "setup_s": setup,
        "batch_s": stream_end - stream_start,
        "window": [stream_start, stream_end],
        "probe_s": sum(probes) / len(probes),
        "ops": len(stream),
        "attempted": len(stream) + len(warm_pool),
        "failed": state.failed,
        "problems": state.problems,
        "warm_ms": state.latency["warm"],
        "cold_ms": state.latency["cold"],
        "sim_uops": state.sim_uops,
        "digests": state.digests,
        "simulated": state.simulated.totals,
        "rss_mb": rss_mb,
        "computed": delta("engine", "executed"),
        "cache_hits": delta("engine", "cache_hits"),
        "client_spans": tracer.spans if tracer else [],
        "serve": {
            "submitted": delta("jobs", "submitted"),
            "coalesced": delta("jobs", "coalesced"),
            "memoized": delta("jobs", "memoized"),
            "rejected": delta("jobs", "rejected"),
            "runs": delta("engine", "runs"),
            "busy_seconds": delta("engine", "busy_seconds"),
            "hop_share": state.hop_share,
            "retries": state.retries,
        },
    }
