"""The serve-side job scheduler.

One :class:`Scheduler` sits between the HTTP layer and the execution
engine and provides the three properties a long-running shared
simulation service needs:

- **single-flight coalescing** — submissions are keyed by the engine's
  content-addressed job key (:func:`repro.exec.engine.job_key`), so N
  concurrent requests for the same job point attach to one in-flight
  computation and one engine run; terminal entries additionally answer
  repeat submissions from memory (the engine's persistent cache backs
  this across restarts);
- **batching** — queued jobs are gathered (up to ``batch_max`` within
  ``batch_window`` seconds) into one engine run so they share the
  engine's worker pool and per-run overheads;
- **backpressure + drain** — the intake queue is bounded; a full
  queue rejects with :class:`Backpressure` (HTTP 429), and
  :meth:`drain` stops intake, lets the in-flight batch finish,
  cancels queued entries and persists their requests to a resubmit
  manifest.

Everything here runs on the event loop; the engine runs on a worker
thread via :meth:`ExecutionEngine.run_async` (fanning cold misses out
to ``policy.workers`` processes) and observer events are trampolined
back with ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.exec.engine import ExecPolicy, ExecutionEngine, job_key
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import job_request

#: Queue sentinel that tells the run loop to exit after its batch.
_SENTINEL = object()


class Backpressure(ReproError):
    """The intake queue is full (HTTP 429)."""

    def __init__(self, retry_after: int) -> None:
        super().__init__(
            f"queue full; retry in ~{retry_after}s"
        )
        self.retry_after = retry_after


class Draining(ReproError):
    """The service is shutting down and accepts no new work (HTTP 503)."""


class JobEntry:
    """One logical job: shared by every submission with its key."""

    def __init__(self, key: str, job: Any,
                 request: Optional[Dict[str, Any]] = None) -> None:
        self.key = key
        self.job = job
        self.request = request
        self.status = "queued"   #: queued | running | done | failed | cancelled
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        #: monotonic twins of the wall-clock stamps above: the epoch
        #: fields are API-visible timestamps, but durations (wall_ms,
        #: job latency) must not jump when the wall clock is stepped.
        self._mono_created = time.monotonic()
        self._mono_started: Optional[float] = None
        self._mono_finished: Optional[float] = None
        self.payload: Any = None     #: encoded result once done
        self.error = ""
        self.cached = False          #: served by the engine result cache
        self.attempts = 0
        self.submissions = 1         #: total submissions coalesced here
        self.done_event = asyncio.Event()
        self.subscribers: List[asyncio.Queue] = []
        self.history: List[Dict[str, Any]] = []

    @property
    def terminal(self) -> bool:
        """Whether the entry reached a final state."""
        return self.status in ("done", "failed", "cancelled")

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        """The ``GET /jobs/<id>`` document."""
        wall_ms = None
        if self._mono_started is not None and self._mono_finished is not None:
            wall_ms = round(
                (self._mono_finished - self._mono_started) * 1000.0, 3
            )
        payload: Dict[str, Any] = {
            "job_id": self.key,
            "status": self.status,
            "params": self.job.describe(),
            "submissions": self.submissions,
            "cached": self.cached,
            "attempts": self.attempts,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "wall_ms": wall_ms,
        }
        if self.error:
            payload["error"] = self.error
        if include_result and self.status == "done":
            payload["result"] = self.payload
        return payload


class Scheduler:
    """Coalescing, batching, bounded-queue job scheduler (see module)."""

    def __init__(
        self,
        policy: Optional[ExecPolicy] = None,
        queue_size: int = 64,
        batch_max: int = 8,
        batch_window: float = 0.05,
        metrics: Optional[ServiceMetrics] = None,
        history_limit: int = 512,
    ) -> None:
        self.policy = policy or ExecPolicy()
        self.queue_size = queue_size
        self.batch_max = max(1, batch_max)
        self.batch_window = batch_window
        self.metrics = metrics or ServiceMetrics()
        self.history_limit = history_limit
        self.draining = False
        self._entries: Dict[str, JobEntry] = {}
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self._inflight = 0
        self._seq = 0
        self._runner: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the run loop (must be called with a running loop)."""
        if self._runner is not None:
            return
        self._runner = asyncio.get_running_loop().create_task(
            self._run_loop(), name="repro-serve-scheduler"
        )

    async def drain(
        self, manifest_dir: Optional[str] = None
    ) -> Dict[str, Any]:
        """Stop intake, finish in-flight work, persist queued requests.

        Returns a summary dict; when *manifest_dir* is given and jobs
        had to be cancelled, their request payloads are written to
        ``resubmit-<timestamp>.json`` there so a restarted server (or
        ``repro submit``) can replay them.
        """
        self.draining = True
        cancelled: List[JobEntry] = []
        while True:
            try:
                entry = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if entry is not _SENTINEL:
                cancelled.append(entry)
        for entry in cancelled:
            entry.status = "cancelled"
            entry.finished = time.time()
            entry._mono_finished = time.monotonic()
            entry.error = "cancelled by server drain"
            self.metrics.jobs_cancelled += 1
            self._publish(entry, {"event": "cancelled"})
            entry.done_event.set()
        await self._queue.put(_SENTINEL)
        if self._runner is not None:
            await self._runner
            self._runner = None
        manifest_path = None
        requests = [
            entry.request or job_request(entry.job)
            for entry in cancelled
        ]
        requests = [request for request in requests if request is not None]
        if manifest_dir and requests:
            manifest_path = self._write_resubmit(manifest_dir, requests)
        return {
            "cancelled": len(cancelled),
            "resubmit_manifest": manifest_path,
            "requests": requests,
        }

    def _write_resubmit(self, directory: str, requests: List[dict]) -> str:
        os.makedirs(directory, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = os.path.join(
            directory, f"resubmit-{stamp}-{os.getpid()}.json"
        )
        document = {
            "kind": "repro-serve-resubmit",
            "written": time.time(),
            "jobs": requests,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    # ------------------------------------------------------------------
    # submission surface
    # ------------------------------------------------------------------

    def submit(
        self, job: Any, request: Optional[Dict[str, Any]] = None
    ) -> Tuple[JobEntry, str]:
        """Register one submission; returns ``(entry, disposition)``.

        Disposition is ``"new"`` (queued a fresh entry), ``"coalesced"``
        (attached to an identical in-flight entry) or ``"memoized"``
        (an identical entry already finished; its result stands, since
        jobs are deterministic functions of their key).
        """
        key = job_key(job)
        if key is None:
            self._seq += 1
            key = f"adhoc-{self._seq:06d}"
        entry = self._entries.get(key)
        if entry is not None:
            if not entry.terminal:
                entry.submissions += 1
                self.metrics.jobs_coalesced += 1
                return entry, "coalesced"
            if entry.status == "done":
                entry.submissions += 1
                self.metrics.jobs_memoized += 1
                return entry, "memoized"
            # failed/cancelled terminal entries may be resubmitted.
        if self.draining:
            raise Draining("server is draining; submit again later")
        entry = JobEntry(key, job, request)
        try:
            self._queue.put_nowait(entry)
        except asyncio.QueueFull:
            self.metrics.jobs_rejected += 1
            raise Backpressure(self.retry_after_hint()) from None
        self._entries[key] = entry
        self._trim_entries()
        self.metrics.jobs_submitted += 1
        self._publish(entry, {"event": "queued"})
        return entry, "new"

    def entry(self, key: str) -> Optional[JobEntry]:
        """Look up one entry by job id."""
        return self._entries.get(key)

    def entries(self) -> List[JobEntry]:
        """All known entries, oldest first."""
        return list(self._entries.values())

    @property
    def queue_depth(self) -> int:
        """Jobs accepted but not yet handed to the engine."""
        return self._queue.qsize()

    @property
    def inflight(self) -> int:
        """Jobs inside the currently-running engine batch."""
        return self._inflight

    def retry_after_hint(self) -> int:
        """A 429 ``Retry-After`` estimate from observed job latency."""
        mean = self.metrics.job_latency.mean() or 1.0
        backlog = self.queue_depth + self.inflight
        workers = max(1, self.policy.workers)
        return max(1, min(60, math.ceil(mean * backlog / workers)))

    # ------------------------------------------------------------------
    # event streaming
    # ------------------------------------------------------------------

    def subscribe(self, entry: JobEntry) -> asyncio.Queue:
        """Event queue for *entry*: history replay, then live events.

        A ``None`` item marks the end of the stream (entry terminal).
        """
        queue: asyncio.Queue = asyncio.Queue()
        for event in entry.history:
            queue.put_nowait(event)
        if entry.terminal:
            queue.put_nowait(None)
        else:
            entry.subscribers.append(queue)
        return queue

    def unsubscribe(self, entry: JobEntry, queue: asyncio.Queue) -> None:
        """Detach an event queue (no-op if already gone)."""
        try:
            entry.subscribers.remove(queue)
        except ValueError:
            pass

    def _publish(self, entry: JobEntry, event: Dict[str, Any]) -> None:
        payload = {
            "job_id": entry.key,
            "status": entry.status,
            "ts": round(time.time(), 6),
        }
        payload.update(event)
        entry.history.append(payload)
        for queue in entry.subscribers:
            queue.put_nowait(payload)
        if entry.terminal:
            for queue in entry.subscribers:
                queue.put_nowait(None)
            entry.subscribers.clear()

    def _trim_entries(self) -> None:
        """Bound the entry map: drop oldest terminal entries."""
        excess = len(self._entries) - self.history_limit
        if excess <= 0:
            return
        for key in [
            key for key, entry in self._entries.items() if entry.terminal
        ][:excess]:
            del self._entries[key]

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    async def _run_loop(self) -> None:
        loop = asyncio.get_running_loop()
        queue = self._queue
        while True:
            entry = await queue.get()
            if entry is _SENTINEL:
                return
            batch = [entry]
            deadline = loop.time() + self.batch_window
            stop_after = False
            while len(batch) < self.batch_max:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    extra = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if extra is _SENTINEL:
                    stop_after = True
                    break
                batch.append(extra)
            await self._execute_batch(batch)
            if stop_after:
                return

    async def _execute_batch(self, batch: List[JobEntry]) -> None:
        loop = asyncio.get_running_loop()

        def observer(event: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(self._on_engine_event, batch, event)

        self._inflight = len(batch)
        self.metrics.engine_runs += 1
        for entry in batch:
            entry.status = "running"
            entry.started = time.time()
            entry._mono_started = time.monotonic()
            self._publish(entry, {"event": "running"})
        batch_start = time.perf_counter()
        try:
            results = await ExecutionEngine(self.policy).run_async(
                [entry.job for entry in batch],
                label="serve",
                observer=observer,
                strict=False,
            )
            payloads = [
                entry.job.encode_result(result.value) if result.ok else None
                for entry, result in zip(batch, results)
            ]
        except Exception as exc:  # engine invariant failure, not a job error
            for entry in batch:
                self._finish(entry, error=f"{type(exc).__name__}: {exc}")
            self._inflight = 0
            return
        self.metrics.batch_latency.record(time.perf_counter() - batch_start)
        for entry, result, payload in zip(batch, results, payloads):
            if result.ok:
                self._finish(
                    entry,
                    payload=payload,
                    cached=result.cached,
                    attempts=result.attempts,
                )
            else:
                entry.attempts = result.attempts
                self._finish(entry, error=result.error)
        self._inflight = 0

    def _on_engine_event(
        self, batch: List[JobEntry], event: Dict[str, Any]
    ) -> None:
        """Engine observer events, now on the loop thread."""
        index = event.get("index", -1)
        if not 0 <= index < len(batch):
            return
        entry = batch[index]
        name = event.get("event")
        if name == "cached":
            self.metrics.engine_cache_hits += 1
            self._publish(entry, {"event": "cache-hit"})
        elif name == "running":
            entry.attempts = event.get("attempt", entry.attempts)
            self._publish(
                entry,
                {"event": "attempt", "attempt": event.get("attempt", 1)},
            )
        elif name == "done":
            self.metrics.engine_executed += 1
            wall = float(event.get("wall") or 0.0)
            self.metrics.busy_seconds += wall
            spec = getattr(entry.job, "spec", None)
            if spec is not None:
                self.metrics.uops_delivered += spec.length_uops
            self._publish(
                entry,
                {"event": "computed", "wall": round(wall, 6),
                 "attempt": event.get("attempt", 1)},
            )
        elif name == "failed":
            self._publish(
                entry,
                {"event": "attempt-failed",
                 "attempt": event.get("attempt", 1),
                 "error": event.get("error", ""),
                 "final": bool(event.get("final"))},
            )

    def _finish(
        self, entry: JobEntry,
        payload: Any = None, error: str = "",
        cached: bool = False, attempts: int = 0,
    ) -> None:
        """Mark *entry* terminal with an already-encoded *payload*."""
        entry.finished = time.time()
        entry._mono_finished = time.monotonic()
        if error:
            entry.status = "failed"
            entry.error = error
            self.metrics.jobs_failed += 1
            self._publish(entry, {"event": "failed", "error": error})
        else:
            entry.status = "done"
            entry.cached = cached
            entry.attempts = attempts
            entry.payload = payload
            self.metrics.jobs_completed += 1
            self.metrics.job_latency.record(
                entry._mono_finished - entry._mono_created
            )
            self._publish(
                entry, {"event": "done", "cached": entry.cached}
            )
        entry.done_event.set()
