"""The resilient synthesis server (``repro.serve.server``).

``repro serve`` turns the batch engine's per-instance machinery into a
long-lived asyncio HTTP/JSON service.  The HTTP surface is small; the
robustness envelope is the product:

- **admission control** — a bounded queue with per-client caps
  (:mod:`.admission`); overload is shed *immediately* with a 429 and a
  ``Retry-After`` hint instead of queued into unbounded latency;
- **fair scheduling** — accepted requests dispatch round-robin across
  clients (:mod:`.scheduler`), so one flood cannot starve others;
- **degrade, not fail** — each request runs under its own
  :class:`~repro.runtime.budget.Budget` deadline through the budgeted
  covering chain (the configured exact engine, the other one, then
  greedy); the response reports the
  :class:`~repro.runtime.report.DegradationReport` quality;
- **fault containment** — solves run in the self-healing
  :class:`~repro.runtime.pool.WorkerPool`: a dead worker rebuilds the
  pool and re-dispatches, a twice-lost request is solved in-process;
  a watchdog kills workers stuck past their request's deadline; an
  accepted request always terminates in an ok/degraded/failed record;
- **progress streaming** — ``"stream": true`` responses are chunked
  JSON lines: lifecycle events, live incumbents tailed from the
  request's checkpoint journal, and final :mod:`repro.obs` metrics;
- **one warm cache** — every pool worker (and the in-process fallback
  lane) shares one :class:`~repro.core.cache.PersistentCache`
  directory, so repeat traffic over a library is served warm;
- **graceful drain** — SIGTERM/SIGINT stops admission (503 +
  ``Retry-After``), finishes or fails-out in-flight work within a
  grace period, flushes every record, and joins all workers: no lost
  requests, no orphaned processes.

Determinism note: served results are byte-identical (via
:func:`repro.batch.stable_result_dict`) to solo ``synthesize`` runs of
the same instance and options — concurrency, pool recoveries and
caching change *when* an answer arrives, never *what* it is.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import shutil
import signal
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple

from ..batch.runner import _instance_sha
from ..batch.scheduler import solve_one
from ..batch.stream import ResultStream
from ..core.cache import PersistentCache, persistent_cache
from ..core.synthesis import SynthesisOptions
from ..runtime.faults import FaultInjector, FaultSpec
from ..runtime.pool import WorkerLost, WorkerPool
from ..runtime.records import decode_line
from .admission import AdmissionController, AdmissionPolicy
from .protocol import (
    HttpRequest,
    ProtocolError,
    STREAM_END,
    SubmitRequest,
    event_bytes,
    parse_submit,
    read_request,
    response_bytes,
    retry_after_headers,
    stream_header_bytes,
)
from .scheduler import FairScheduler

__all__ = ["ServeConfig", "ServerStats", "SynthesisServer", "ServerThread", "serve_forever"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything one server process needs to know."""

    host: str = "127.0.0.1"
    #: 0 = pick an ephemeral port (read it back from ``server.port``).
    port: int = 8349
    #: pool worker processes == concurrent solves.
    workers: int = 2
    #: admission: global bound on queued (not yet running) requests.
    queue_limit: int = 64
    #: admission: per-client bound (None = the global bound).
    queue_limit_per_client: Optional[int] = None
    #: budget applied to requests that do not send ``deadline_s``.
    default_deadline_s: Optional[float] = None
    #: hard cap on any client-requested deadline.
    max_deadline_s: Optional[float] = None
    #: shared persistent cache directory (None = uncached).
    cache_dir: Optional[str] = None
    #: append every served record (CRC-tagged JSON line) here.
    results_path: Optional[str] = None
    #: scratch directory for spooled instances/journals (None = mkdtemp).
    spool_dir: Optional[str] = None
    #: seconds granted to in-flight + queued work after SIGTERM/SIGINT
    #: before the server fails the remainder out and stops.
    drain_grace_s: float = 30.0
    #: watchdog scan cadence.
    watchdog_interval_s: float = 0.25
    #: a pool solve running this long past its deadline is stuck: the
    #: watchdog kills the workers and the request is re-dispatched.
    stuck_grace_s: float = 5.0
    #: watchdog bound for deadline-less requests (None = unbounded).
    max_solve_s: Optional[float] = None
    #: cadence of streamed progress events.
    stream_interval_s: float = 0.25
    #: request body size limit.
    max_body_bytes: int = 8 * 1024 * 1024
    #: per-connection header+body read timeout.
    io_timeout_s: float = 30.0
    #: deterministic chaos: FaultSpec plan installed in every pool
    #: worker (timeout/error/stall fire inside solves) and consulted at
    #: the parent-side ``serve.dispatch`` site (worker_crash poisons
    #: the dispatched solve, killing that worker mid-request).
    fault_plan: Tuple[FaultSpec, ...] = ()
    fault_seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        for name in ("default_deadline_s", "max_deadline_s", "max_solve_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None, got {value}")
        if self.drain_grace_s < 0 or self.stuck_grace_s < 0:
            raise ValueError("drain_grace_s and stuck_grace_s must be nonnegative")
        if self.watchdog_interval_s <= 0 or self.stream_interval_s <= 0:
            raise ValueError("watchdog_interval_s and stream_interval_s must be positive")


@dataclass
class ServerStats:
    """Aggregate lifetime counters (memory-bounded: no per-request rows)."""

    accepted: int = 0
    completed: int = 0
    ok: int = 0
    degraded: int = 0
    failed: int = 0
    streamed: int = 0
    #: submissions refused while draining (503).
    rejected_draining: int = 0
    #: pool rebuild + re-dispatch episodes (dead or killed workers).
    worker_recoveries: int = 0
    #: watchdog interventions (stuck worker kills).
    watchdog_kills: int = 0
    #: twice-lost requests served by the in-process fallback lane.
    inprocess_solves: int = 0
    #: summed per-record persistent-cache deltas across all requests.
    cache: Dict[str, int] = field(default_factory=dict)

    def absorb_record(self, record: Dict[str, Any]) -> None:
        self.completed += 1
        status = record.get("status")
        if status == "ok":
            self.ok += 1
        elif status == "degraded":
            self.degraded += 1
        else:
            self.failed += 1
        for key, value in (record.get("cache") or {}).items():
            self.cache[key] = self.cache.get(key, 0) + value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "accepted": self.accepted,
            "completed": self.completed,
            "ok": self.ok,
            "degraded": self.degraded,
            "failed": self.failed,
            "streamed": self.streamed,
            "rejected_draining": self.rejected_draining,
            "worker_recoveries": self.worker_recoveries,
            "watchdog_kills": self.watchdog_kills,
            "inprocess_solves": self.inprocess_solves,
            "cache": dict(self.cache),
        }


@dataclass
class _Request:
    """One accepted submission, from spool to record."""

    id: str
    submit: SubmitRequest
    path: Path
    journal_path: Optional[Path]
    sha: str
    options: SynthesisOptions
    deadline_s: Optional[float]
    done: "asyncio.Future[Dict[str, Any]]"
    accepted_at: float
    phase: str = "queued"  # queued | running | done
    lane: str = "pool"  # pool | inproc
    attempts: int = 0
    recoveries: int = 0
    started_at: Optional[float] = None
    attempt_started_at: Optional[float] = None

    @property
    def name(self) -> str:
        return self.submit.name or self.id


def _install_faults(fault_specs: Tuple[FaultSpec, ...], fault_seed: int) -> None:
    """Pool-worker initializer for chaos runs: a fault injector active
    for the worker's whole life."""
    FaultInjector(list(fault_specs), seed=fault_seed).__enter__()


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------


class SynthesisServer:
    """Long-lived synthesis-as-a-service over the batch machinery."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.stats = ServerStats()
        self.admission = AdmissionController(
            policy=AdmissionPolicy(
                max_queue=self.config.queue_limit,
                max_queue_per_client=self.config.queue_limit_per_client,
            ),
            workers=self.config.workers,
        )
        self.scheduler: FairScheduler[_Request] = FairScheduler()
        self.port: Optional[int] = None
        self._ids = itertools.count(1)
        self._running: Dict[str, _Request] = {}
        cfg = self.config
        self._pool = WorkerPool(
            cfg.workers, solve_one, site="serve.dispatch", cache_dir=cfg.cache_dir,
            initializer=_install_faults if cfg.fault_plan else None,
            initargs=(tuple(cfg.fault_plan), cfg.fault_seed),
        )
        self._inproc: Optional[ThreadPoolExecutor] = None
        self._parent_store: Optional[PersistentCache] = None
        self._results_stream: Optional[ResultStream] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: List[asyncio.Task] = []
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._dispatch_wakeup: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None
        self._draining = False
        self._abandoning = False
        self._spool: Optional[Path] = None
        self._own_spool = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the dispatcher/watchdog tasks."""
        cfg = self.config
        if cfg.spool_dir is not None:
            self._spool = Path(cfg.spool_dir).expanduser()
            self._spool.mkdir(parents=True, exist_ok=True)
        else:
            self._spool = Path(tempfile.mkdtemp(prefix="repro-serve-"))
            self._own_spool = True
        if cfg.cache_dir:
            self._parent_store = PersistentCache(cfg.cache_dir)
        if cfg.results_path:
            # resume=True heals a torn tail, so the next record starts clean
            self._results_stream = ResultStream(cfg.results_path, resume=True)
        self._dispatch_wakeup = asyncio.Event()
        self._drained = asyncio.Event()
        self._pool.warm()  # spawn the workers before the first request
        self._server = await asyncio.start_server(self._on_connection, cfg.host, cfg.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._tasks = [
            asyncio.create_task(self._dispatch_loop(), name="serve-dispatch"),
            asyncio.create_task(self._watchdog_loop(), name="serve-watchdog"),
        ]

    async def serve_forever(self) -> None:
        """Run until drained (signal or :meth:`begin_drain`), then clean up."""
        assert self._drained is not None, "call start() first"
        loop = asyncio.get_running_loop()
        installed: List[int] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain)
                installed.append(signum)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread or platform without signal support
        try:
            await self._drained.wait()
        finally:
            for signum in installed:
                with contextlib.suppress(Exception):
                    loop.remove_signal_handler(signum)
            await self._cleanup()

    def begin_drain(self) -> None:
        """Stop admitting; finish (or, past the grace, fail out) the rest.

        Idempotent and safe to call from a signal handler on the loop.
        """
        if self._draining:
            return
        self._draining = True
        self._tasks.append(asyncio.create_task(self._drain_grace_watch(), name="serve-drain"))
        self._maybe_finish_drain()

    async def _drain_grace_watch(self) -> None:
        await asyncio.sleep(self.config.drain_grace_s)
        if self._drained is not None and self._drained.is_set():
            return
        # grace exhausted: nothing may block shutdown any longer.  Every
        # still-queued or in-flight request terminates in a failed
        # record (accepted requests are never silently dropped).
        self._abandoning = True
        for _client, request in self.scheduler.drain():
            self.admission.release(request.submit.client)
            self._finish(request, self._abandon_record(request, "queued"))
        self._pool.kill_workers()
        self._maybe_finish_drain()

    def _maybe_finish_drain(self) -> None:
        if (
            self._draining
            and self._drained is not None
            and not self._drained.is_set()
            and len(self.scheduler) == 0
            and not self._running
        ):
            self._drained.set()

    async def _cleanup(self) -> None:
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        # let in-flight responses flush, then cut stragglers
        if self._conn_tasks:
            done, pending = await asyncio.wait(list(self._conn_tasks), timeout=5.0)
            for task in pending:
                task.cancel()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        # wait=True joins every worker: no orphan processes survive
        self._pool.shutdown(wait=True)
        if self._inproc is not None:
            self._inproc.shutdown(wait=True)
            self._inproc = None
        if self._results_stream is not None:
            self._results_stream.close()
            self._results_stream = None
        if self._parent_store is not None:
            self._parent_store.close()
            self._parent_store = None
        if self._own_spool and self._spool is not None:
            shutil.rmtree(self._spool, ignore_errors=True)

    # ------------------------------------------------------------------
    # in-process lane
    # ------------------------------------------------------------------
    def _ensure_inproc(self) -> ThreadPoolExecutor:
        # one thread: in-process solves share the parent cache handle,
        # which is not thread-safe — serialization is the safety proof
        if self._inproc is None:
            self._inproc = ThreadPoolExecutor(max_workers=1, thread_name_prefix="serve-inproc")
        return self._inproc

    def _inproc_solve(self, request: _Request, trace: bool) -> Dict[str, Any]:
        with persistent_cache(self._parent_store):
            return solve_one(
                request.name, str(request.path), request.options,
                request.deadline_s, request.sha, trace,
            )

    # ------------------------------------------------------------------
    # dispatch / solve
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        if self._dispatch_wakeup is not None:
            self._dispatch_wakeup.set()

    async def _dispatch_loop(self) -> None:
        assert self._dispatch_wakeup is not None
        while True:
            await self._dispatch_wakeup.wait()
            self._dispatch_wakeup.clear()
            while len(self._running) < self.config.workers:
                request = self.scheduler.pop()
                if request is None:
                    break
                self.admission.release(request.submit.client)
                self._running[request.id] = request
                asyncio.create_task(self._run_request(request), name=f"serve-{request.id}")

    async def _run_request(self, request: _Request) -> None:
        loop = asyncio.get_running_loop()
        request.phase = "running"
        request.started_at = time.monotonic()
        trace = request.submit.trace or request.submit.stream
        record: Optional[Dict[str, Any]] = None
        try:
            if not self._abandoning:
                record = await self._pool_solve(request, trace)
            if record is None and not self._abandoning:
                # twice-lost request: the one lane a worker cannot kill
                self.stats.inprocess_solves += 1
                request.lane = "inproc"
                request.attempts += 1
                request.attempt_started_at = time.monotonic()
                record = await loop.run_in_executor(
                    self._ensure_inproc(), partial(self._inproc_solve, request, trace)
                )
        except Exception as exc:  # noqa: BLE001 - a record is owed, no matter what
            record = {
                "name": request.name, "sha": request.sha, "status": "failed",
                "error": f"{type(exc).__name__}: {exc}", "elapsed_s": 0.0,
            }
        if record is None:
            record = self._abandon_record(request, "running")
        self._finish(request, record)

    async def _pool_solve(self, request: _Request, trace: bool) -> Optional[Dict[str, Any]]:
        """Await the request's pool solve; ``None`` when it was lost
        twice (the pool hands it back) or the drain grace ran out."""
        pool = self._pool
        request.attempts = 1
        request.attempt_started_at = time.monotonic()
        pool.submit(
            request.id, request.name, str(request.path), request.options,
            request.deadline_s, request.sha, trace,
        )
        try:
            while True:
                future = pool.future(request.id)
                try:
                    return await asyncio.wrap_future(future)
                except WorkerLost:
                    request.recoveries += 1
                    if self._abandoning:
                        return None
                    rescue = pool.lost(request.id, future)
                    self.stats.worker_recoveries = pool.recoveries
                    if rescue:
                        return None
                    request.attempts += 1
                    request.attempt_started_at = time.monotonic()
        finally:
            pool.discard(request.id)

    def _abandon_record(self, request: _Request, where: str) -> Dict[str, Any]:
        return {
            "name": request.name,
            "sha": request.sha,
            "status": "failed",
            "error": f"ServerDraining: drain grace of {self.config.drain_grace_s}s "
                     f"expired while {where}",
            "elapsed_s": 0.0,
        }

    def _finish(self, request: _Request, record: Dict[str, Any]) -> None:
        self._running.pop(request.id, None)
        request.phase = "done"
        now = time.monotonic()
        record.setdefault("elapsed_s", 0.0)
        record.update(
            id=request.id,
            client=request.submit.client,
            deadline_s=request.deadline_s,
            attempts=max(1, request.attempts),
            recoveries=request.recoveries,
            queue_wait_s=max(0.0, (request.started_at or now) - request.accepted_at),
        )
        self.admission.observe_service(float(record.get("elapsed_s") or 0.0))
        self.stats.absorb_record(record)
        if self._results_stream is not None:
            self._results_stream.emit(record)
        if not request.done.done():
            request.done.set_result(record)
        for path in (request.path, request.journal_path):
            if path is not None:
                with contextlib.suppress(OSError):
                    path.unlink()
        self._kick()
        self._maybe_finish_drain()

    # ------------------------------------------------------------------
    # watchdog
    # ------------------------------------------------------------------
    def _stuck_requests(self, now: float) -> List[_Request]:
        stuck = []
        for request in self._running.values():
            if request.lane != "pool" or request.attempt_started_at is None:
                continue
            bound: Optional[float] = None
            if request.deadline_s is not None:
                bound = request.deadline_s + self.config.stuck_grace_s
            if self.config.max_solve_s is not None:
                cap = self.config.max_solve_s + self.config.stuck_grace_s
                bound = cap if bound is None else min(bound, cap)
            if bound is not None and now - request.attempt_started_at > bound:
                stuck.append(request)
        return stuck

    async def _watchdog_loop(self) -> None:
        """Detect solves stuck past their deadline and recover the pool.

        A cooperative solve cannot overrun its budget by much — the
        tracker raises at the next checkpoint.  A *stuck* worker (hung
        syscall, pathological C call, injected ``stall``) never reaches
        a checkpoint, so the watchdog is the backstop: kill the
        workers, let the broken pool re-dispatch everything in flight.
        """
        while True:
            await asyncio.sleep(self.config.watchdog_interval_s)
            if self._stuck_requests(time.monotonic()):
                self.stats.watchdog_kills += 1
                self._pool.kill_workers()

    # ------------------------------------------------------------------
    # HTTP surface
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader, self.config.max_body_bytes),
                    timeout=self.config.io_timeout_s,
                )
            except asyncio.TimeoutError:
                return
            if request is None:
                return
            await self._route(request, writer)
        except ProtocolError as exc:
            await self._send(writer, response_bytes(exc.status, {"error": exc.message}))
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the server
            await self._send(
                writer, response_bytes(500, {"error": f"{type(exc).__name__}: {exc}"})
            )

    async def _send(self, writer: asyncio.StreamWriter, data: bytes) -> bool:
        try:
            writer.write(data)
            await writer.drain()
            return True
        except (ConnectionError, RuntimeError):
            return False  # client went away; the solve (if any) continues

    async def _route(self, request: HttpRequest, writer: asyncio.StreamWriter) -> None:
        if request.path in ("/v1/health", "/healthz"):
            if request.method != "GET":
                raise ProtocolError(405, f"{request.path} supports GET only")
            await self._send(writer, response_bytes(200, self.health()))
        elif request.path == "/v1/stats":
            if request.method != "GET":
                raise ProtocolError(405, f"{request.path} supports GET only")
            await self._send(writer, response_bytes(200, self.stats_snapshot()))
        elif request.path == "/v1/synthesize":
            if request.method != "POST":
                raise ProtocolError(405, f"{request.path} supports POST only")
            await self._handle_submit(request, writer)
        else:
            raise ProtocolError(
                404, f"unknown path {request.path!r} "
                     "(endpoints: GET /v1/health, GET /v1/stats, POST /v1/synthesize)"
            )

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "queued": len(self.scheduler),
            "running": len(self._running),
            "workers": self.config.workers,
        }

    def stats_snapshot(self) -> Dict[str, Any]:
        doc = self.stats.to_dict()
        doc["admission"] = self.admission.to_dict()
        doc["queued"] = len(self.scheduler)
        doc["running"] = len(self._running)
        doc["draining"] = self._draining
        return doc

    # ------------------------------------------------------------------
    # submission path
    # ------------------------------------------------------------------
    def _resolve_deadline(self, submit: SubmitRequest) -> Optional[float]:
        deadline = submit.deadline_s
        if deadline is None:
            deadline = self.config.default_deadline_s
        if deadline is not None and self.config.max_deadline_s is not None:
            deadline = min(deadline, self.config.max_deadline_s)
        return deadline

    def _admit(self, submit: SubmitRequest) -> _Request:
        """Admission + spool; raises :class:`ProtocolError` on shed."""
        if self._draining:
            self.stats.rejected_draining += 1
            raise _SheddingError(
                503, "draining", self.admission.retry_after_s(),
                "server is draining; not admitting new work",
            )
        rejection = self.admission.try_admit(submit.client)
        if rejection is not None:
            raise _SheddingError(
                429, rejection.reason, rejection.retry_after_s,
                f"admission queue is full ({rejection.reason}); retry after "
                f"{rejection.retry_after_s:.1f}s",
            )
        assert self._spool is not None
        request_id = f"r{next(self._ids):06d}"
        deadline = self._resolve_deadline(submit)
        path = self._spool / f"{request_id}.json"
        path.write_text(json.dumps(submit.instance, sort_keys=True))
        journal_path: Optional[Path] = None
        options = submit.options
        if submit.stream:
            # a per-request checkpoint journal doubles as the live
            # incumbent feed: bnb/ilp record strict improvements there,
            # and the streaming response tails it
            journal_path = self._spool / f"{request_id}.ckpt"
            options = replace(options, checkpoint_path=str(journal_path))
        request = _Request(
            id=request_id,
            submit=submit,
            path=path,
            journal_path=journal_path,
            sha=_instance_sha(path, options, deadline),
            options=options,
            deadline_s=deadline,
            done=asyncio.get_running_loop().create_future(),
            accepted_at=time.monotonic(),
        )
        self.stats.accepted += 1
        self.scheduler.push(submit.client, request)
        self._kick()
        return request

    async def _handle_submit(self, http: HttpRequest, writer: asyncio.StreamWriter) -> None:
        submit = parse_submit(http.json_body())
        try:
            request = self._admit(submit)
        except _SheddingError as exc:
            await self._send(writer, response_bytes(
                exc.status,
                {"error": exc.message, "reason": exc.reason,
                 "retry_after_s": round(exc.retry_after_s, 3)},
                extra_headers=retry_after_headers(exc.retry_after_s),
            ))
            return
        if submit.stream:
            self.stats.streamed += 1
            await self._stream_response(request, writer)
        else:
            record = await request.done
            await self._send(writer, response_bytes(200, record))

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    async def _stream_response(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        alive = await self._send(writer, stream_header_bytes())
        alive = alive and await self._send(writer, event_bytes({
            "event": "accepted", "id": request.id, "name": request.name,
            "queued": len(self.scheduler), "deadline_s": request.deadline_s,
        }))
        journal_offset = 0
        best_weight: Optional[float] = None
        while not request.done.done():
            try:
                await asyncio.wait_for(
                    asyncio.shield(request.done), timeout=self.config.stream_interval_s
                )
            except asyncio.TimeoutError:
                pass
            if alive:
                events, journal_offset, best_weight = _journal_events(
                    request.journal_path, journal_offset, best_weight
                )
                for event in events:
                    alive = alive and await self._send(writer, event_bytes(event))
                if not request.done.done():
                    alive = alive and await self._send(writer, event_bytes({
                        "event": "progress", "id": request.id, "phase": request.phase,
                        "elapsed_s": round(time.monotonic() - request.accepted_at, 3),
                        "attempts": request.attempts,
                    }))
        record = request.done.result()
        if alive:
            await self._send(writer, event_bytes({"event": "result", "record": record}))
            await self._send(writer, STREAM_END)


class _SheddingError(Exception):
    """Internal: an admission refusal with its HTTP shape."""

    def __init__(self, status: int, reason: str, retry_after_s: float, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.message = message


def _journal_events(
    path: Optional[Path], offset: int, best_weight: Optional[float]
) -> Tuple[List[Dict[str, Any]], int, Optional[float]]:
    """New incumbent events from a request's (possibly torn) journal tail.

    Reads complete lines past ``offset`` only; a torn final line stays
    unconsumed until the worker finishes writing it.  Lines that are not
    intact records are skipped — the stream is a best-effort live feed.
    """
    if path is None:
        return [], offset, best_weight
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            raw = handle.read()
    except OSError:
        return [], offset, best_weight
    events: List[Dict[str, Any]] = []
    consumed = 0
    for line in raw.splitlines(keepends=True):
        if not line.endswith(b"\n"):
            break
        consumed += len(line)
        record = decode_line(line)
        if record is None or record.get("kind") != "incumbent":
            continue
        payload = record.get("payload") or {}
        weight = payload.get("weight")
        if not isinstance(weight, (int, float)):
            continue
        if best_weight is not None and weight >= best_weight:
            continue
        best_weight = float(weight)
        events.append({
            "event": "incumbent",
            "stage": payload.get("stage"),
            "weight": weight,
            "columns": len(payload.get("columns") or ()),
        })
    return events, offset + consumed, best_weight


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


async def _run(config: ServeConfig, announce: Optional[TextIO]) -> None:
    server = SynthesisServer(config)
    await server.start()
    if announce is not None:
        print(f"repro serve: listening on http://{config.host}:{server.port} "
              f"({config.workers} workers, queue limit {config.queue_limit})",
              file=announce, flush=True)
    await server.serve_forever()
    if announce is not None:
        stats = server.stats
        print(f"repro serve: drained — {stats.completed} served "
              f"({stats.degraded} degraded, {stats.failed} failed), "
              f"{server.admission.shed} shed", file=announce, flush=True)


def serve_forever(config: ServeConfig, announce: Optional[TextIO] = sys.stderr) -> None:
    """Run a server until SIGTERM/SIGINT drains it (the CLI entry)."""
    asyncio.run(_run(config, announce))


class ServerThread:
    """A server on a private event loop in a daemon thread.

    The embedding used by tests and benchmarks (and handy for apps)::

        with ServerThread(ServeConfig(port=0, workers=2)) as handle:
            requests_go_to(f"http://127.0.0.1:{handle.port}")
        # leaving the context drains gracefully and joins everything
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        import threading

        self.config = config or ServeConfig(port=0)
        self.server: Optional[SynthesisServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._main, name="repro-serve", daemon=True)

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced to the starter
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = SynthesisServer(self.config)
        await self.server.start()
        self._ready.set()
        await self.server.serve_forever()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=60.0)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        if self.server is None or self.server.port is None:
            raise RuntimeError("server did not come up within 60s")
        return self

    def drain(self) -> None:
        """Request a graceful drain (thread-safe)."""
        if self._loop is not None and self.server is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.server.begin_drain)

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError(f"server thread did not stop within {timeout}s")
        if self._error is not None:
            raise RuntimeError("server crashed") from self._error

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.drain()
        self.join(timeout=60.0)
