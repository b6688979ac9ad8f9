"""The one self-healing process pool (``repro.runtime.pool``).

``ProcessPoolExecutor`` is fail-stop: one worker that dies abruptly
(segfault, OOM kill, ``os._exit``) breaks the whole executor and every
pending future raises ``BrokenProcessPool``.  :class:`WorkerPool` owns
the executor and turns that into one recovery ladder for the batch
``PoolTransport`` and ``repro serve``:

1. The first loss seen in a broken executor rebuilds it (one rebuild
   per broken generation: :attr:`~WorkerPool.recoveries`, local obs
   counter ``pool.worker_recoveries``) and re-dispatches the lost task
   plus every task still pending.
2. A second loss of the same task takes it out of the pool, to be
   solved in-process, the one lane no worker death can touch (local
   obs counter ``pool.inprocess_rescues``).

Every submission, re-dispatches included, consults the caller's fault
site: a ``worker_crash`` fault there poisons the task, and its worker
exits at once, as a segfault would.  A worker exits when its parent
process dies, so a SIGKILLed parent leaves no orphans.  Each worker
opens one :class:`~repro.core.cache.PersistentCache` handle on the
caller's cache directory (the store is multi-process safe, a handle is
not), then runs the caller's initializer.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ..core.cache import PersistentCache, set_persistent_cache
from ..obs import current_tracer
from .faults import WorkerCrashFault, fault_point

__all__ = ["WorkerLost", "WorkerPool"]

#: what a task's future raises when its worker died (see :meth:`WorkerPool.lost`).
WorkerLost = BrokenProcessPool


def _init_worker(
    cache_dir: Optional[str], initializer: Optional[Callable[..., None]], initargs: Tuple
) -> None:
    parent = multiprocessing.parent_process()
    if parent is not None:
        # A parent killed without a shutdown never tells its workers: an
        # idle one would block on the call queue forever.  Exit with it.
        threading.Thread(
            target=_exit_with_parent, args=(parent.sentinel,), daemon=True
        ).start()
    set_persistent_cache(PersistentCache(cache_dir) if cache_dir else None)
    if initializer is not None:
        initializer(*initargs)


def _exit_with_parent(sentinel: int) -> None:
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


def _die() -> None:
    """A poisoned task: exit uncatchably, like SIGKILL or a segfault."""
    os._exit(13)


@dataclass
class _Task:
    args: Tuple
    future: Optional[Future] = None
    losses: int = 0


class WorkerPool:
    """``workers`` processes running ``fn``, rebuilt on worker death.

    Tasks are keyed by the caller.  :meth:`submit` dispatches one and
    :meth:`result` blocks for it through the whole ladder, solving a
    twice-lost task here with ``fn``.  An
    asynchronous caller awaits :meth:`future` itself and reports each
    :data:`WorkerLost` to :meth:`lost`.  The executor is built on the
    first submission after construction or a rebuild.
    """

    def __init__(
        self,
        workers: int,
        fn: Callable[..., Any],
        *,
        site: Optional[str] = None,
        cache_dir: Optional[str] = None,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple = (),
    ) -> None:
        self.workers = workers
        #: fault site consulted on every submission (None = none).
        self.site = site
        #: executor rebuilds, one per broken generation.
        self.recoveries = 0
        self._fn = fn
        self._initargs = (cache_dir, initializer, initargs)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._tasks: Dict[Hashable, _Task] = {}

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_init_worker, initargs=self._initargs
            )
        return self._executor

    def warm(self) -> None:
        """Spawn every worker now, so the first task pays no start-up."""
        executor = self._ensure()
        for _ in range(self.workers):
            executor.submit(os.getpid)

    def _dispatch(self, task: _Task) -> None:
        fn, args = self._fn, task.args
        if self.site is not None:
            try:
                fault_point(self.site)
            except WorkerCrashFault:
                fn, args = _die, ()
        try:
            task.future = self._ensure().submit(fn, *args)
        except BrokenProcessPool as exc:  # broke under this very submission
            task.future = Future()
            task.future.set_exception(exc)

    def submit(self, key: Hashable, *args: Any) -> None:
        """Dispatch ``fn(*args)`` as task ``key``."""
        self._tasks[key] = task = _Task(args)
        self._dispatch(task)

    def future(self, key: Hashable) -> Future:
        """Task ``key``'s current future (a re-dispatch replaces it)."""
        return self._tasks[key].future  # type: ignore[return-value]

    def lost(self, key: Hashable, future: Future) -> bool:
        """Report that ``future``, awaited for task ``key``, raised
        :data:`WorkerLost`.  True on the task's second loss: it has left
        the pool and the caller must solve it in-process."""
        task = self._tasks[key]
        task.losses += 1
        rescue = task.losses >= 2
        if rescue:
            self.discard(key)
            current_tracer().count_local("pool.inprocess_rescues")
        if future is task.future:  # no rebuild has replaced it yet
            self.recoveries += 1
            current_tracer().count_local("pool.worker_recoveries")
            self._close_executor(wait=False)
            for pending in self._tasks.values():
                self._dispatch(pending)
        return rescue

    def result(self, key: Hashable) -> Any:
        """Block for task ``key``'s value, running the recovery ladder."""
        task = self._tasks[key]
        while True:
            future = task.future
            try:
                value = future.result()  # type: ignore[union-attr]
            except BrokenProcessPool:
                if self.lost(key, future):  # type: ignore[arg-type]
                    return self._fn(*task.args)
                continue
            del self._tasks[key]
            return value

    def discard(self, key: Hashable) -> None:
        """Forget task ``key``, cancelling it if it has not started."""
        task = self._tasks.pop(key, None)
        if task is not None and task.future is not None:
            task.future.cancel()

    def cancel(self) -> None:
        """Forget every task."""
        for key in list(self._tasks):
            self.discard(key)

    def kill_workers(self) -> None:
        """Kill every worker now; their tasks surface as :data:`WorkerLost`."""
        for process in list((getattr(self._executor, "_processes", None) or {}).values()):
            with contextlib.suppress(Exception):
                process.kill()

    def _close_executor(self, wait: bool) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None

    def shutdown(self, wait: bool = False) -> None:
        """Forget every task and stop the workers (``wait`` joins them)."""
        self.cancel()
        self._close_executor(wait)
