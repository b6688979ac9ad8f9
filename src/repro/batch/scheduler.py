"""Transport-agnostic batch scheduling (``repro.batch.scheduler``).

The *dispatch/collect* two-thirds of the batch engine's
dispatch/collect/persist split.  :func:`repro.batch.runner.run_batch`
walks the corpus in order and, per instance, either reuses a resumed
record or asks a :class:`Transport` for a freshly solved one; how the
solve actually executes is entirely the transport's business:

- :class:`SerialTransport` — in-process, deterministic, debuggable;
- :class:`PoolTransport` — the self-healing local process pool of
  :mod:`repro.runtime.pool` (worker death ⇒ rebuild + re-dispatch ⇒
  in-process rescue);
- :class:`~repro.batch.queue.QueueTransport` — the multi-host
  filesystem work queue with lease fencing (lives in its own module;
  registered here only by interface).

Every transport returns records with the same shape and the same
determinism contract — ``record["result"]`` equals a solo
``synthesize()`` of the instance — so the persist layer and the
summary logic never know which one ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.cache import current_persistent_cache
from ..core.synthesis import SynthesisOptions, synthesize
from ..runtime.budget import Budget
from ..runtime.pool import WorkerPool

__all__ = [
    "SolveTask",
    "Transport",
    "SerialTransport",
    "PoolTransport",
    "solve_one",
]


@dataclass(frozen=True)
class SolveTask:
    """One schedulable unit: the corpus position plus everything a
    worker needs to solve and fingerprint the instance."""

    index: int
    name: str
    path: str
    sha: str


def solve_one(
    name: str,
    path_str: str,
    options: SynthesisOptions,
    deadline: Optional[float],
    sha: str,
    trace: bool = False,
) -> Dict[str, Any]:
    """Solve one instance; always returns a record, never raises.

    Runs under whatever persistent cache is ambient (each pool worker
    has its own handle; the serial path installs the parent's),
    reporting this solve's cache-counter delta in the record.  A
    failure of any kind — malformed file, infeasible instance,
    validation error — becomes a ``"failed"`` record so one bad corpus
    member can never abort the batch.

    ``trace=True`` runs the solve under a fresh :mod:`repro.obs` tracer
    and attaches its JSON metrics as ``record["metrics"]`` — outside
    ``record["result"]``, so traced and untraced solves stay
    stable-dict identical.  Used by ``repro.serve`` streaming requests.
    """
    from ..io.json_io import load_instance
    from .runner import stable_result_dict

    store = current_persistent_cache()
    before = store.stats.copy() if store is not None else None
    started = time.perf_counter()
    record: Dict[str, Any] = {"name": name, "path": path_str, "sha": sha}
    try:
        graph, library = load_instance(path_str)
        budget = Budget(deadline_s=deadline) if deadline is not None else None
        result = synthesize(graph, library, options, budget=budget, trace=trace)
        quality = result.degradation.quality.value if result.degradation else "optimal"
        record.update(
            status="ok" if quality == "optimal" else "degraded",
            quality=quality,
            cost=result.total_cost,
            result=stable_result_dict(result),
        )
        if trace and result.trace is not None:
            from ..obs import metrics_dict

            record["metrics"] = metrics_dict(result.trace)
    except Exception as exc:  # noqa: BLE001 - the record *is* the error channel
        record.update(status="failed", error=f"{type(exc).__name__}: {exc}")
    record["elapsed_s"] = time.perf_counter() - started
    if store is not None:
        record["cache"] = store.stats.delta(before).to_dict()
    return record


class Transport:
    """How a batch of :class:`SolveTask` units actually executes.

    Lifecycle: ``prepare(tasks)`` once with every to-solve task in
    corpus order, then ``collect(task)`` once per task *in that same
    order* (blocking until its record exists), then ``close()`` —
    always, in a ``finally``.  ``collect`` must never raise for a
    failing *instance* (failures are ``"failed"`` records); it may
    raise for transport-level misuse or an unusable substrate.
    """

    #: short name surfaced in the ``batch.run`` span.
    name = "abstract"
    #: pool rebuilds after a worker death (``BatchSummary.worker_recoveries``).
    recoveries = 0

    def prepare(self, tasks: List[SolveTask]) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def collect(self, task: SolveTask) -> Dict[str, Any]:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class SerialTransport(Transport):
    """Solve in-process, one instance at a time, under the parent's
    ambient cache handle."""

    name = "serial"

    def __init__(self, options: SynthesisOptions, deadline: Optional[float]) -> None:
        self._options = options
        self._deadline = deadline

    def prepare(self, tasks: List[SolveTask]) -> None:
        pass

    def collect(self, task: SolveTask) -> Dict[str, Any]:
        return solve_one(task.name, task.path, self._options, self._deadline, task.sha)

    def close(self) -> None:
        pass


class PoolTransport(Transport):
    """Fan tasks out over a :class:`~repro.runtime.pool.WorkerPool`.

    Every dispatch consults the ``batch.dispatch`` fault site.  A dead
    worker rebuilds the pool and re-dispatches the lost instance plus
    everything still pending; a second loss of the same instance
    solves it in-process under the parent's cache handle.
    """

    name = "pool"

    def __init__(
        self,
        options: SynthesisOptions,
        deadline: Optional[float],
        jobs: int,
        cache_dir: Optional[str],
    ) -> None:
        self._options = options
        self._deadline = deadline
        self._pool = WorkerPool(jobs, solve_one, site="batch.dispatch", cache_dir=cache_dir)

    @property
    def recoveries(self) -> int:  # type: ignore[override]
        return self._pool.recoveries

    def prepare(self, tasks: List[SolveTask]) -> None:
        for task in tasks:
            self._pool.submit(
                task.index, task.name, task.path, self._options, self._deadline, task.sha
            )

    def collect(self, task: SolveTask) -> Dict[str, Any]:
        return self._pool.result(task.index)

    def close(self) -> None:
        self._pool.shutdown()
