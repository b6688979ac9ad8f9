"""Deterministic fault injection for the resilient runtime.

Every cooperative checkpoint in the synthesis pipeline calls
:func:`fault_point` with a *site name* (``"bnb.node"``, ``"ilp.start"``,
``"greedy.select"``, ``"candidates.subset"``, ...).  With no injector
active this is a no-op; inside a :class:`FaultInjector` context the
site is matched against the configured :class:`FaultSpec` list and the
corresponding synthetic failure is raised.

The harness is **deterministic**: firing decisions come from a seeded
``random.Random`` plus per-site hit counters, so two runs with the same
plan and seed inject exactly the same faults at exactly the same
points.  That makes the degradation paths themselves unit-testable.

Example — force the branch-and-bound to "time out" after 100 nodes::

    plan = [FaultSpec(site="bnb.node", kind="timeout", after=100)]
    with FaultInjector(plan, seed=7):
        result = synthesize(graph, library, budget=Budget(deadline_s=5))
    assert result.degradation.quality is not ResultQuality.OPTIMAL
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Optional, Sequence

from ..core.exceptions import BudgetExceeded, SynthesisError

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultInjector",
    "WorkerCrashFault",
    "HostDeathFault",
    "HeartbeatStallFault",
    "StaleClockFault",
    "fault_point",
    "active_injector",
]

#: supported synthetic failure kinds:
#: ``timeout`` — raises :class:`BudgetExceeded` (reason ``injected-timeout``);
#: ``node_budget`` — raises :class:`BudgetExceeded` (reason ``injected-node-budget``);
#: ``error`` — raises a plain :class:`SynthesisError` (a stage failure);
#: ``worker_crash`` — raises :class:`WorkerCrashFault` at a pool
#: *dispatch* site (``"batch.dispatch"``, ``"serve.dispatch"``): the
#: dispatcher marks the task so the worker process that picks it up
#: dies abruptly (``os._exit``) mid-task, exercising the pool-recovery
#: path exactly as a segfault or OOM kill would;
#: ``stall`` — raises nothing: the injector itself blocks for
#: ``stall_s`` seconds (via its injectable ``sleep``) before letting the
#: site proceed, so deadline-overrun, watchdog and admission-control
#: paths are testable without planting real sleeps in product code;
#: ``host_death`` — raises :class:`HostDeathFault` at a queue-worker
#: solve site (``"queue.solve"``): an in-process simulated host abandons
#: its lease on the spot (or, in a real ``repro batch-worker`` process,
#: ``os._exit``\ s), exercising lease expiry and takeover;
#: ``heartbeat_stall`` — raises :class:`HeartbeatStallFault` at the
#: heartbeat-renewal site (``"queue.heartbeat"``): the heartbeat thread
#: silently stops beating while the solve loop runs on — the canonical
#: *zombie host* whose late writes must be fenced;
#: ``stale_clock`` — raises :class:`StaleClockFault` at the clock site
#: (``"queue.clock"``): the host's view of "now" is skewed by ``skew_s``
#: seconds, exercising premature takeover under clock skew.
FAULT_KINDS = (
    "timeout",
    "node_budget",
    "error",
    "worker_crash",
    "stall",
    "host_death",
    "heartbeat_stall",
    "stale_clock",
)


class WorkerCrashFault(Exception):
    """Fired by a ``worker_crash`` :class:`FaultSpec` at a pool dispatch
    site.  Deliberately *not* a :class:`~repro.core.exceptions.SynthesisError`:
    only the pool dispatcher catches it (to poison the outgoing task);
    anywhere else it is a loud test-harness bug."""


class HostDeathFault(Exception):
    """Fired by a ``host_death`` :class:`FaultSpec` at a queue-worker
    solve site.  Like :class:`WorkerCrashFault`, not a
    :class:`~repro.core.exceptions.SynthesisError`: only the queue
    worker's shard loop catches it (to die or abandon the lease);
    anywhere else it is a loud test-harness bug."""


class HeartbeatStallFault(Exception):
    """Fired by a ``heartbeat_stall`` :class:`FaultSpec` at the queue
    worker's heartbeat-renewal site.  Caught only by the heartbeat
    thread, which stops renewing — turning its host into a zombie whose
    lease will expire under it while it keeps solving."""


class StaleClockFault(Exception):
    """Fired by a ``stale_clock`` :class:`FaultSpec` at the queue clock
    site.  Carries the injected skew; :func:`repro.batch.queue.queue_now`
    catches it and reports a time ``skew_s`` seconds away from the true
    clock (positive skew = this host's clock runs fast, the
    premature-takeover direction)."""

    def __init__(self, message: str, skew_s: float = 0.0) -> None:
        super().__init__(message)
        self.skew_s = skew_s


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule.

    ``site`` is an ``fnmatch`` pattern over checkpoint site names
    (``"bnb.*"`` matches every branch-and-bound site).  The rule fires
    on a matching hit once the site has already been hit ``after``
    times, at most ``times`` times total (``None`` = unlimited), each
    time with probability ``probability`` drawn from the injector's
    seeded RNG.  ``exception`` overrides the ``kind``-derived exception
    with a custom factory ``(message) -> Exception``.
    """

    site: str
    kind: str = "error"
    probability: float = 1.0
    after: int = 0
    times: Optional[int] = None
    message: str = ""
    exception: Optional[Callable[[str], Exception]] = None
    #: ``stall`` kind only: how long the injector blocks at the site.
    stall_s: float = 0.0
    #: ``stale_clock`` kind only: seconds the host's clock is off by
    #: (positive = clock runs fast, the premature-takeover direction).
    skew_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS and self.exception is None:
            raise ValueError(f"unknown fault kind {self.kind!r} (use one of {FAULT_KINDS})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.after < 0:
            raise ValueError(f"after must be nonnegative, got {self.after}")
        if self.times is not None and self.times <= 0:
            raise ValueError(f"times must be positive or None, got {self.times}")
        if self.kind == "stall" and self.stall_s <= 0:
            raise ValueError(f"stall specs need stall_s > 0, got {self.stall_s}")
        if self.kind != "stall" and self.stall_s != 0.0:
            raise ValueError(f"stall_s only applies to kind='stall', got kind={self.kind!r}")
        if self.kind == "stale_clock" and self.skew_s == 0.0:
            raise ValueError("stale_clock specs need a nonzero skew_s")
        if self.kind != "stale_clock" and self.skew_s != 0.0:
            raise ValueError(f"skew_s only applies to kind='stale_clock', got kind={self.kind!r}")

    def build_exception(self, site: str) -> Exception:
        """The exception this spec raises when it fires at ``site``."""
        msg = self.message or f"injected {self.kind} fault at {site!r}"
        if self.exception is not None:
            return self.exception(msg)
        if self.kind == "timeout":
            return BudgetExceeded(msg, reason="injected-timeout")
        if self.kind == "node_budget":
            return BudgetExceeded(msg, reason="injected-node-budget")
        if self.kind == "worker_crash":
            return WorkerCrashFault(msg)
        if self.kind == "host_death":
            return HostDeathFault(msg)
        if self.kind == "heartbeat_stall":
            return HeartbeatStallFault(msg)
        if self.kind == "stale_clock":
            return StaleClockFault(msg, skew_s=self.skew_s)
        return SynthesisError(msg)


class FaultInjector:
    """Seeded, context-managed registry of :class:`FaultSpec` rules.

    Entering the context activates the injector for every
    :func:`fault_point` call until exit; contexts nest (the innermost
    injector wins) and always restore the previous state, so a failed
    test cannot leak faults into the next one.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._site_hits: Dict[str, int] = {}
        self._spec_fires: Dict[int, int] = {i: 0 for i in range(len(self.specs))}
        #: cumulative seconds injected by fired ``stall`` specs.
        self.total_stalled_s = 0.0

    # ------------------------------------------------------------------
    def hits(self, site: str) -> int:
        """How many times ``site`` has been reached so far."""
        return self._site_hits.get(site, 0)

    @property
    def total_fired(self) -> int:
        """Total faults injected so far."""
        return sum(self._spec_fires.values())

    def fire(self, site: str) -> None:
        """Record a hit of ``site``; raise if some spec decides to fire.

        ``stall`` specs never raise: the injector blocks for the spec's
        ``stall_s`` (through the injectable ``sleep``) and keeps
        matching, so a stall can be stacked in front of a raising spec
        at the same site.
        """
        seen = self._site_hits.get(site, 0)
        self._site_hits[site] = seen + 1
        for i, spec in enumerate(self.specs):
            if not fnmatchcase(site, spec.site):
                continue
            if seen < spec.after:
                continue
            if spec.times is not None and self._spec_fires[i] >= spec.times:
                continue
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                continue
            self._spec_fires[i] += 1
            if spec.kind == "stall" and spec.exception is None:
                self.total_stalled_s += spec.stall_s
                self._sleep(spec.stall_s)
                continue
            raise spec.build_exception(site)

    # ------------------------------------------------------------------
    def __enter__(self) -> "FaultInjector":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _ACTIVE.remove(self)


_ACTIVE: List[FaultInjector] = []


def active_injector() -> Optional[FaultInjector]:
    """The innermost active injector, or None outside any context."""
    return _ACTIVE[-1] if _ACTIVE else None


def fault_point(site: str) -> None:
    """Checkpoint hook: no-op unless a :class:`FaultInjector` is active."""
    if _ACTIVE:
        _ACTIVE[-1].fire(site)
