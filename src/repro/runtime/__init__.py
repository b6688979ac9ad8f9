"""Resilient synthesis runtime: budgets, fault injection, reports.

- :mod:`repro.runtime.budget` — :class:`Budget`/:class:`BudgetTracker`,
  the wall-clock + node budgets threaded through every hot loop via
  cooperative checkpoints;
- :mod:`repro.runtime.faults` — deterministic, seeded fault injection
  at named checkpoint sites (the degradation paths are under test);
- :mod:`repro.runtime.report` — :class:`ResultQuality` tags and the
  :class:`DegradationReport` audit trail of the budgeted covering chain
  (the configured exact engine, the other one, then greedy), which
  lives beside the pipeline in :mod:`repro.core.synthesis`;
- :mod:`repro.runtime.checkpoint` — the crash-tolerant
  :class:`CheckpointJournal` (append-only, CRC-checked) that lets a
  killed run resume with an identical result;
- :mod:`repro.runtime.records` — the one CRC-tagged JSON-lines record
  codec, shared by the journal, the persistent cache and the result
  streams;
- :mod:`repro.runtime.pool` — :class:`~repro.runtime.pool.WorkerPool`,
  the one self-healing process pool, shared by batch mode and the
  server (imported from its module: it builds on
  :mod:`repro.core.cache`, which this package must not load eagerly).
"""

from __future__ import annotations

from .budget import Budget, BudgetTracker, as_tracker  # noqa: F401
from .checkpoint import (  # noqa: F401
    JOURNAL_VERSION,
    CheckpointJournal,
    JournalSolution,
    instance_fingerprint,
)
from .faults import (  # noqa: F401
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    HeartbeatStallFault,
    HostDeathFault,
    StaleClockFault,
    WorkerCrashFault,
    active_injector,
    fault_point,
)
from .report import DegradationReport, ResultQuality, StageAttempt  # noqa: F401

__all__ = [
    "Budget",
    "BudgetTracker",
    "as_tracker",
    "JOURNAL_VERSION",
    "CheckpointJournal",
    "JournalSolution",
    "instance_fingerprint",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "WorkerCrashFault",
    "HostDeathFault",
    "HeartbeatStallFault",
    "StaleClockFault",
    "active_injector",
    "fault_point",
    "DegradationReport",
    "ResultQuality",
    "StageAttempt",
]
