"""Multi-instance batch orchestration (``repro.batch.runner``).

The *orchestration* layer of the batch engine's three-way split:

- :mod:`repro.batch.scheduler` — **dispatch/collect**: the
  :class:`~repro.batch.scheduler.Transport` interface and its serial /
  self-healing-pool implementations;
- :mod:`repro.batch.queue` — the multi-host transport: lease files,
  fencing tokens, heartbeats over any shared directory;
- :mod:`repro.batch.stream` — **persist**: CRC-tagged JSON-lines
  result streams with torn-tail healing and resume loading.

:func:`run_batch` walks the corpus in order, reuses resumed records,
asks the chosen transport for everything else, and streams records to
the results file in corpus order — so two runs over the same corpus
produce line-comparable streams regardless of which transport (or how
many hosts) actually solved them.  Identity is the **resume key**:
a SHA-256 over the instance file bytes plus the result-shaping option
surface; it powers ``--resume``, exactly-once queue takeover, and the
batch acceptance checks alike.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO, Union

from ..core.cache import PersistentCache, persistent_cache
from ..core.synthesis import SynthesisOptions
from ..obs import current_tracer
from ..runtime.records import canonical_json
from .corpus import InstanceRef
from .scheduler import PoolTransport, SerialTransport, SolveTask, Transport
from .stream import ResultStream, load_completed

__all__ = [
    "BatchSummary",
    "run_batch",
    "stable_result_dict",
    "VOLATILE_RESULT_KEYS",
]

#: keys of :func:`repro.io.synthesis_result_to_dict` that vary between
#: byte-identical solves (wall clock, runtime audit trail, trace
#: metrics) — stripped for cross-run result comparison.
VOLATILE_RESULT_KEYS = ("elapsed_seconds", "degradation", "metrics")

def stable_result_dict(result) -> Dict[str, Any]:
    """The run-invariant part of a synthesis result summary.

    Two solves of the same instance under the same options produce
    equal stable dicts — the batch acceptance check and the resume
    logic both compare these.
    """
    from ..io.json_io import synthesis_result_to_dict

    doc = synthesis_result_to_dict(result)
    for key in VOLATILE_RESULT_KEYS:
        doc.pop(key, None)
    return doc


def _instance_sha(path: Path, options: SynthesisOptions, deadline: Optional[float]) -> str:
    """Fingerprint of (instance file bytes, result-shaping options, and
    the per-instance deadline).

    Editing the instance or changing the options changes the digest, so
    a resumed batch re-solves exactly the instances whose answer could
    differ.
    """
    shaping = {**options.result_shaping(), "deadline_per_instance": deadline}
    digest = hashlib.sha256(path.read_bytes())
    digest.update(canonical_json(shaping).encode("utf-8"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# the batch itself
# ----------------------------------------------------------------------


@dataclass
class BatchSummary:
    """Aggregate outcome of one :func:`run_batch` call."""

    total: int = 0
    completed: int = 0
    degraded: int = 0
    failed: int = 0
    #: instances reused from a previous run's results stream (resume).
    skipped: int = 0
    #: instances whose pool worker died and were transparently recovered.
    worker_recoveries: int = 0
    elapsed_s: float = 0.0
    #: summed per-instance cache-counter deltas (zeros when uncached).
    cache: Dict[str, int] = field(default_factory=dict)
    #: every instance's record, in corpus order (reused ones included).
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: queue-transport health (all zero for serial/pool runs): lease
    #: files created fleet-wide, leases that expired past their TTL,
    #: takeovers at a higher fencing token, and CRC-valid records
    #: rejected at merge because a higher token superseded them.
    leases_acquired: int = 0
    leases_expired: int = 0
    takeovers: int = 0
    fenced_writes: int = 0

    @property
    def ok(self) -> bool:
        """True when no instance failed (degraded still counts as served)."""
        return self.failed == 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (records carry the full per-instance data)."""
        return {
            "total": self.total,
            "completed": self.completed,
            "degraded": self.degraded,
            "failed": self.failed,
            "skipped": self.skipped,
            "worker_recoveries": self.worker_recoveries,
            "elapsed_s": self.elapsed_s,
            "cache": dict(self.cache),
            "queue": {
                "leases_acquired": self.leases_acquired,
                "leases_expired": self.leases_expired,
                "takeovers": self.takeovers,
                "fenced_writes": self.fenced_writes,
            },
            "instances": [
                {k: r.get(k) for k in ("name", "status", "quality", "cost", "elapsed_s", "error")}
                for r in self.records
            ],
        }


def _absorb(summary: BatchSummary, record: Dict[str, Any], reused: bool) -> None:
    tracer = current_tracer()
    summary.records.append(record)
    if reused:
        summary.skipped += 1
        tracer.count_local("batch.instances.skipped")
    elif record["status"] == "failed":
        summary.failed += 1
        tracer.count_local("batch.instances.failed")
    else:
        summary.completed += 1
        tracer.count_local("batch.instances.completed")
        if record["status"] == "degraded":
            summary.degraded += 1
            tracer.count_local("batch.instances.degraded")
    for key, value in (record.get("cache") or {}).items():
        summary.cache[key] = summary.cache.get(key, 0) + value


def _report(progress: Optional[TextIO], record: Dict[str, Any], reused: bool) -> None:
    if progress is None:
        return
    if reused:
        print(f"  [skip] {record['name']}: already solved "
              f"(cost {record.get('cost', float('nan')):,.4g})", file=progress)
    elif record["status"] == "failed":
        print(f"  [FAIL] {record['name']}: {record['error']}", file=progress)
    else:
        tag = "ok" if record["status"] == "ok" else record["quality"]
        print(f"  [{tag}] {record['name']}: cost {record['cost']:,.4g} "
              f"({record['elapsed_s']:.2f}s)", file=progress)


def run_batch(
    corpus: Sequence[InstanceRef],
    *,
    options: Optional[SynthesisOptions] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    deadline_per_instance: Optional[float] = None,
    results_path: Union[str, Path] = "batch_results.jsonl",
    resume: bool = False,
    progress: Optional[TextIO] = None,
    fsync_results: bool = False,
    queue_dir: Optional[Union[str, Path]] = None,
    lease_ttl_s: float = 30.0,
    shard_size: int = 1,
    queue_wait_timeout_s: Optional[float] = None,
) -> BatchSummary:
    """Synthesize every corpus instance; returns the aggregate summary.

    Transport choice: ``queue_dir`` set routes the batch through the
    multi-host work queue at that (shared) directory — this process
    participates as one host, spawns ``jobs - 1`` extra local worker
    processes, and any number of ``repro batch-worker`` hosts elsewhere
    may join; otherwise ``jobs`` shards instances over that many local
    worker processes (``None``/``1`` = in-process, deterministic and
    debuggable).  Records land in ``results_path`` in corpus order in
    every case.

    ``resume=True`` skips instances already recorded as solved in the
    existing results stream (same file bytes, same options) — the
    stream must exist: resuming over nothing is reported as a
    :class:`~repro.core.exceptions.BatchError`, not silently ignored.
    ``fsync_results`` fsyncs every appended record (whole-host-crash
    durability, at a throughput cost).  ``progress`` (e.g.
    ``sys.stderr``) gets a one-liner per instance.

    The call itself never raises for a *failing instance* — failures
    are records and ``summary.ok`` is False.  It does raise for batch-
    level misuse (``jobs < 1``, unreadable results path, unusable
    queue directory).
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be a positive worker count, got {jobs}")
    options = options if options is not None else SynthesisOptions()
    results_path = Path(results_path)
    cache_str = str(Path(cache_dir).expanduser()) if cache_dir is not None else None
    tracer = current_tracer()

    summary = BatchSummary(total=len(corpus))
    started = time.perf_counter()
    tasks = [
        SolveTask(
            index=i,
            name=ref.name,
            path=str(ref.path),
            sha=_instance_sha(ref.path, options, deadline_per_instance),
        )
        for i, ref in enumerate(corpus)
    ]
    done = load_completed(results_path, require=True) if resume else {}

    def _on_queue_health(health) -> None:
        summary.leases_acquired = health.leases_acquired
        summary.leases_expired = health.leases_expired
        summary.takeovers = health.takeovers
        summary.fenced_writes = health.fenced_writes

    parent_store: Optional[PersistentCache] = None
    transport: Transport
    if queue_dir is not None:
        from .queue import QueueConfig, QueueTransport

        transport = QueueTransport(
            queue_dir,
            options,
            deadline_per_instance,
            QueueConfig(
                lease_ttl_s=lease_ttl_s,
                shard_size=shard_size,
                fsync_results=fsync_results,
            ),
            cache_dir=cache_str,
            local_workers=jobs or 1,
            wait_timeout_s=queue_wait_timeout_s,
            progress=progress,
            on_health=_on_queue_health,
        )
    elif jobs is None or jobs == 1:
        parent_store = PersistentCache(cache_str) if cache_str else None
        transport = SerialTransport(options, deadline_per_instance)
    else:
        parent_store = PersistentCache(cache_str) if cache_str else None
        transport = PoolTransport(options, deadline_per_instance, jobs, cache_str)

    try:
        with ResultStream(results_path, resume=resume, fsync=fsync_results) as stream:
            with persistent_cache(parent_store):
                with tracer.span(
                    "batch.run", instances=len(corpus), jobs=jobs or 1, transport=transport.name
                ):
                    transport.prepare([t for t in tasks if t.sha not in done])
                    for task in tasks:
                        reused = task.sha in done
                        record = done[task.sha] if reused else transport.collect(task)
                        if not reused:
                            stream.emit(record)
                        _absorb(summary, record, reused)
                        _report(progress, record, reused)
    finally:
        transport.close()
        if parent_store is not None:
            parent_store.close()
    summary.worker_recoveries = transport.recoveries
    summary.elapsed_s = time.perf_counter() - started
    for key, value in summary.cache.items():
        tracer.count_local(f"batch.cache.{key}", value)
    return summary
