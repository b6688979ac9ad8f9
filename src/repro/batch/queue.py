"""Coordinator-less multi-host work queue (``repro.batch.queue``).

Generalizes the batch engine from one host's process pool to a *fleet*:
any number of hosts sharing one directory (NFS mount, rsync'd dir —
anything with POSIX ``O_CREAT|O_EXCL`` and rename) lease corpus shards,
solve them, and stream results, with no coordinator process and no
network protocol.  The directory **is** the protocol:

``queue-manifest.json``
    The immutable work definition — shard list, per-instance resume
    keys (the same SHA-256 fingerprints ``repro batch --resume`` uses),
    the result-shaping options, and the fleet-wide lease TTL.  Written
    once, atomically, by :func:`enqueue`.
``instances/``
    The corpus files themselves, copied in content-addressed, so the
    queue directory is self-contained — workers need nothing but it.
``leases/<shard>.t<NNNNNN>``
    One file per (shard, **fencing token**), created with
    ``O_CREAT|O_EXCL`` — the filesystem's one atomic test-and-set.
    Token 1 is the first acquisition; each takeover of an expired lease
    creates the next-higher token, and *only one* contender's create
    can win.  ``<lease>.hb`` beside it is the holder's heartbeat,
    atomically rewritten every TTL/4.
``results/<shard>.t<NNNNNN>.jsonl``
    The token holder's CRC-tagged record stream.  Every record is
    stamped with its writer's fencing token.
``done/<shard>.t<NNNNNN>.done``
    Atomic completion marker: every instance of the shard has a durable
    record somewhere in the shard's streams.

Failure model — the reason this module exists:

- **Host death mid-shard**: heartbeats stop; after the TTL any other
  host observes the expired lease and *takes over* at token+1.  The new
  holder inherits the dead host's intact records (CRC-checked, the
  resume keys make this exactly-once) and solves only the remainder.
- **Zombie hosts**: a host that stalls (GC pause, NFS hang, SIGSTOP)
  past its TTL looks dead and gets taken over — but it is still
  running, and will eventually write again.  Its writes carry its old,
  superseded token, so :func:`merge_queue` rejects them
  deterministically: per instance, the record with the **highest
  fencing token wins**; everything below it is counted in
  ``fenced_writes``, never served.  Stale writes are harmless by
  construction, not by luck.
- **Premature takeover** (clock skew): a host whose clock runs fast
  may "expire" a perfectly live lease.  Fencing makes this safe too —
  the live holder is superseded, its later writes are fenced, and the
  merged result is still exactly-once.  Skew costs duplicated work,
  never correctness; keep skew well under the TTL (see docs/USAGE §17).
- **Torn files** (crash mid-write, partial rsync): lease/heartbeat
  metadata falls back to file mtimes when unparseable; result records
  are independent CRC-checked facts, so a torn line is skipped, never
  trusted and never fatal.

Determinism: solves are deterministic, so any interleaving of deaths,
takeovers and zombie writes merges to the same per-instance records a
solo ``repro batch`` run would produce — the chaos pack in
``tests/test_queue_chaos.py`` pins exactly that.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from ..core.cache import PersistentCache, persistent_cache
from ..core.synthesis import PruningLevel, SynthesisOptions
from ..core.exceptions import BatchError, SynthesisError
from ..io.atomic import atomic_write
from ..obs import current_tracer
from ..runtime.faults import (
    HeartbeatStallFault,
    HostDeathFault,
    StaleClockFault,
    fault_point,
)
from ..runtime.records import canonical_json
from .scheduler import SolveTask, Transport, solve_one
from .stream import ResultStream, load_stream_records

__all__ = [
    "QUEUE_VERSION",
    "QueueConfig",
    "QueueHealth",
    "QueueWorker",
    "QueueTransport",
    "WorkerReport",
    "enqueue",
    "load_manifest",
    "merge_queue",
    "queue_now",
]

#: bump on any incompatible change to the manifest/lease/record schema.
QUEUE_VERSION = 1

_MANIFEST = "queue-manifest.json"


def queue_now() -> float:
    """The queue's clock — ``time.time()`` with a fault-injection hook.

    A ``stale_clock`` :class:`~repro.runtime.faults.FaultSpec` at site
    ``"queue.clock"`` skews this host's view of time by ``skew_s``,
    so premature-takeover and late-heartbeat behaviour under clock skew
    is deterministically testable.
    """
    try:
        fault_point("queue.clock")
    except StaleClockFault as fault:
        return time.time() + fault.skew_s
    return time.time()


@dataclass(frozen=True)
class QueueConfig:
    """Fleet-wide queue parameters, frozen into the manifest at
    :func:`enqueue` time so every host agrees on them.

    ``lease_ttl_s`` is the liveness horizon: a lease whose heartbeat is
    older than this is eligible for takeover.  Choose it several times
    larger than the worst clock skew across the fleet and the shared
    storage's attribute-propagation delay, and comfortably larger than
    the heartbeat interval (TTL/4) — see docs/USAGE §17 for the
    failure-mode table.  ``shard_size`` instances per shard trades
    takeover granularity (small shards = less lost work) against lease
    traffic.  ``fsync_results`` extends record durability from
    process-crash to whole-host-crash (``--fsync-results``).
    """

    lease_ttl_s: float = 30.0
    shard_size: int = 1
    fsync_results: bool = False
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be positive, got {self.lease_ttl_s}")
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")


@dataclass
class QueueHealth:
    """Fleet-wide queue counters, derived deterministically from the
    directory state at merge time (lease files + record streams), so a
    degraded fleet is visible without log spelunking.  Also exported as
    ``batch.queue.*`` local counters and ``BatchSummary`` fields."""

    leases_acquired: int = 0
    #: leases whose holder stopped heartbeating past the TTL and were
    #: reclaimed (every takeover implies exactly one expiry).
    leases_expired: int = 0
    takeovers: int = 0
    #: CRC-valid records rejected at merge because a higher fencing
    #: token superseded them — zombie/stale writes made harmless.
    fenced_writes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "leases_acquired": self.leases_acquired,
            "leases_expired": self.leases_expired,
            "takeovers": self.takeovers,
            "fenced_writes": self.fenced_writes,
        }


@dataclass
class WorkerReport:
    """One host's participation outcome (its local view — fleet-wide
    truth lives in :class:`QueueHealth`)."""

    host_id: str = ""
    shards_completed: int = 0
    instances_solved: int = 0
    instances_inherited: int = 0
    leases_acquired: int = 0
    leases_expired: int = 0
    takeovers: int = 0
    #: this host observed itself superseded mid-shard and stopped.
    fenced: int = 0
    #: a ``host_death`` fault killed this (in-process) worker mid-shard.
    died: bool = False


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------


class _Paths:
    """Path arithmetic for one queue directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.manifest = self.root / _MANIFEST
        self.instances = self.root / "instances"
        self.leases = self.root / "leases"
        self.results = self.root / "results"
        self.done = self.root / "done"
        self.cache = self.root / "cache"

    def make_dirs(self) -> None:
        for d in (self.root, self.instances, self.leases, self.results, self.done):
            d.mkdir(parents=True, exist_ok=True)

    def lease(self, shard_id: str, token: int) -> Path:
        return self.leases / f"{shard_id}.t{token:06d}"

    def heartbeat(self, shard_id: str, token: int) -> Path:
        return self.leases / f"{shard_id}.t{token:06d}.hb"

    def stream(self, shard_id: str, token: int) -> Path:
        return self.results / f"{shard_id}.t{token:06d}.jsonl"

    def done_marker(self, shard_id: str, token: int) -> Path:
        return self.done / f"{shard_id}.t{token:06d}.done"

    def lease_tokens(self, shard_id: str) -> List[int]:
        """Existing fencing tokens for ``shard_id``, ascending."""
        tokens = []
        for path in self.leases.glob(f"{shard_id}.t*"):
            if path.suffix == ".hb":
                continue
            try:
                tokens.append(int(path.name.rsplit(".t", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(tokens)

    def stream_tokens(self, shard_id: str) -> List[int]:
        tokens = []
        for path in self.results.glob(f"{shard_id}.t*.jsonl"):
            try:
                tokens.append(int(path.name.rsplit(".t", 1)[1].split(".", 1)[0]))
            except (IndexError, ValueError):
                continue
        return sorted(tokens)

    def is_done(self, shard_id: str) -> bool:
        return any(self.done.glob(f"{shard_id}.t*.done"))


@dataclass(frozen=True)
class _ShardInstance:
    name: str
    sha: str
    file: str  # queue-relative path under instances/


@dataclass(frozen=True)
class _Shard:
    shard_id: str
    instances: Tuple[_ShardInstance, ...]

    @property
    def shas(self) -> frozenset:
        return frozenset(inst.sha for inst in self.instances)


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------


def _options_doc(options: SynthesisOptions) -> Dict[str, Any]:
    """The option surface frozen into the manifest — what a remote
    worker must reproduce for its solves to be interchangeable with the
    coordinator's."""
    return {**options.result_shaping(), "on_budget_exhausted": options.on_budget_exhausted}


def _options_from_doc(doc: Dict[str, Any]) -> SynthesisOptions:
    # manifests written before demand_margin joined the block solved at 0
    doc = {"demand_margin": 0.0, **doc}
    live = {f.name for f in fields(SynthesisOptions)}
    expected = _options_doc(SynthesisOptions())
    # a retired option solves only at the value result_shaping pins
    retired = {name: value for name, value in expected.items() if name not in live}
    try:
        kwargs = {name: doc[name] for name in expected if name in live}
        kwargs["pruning"] = PruningLevel(doc["pruning"])
        if any(doc[name] != value for name, value in retired.items()):
            raise ValueError(f"retired options must read {retired}")
        return SynthesisOptions(**kwargs)
    except (KeyError, ValueError, SynthesisError) as exc:
        raise BatchError(f"queue manifest: unusable options block: {exc!r}") from exc


def load_manifest(queue_dir: Union[str, Path]) -> Dict[str, Any]:
    """Read and structurally validate a queue manifest.

    Raises :class:`BatchError` with a path-bearing diagnostic for a
    missing directory, missing manifest, unparseable JSON, or a version
    this build cannot work."""
    paths = _Paths(queue_dir)
    if not paths.manifest.is_file():
        raise BatchError(
            f"queue {paths.root}: no {_MANIFEST} — not an enqueued work "
            "queue (enqueue with `repro batch CORPUS --queue DIR` first)"
        )
    try:
        doc = json.loads(paths.manifest.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BatchError(f"queue {paths.root}: unreadable manifest: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "repro-batch-queue":
        raise BatchError(f"queue {paths.root}: {_MANIFEST} is not a queue manifest")
    if doc.get("version") != QUEUE_VERSION:
        raise BatchError(
            f"queue {paths.root}: manifest version {doc.get('version')!r} != "
            f"this build's {QUEUE_VERSION} — re-enqueue into a fresh directory"
        )
    for key in ("shards", "options", "lease_ttl_s"):
        if key not in doc:
            raise BatchError(f"queue {paths.root}: manifest missing {key!r}")
    return doc


def _shards_from_manifest(doc: Dict[str, Any]) -> List[_Shard]:
    shards = []
    for entry in doc["shards"]:
        shards.append(
            _Shard(
                shard_id=entry["id"],
                instances=tuple(
                    _ShardInstance(name=i["name"], sha=i["sha"], file=i["file"])
                    for i in entry["instances"]
                ),
            )
        )
    return shards


def enqueue(
    queue_dir: Union[str, Path],
    tasks: Sequence[SolveTask],
    options: SynthesisOptions,
    deadline_per_instance: Optional[float],
    config: QueueConfig = QueueConfig(),
) -> Dict[str, Any]:
    """Populate ``queue_dir`` with the work definition for ``tasks``.

    Copies every instance file in (content-addressed by its resume
    key), slices the corpus into shards of ``config.shard_size`` in
    corpus order, and atomically writes the manifest.  Idempotent:
    re-enqueueing the same (or a subset of the same) work against an
    existing queue reuses it — a crashed coordinator can simply rerun —
    while a *different* corpus or option surface raises
    :class:`BatchError` instead of silently mixing two workloads.
    """
    paths = _Paths(queue_dir)
    options_doc = _options_doc(options)
    if paths.manifest.exists():
        existing = load_manifest(queue_dir)
        have = {
            inst.sha for shard in _shards_from_manifest(existing) for inst in shard.instances
        }
        compatible = (
            existing["options"] == options_doc
            and existing.get("deadline_per_instance") == deadline_per_instance
            and {t.sha for t in tasks} <= have
        )
        if not compatible:
            raise BatchError(
                f"queue {paths.root}: already enqueued with a different "
                "corpus or options — merge/finish it, or use a fresh directory"
            )
        return existing
    paths.make_dirs()
    instances = []
    for task in tasks:
        rel = f"instances/{task.sha[:24]}.json"
        target = paths.root / rel
        if not target.exists():
            atomic_write(target, Path(task.path).read_bytes())
        instances.append({"name": task.name, "sha": task.sha, "file": rel})
    shards = [
        {"id": f"s{i // config.shard_size:04d}", "instances": []}
        for i in range(0, len(instances), config.shard_size)
    ]
    for i, inst in enumerate(instances):
        shards[i // config.shard_size]["instances"].append(inst)
    doc = {
        "format": "repro-batch-queue",
        "version": QUEUE_VERSION,
        "lease_ttl_s": config.lease_ttl_s,
        "fsync_results": config.fsync_results,
        "cache": config.use_cache,
        "deadline_per_instance": deadline_per_instance,
        "options": options_doc,
        "shards": shards,
    }
    atomic_write(paths.manifest, canonical_json(doc))
    return doc


# ----------------------------------------------------------------------
# leases
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Lease:
    shard_id: str
    token: int


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    """Best-effort JSON read: ``None`` for missing, torn, or non-object
    content — torn lease metadata must degrade, never crash a host."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def _mtime(path: Path) -> Optional[float]:
    try:
        return path.stat().st_mtime
    except OSError:
        return None


def last_alive(paths: _Paths, shard_id: str, token: int) -> Optional[float]:
    """The newest liveness timestamp observable for a lease.

    Preference order: heartbeat content (the holder's own clock), lease
    content ``acquired_at``, then file mtimes — the fallback that keeps
    a *torn* lease or heartbeat file from wedging the queue: an
    unparseable file still has an mtime, so it still expires.  Returns
    ``None`` only when no evidence exists at all (treated as expired).
    """
    candidates: List[float] = []
    hb = _read_json(paths.heartbeat(shard_id, token))
    if hb is not None and isinstance(hb.get("t"), (int, float)):
        candidates.append(float(hb["t"]))
    lease = _read_json(paths.lease(shard_id, token))
    if lease is not None and isinstance(lease.get("acquired_at"), (int, float)):
        candidates.append(float(lease["acquired_at"]))
    if not candidates:  # torn metadata: fall back to write times
        for path in (paths.heartbeat(shard_id, token), paths.lease(shard_id, token)):
            stamp = _mtime(path)
            if stamp is not None:
                candidates.append(stamp)
    return max(candidates) if candidates else None


def _write_heartbeat(paths: _Paths, lease: _Lease, host_id: str, now: float) -> None:
    atomic_write(
        paths.heartbeat(lease.shard_id, lease.token),
        canonical_json({"t": now, "host": host_id}),
    )


def try_acquire(
    paths: _Paths,
    shard_id: str,
    host_id: str,
    ttl_s: float,
    clock: Callable[[], float] = queue_now,
    report: Optional[WorkerReport] = None,
) -> Optional[_Lease]:
    """Attempt to lease ``shard_id``; ``None`` when it is done, live, or
    lost to a racing contender.

    The create of the token file is the *only* synchronization
    primitive: ``O_CREAT|O_EXCL`` on the next token number.  Whoever
    loses the race sees ``FileExistsError`` and walks away — there is
    no lock to break and no coordinator to ask.
    """
    tracer = current_tracer()
    if paths.is_done(shard_id):
        return None
    tokens = paths.lease_tokens(shard_id)
    next_token = (tokens[-1] + 1) if tokens else 1
    if tokens:
        alive = last_alive(paths, shard_id, tokens[-1])
        if alive is not None and clock() - alive <= ttl_s:
            return None  # live holder
        tracer.count_local("batch.queue.leases_expired")
        if report is not None:
            report.leases_expired += 1
    lease_path = paths.lease(shard_id, next_token)
    now = clock()
    try:
        fd = os.open(lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None  # lost the takeover race — exactly one winner
    except OSError as exc:
        raise BatchError(f"queue {paths.root}: cannot create lease {lease_path}: {exc}") from exc
    with os.fdopen(fd, "w") as handle:
        handle.write(
            canonical_json({"host": host_id, "pid": os.getpid(), "acquired_at": now})
        )
    lease = _Lease(shard_id=shard_id, token=next_token)
    _write_heartbeat(paths, lease, host_id, now)
    tracer.count_local("batch.queue.leases_acquired")
    if report is not None:
        report.leases_acquired += 1
    if next_token > 1:
        tracer.count_local("batch.queue.takeovers")
        if report is not None:
            report.takeovers += 1
    return lease


# ----------------------------------------------------------------------
# the worker
# ----------------------------------------------------------------------


def default_host_id() -> str:
    import socket

    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat:
    """Background renewal of one held lease, plus the fencing watch.

    Beats every TTL/4 through :func:`atomic_write`; between beats it
    checks whether a **higher token** exists for the shard — the
    deterministic signal that this host was presumed dead and taken
    over — and if so sets ``fenced`` and stops renewing.  A
    ``heartbeat_stall`` fault at site ``"queue.heartbeat"`` makes the
    thread silently stop beating while the solve loop runs on: the
    canonical zombie, under test.
    """

    def __init__(
        self,
        paths: _Paths,
        lease: _Lease,
        host_id: str,
        ttl_s: float,
        clock: Callable[[], float],
    ) -> None:
        self._paths = paths
        self._lease = lease
        self._host_id = host_id
        self._interval = ttl_s / 4.0
        self._clock = clock
        self._stop = threading.Event()
        self.fenced = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def _superseded(self) -> bool:
        tokens = self._paths.lease_tokens(self._lease.shard_id)
        return bool(tokens) and tokens[-1] > self._lease.token

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if self._superseded():
                self.fenced.set()
                return
            try:
                fault_point("queue.heartbeat")
            except HeartbeatStallFault:
                return  # frozen heart: the solve loop becomes a zombie
            try:
                _write_heartbeat(self._paths, self._lease, self._host_id, self._clock())
            except OSError:  # storage hiccup: skip the beat, keep trying
                continue

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)


class QueueWorker:
    """One host's participation loop: scan, lease, solve, mark done.

    Runs until every shard has a completion marker (or ``max_shards``
    of its own are done).  Repeatedly: walk the shard list starting at
    a host-specific offset (spreads contenders), :func:`try_acquire`
    anything not done and not live, work what it wins, and poll-sleep
    when everything is either done or held by live peers.

    ``exit_on_death=True`` (the ``repro batch-worker`` process posture)
    turns an injected ``host_death`` fault into an abrupt
    ``os._exit(13)`` — no cleanup, no flush, the honest crash.  The
    default re-raises internally and returns a ``died`` report instead,
    so in-process tests can simulate fleets without losing the test
    runner.
    """

    def __init__(
        self,
        queue_dir: Union[str, Path],
        host_id: Optional[str] = None,
        *,
        clock: Callable[[], float] = queue_now,
        sleep: Callable[[float], None] = time.sleep,
        poll_s: Optional[float] = None,
        max_shards: Optional[int] = None,
        wait_timeout_s: Optional[float] = None,
        exit_on_death: bool = False,
        progress: Optional[TextIO] = None,
    ) -> None:
        self.paths = _Paths(queue_dir)
        self.manifest = load_manifest(queue_dir)
        self.host_id = host_id or default_host_id()
        self.shards = _shards_from_manifest(self.manifest)
        self.options = _options_from_doc(self.manifest["options"])
        self.deadline = self.manifest.get("deadline_per_instance")
        self.ttl_s = float(self.manifest["lease_ttl_s"])
        self.fsync = bool(self.manifest.get("fsync_results", False))
        self._clock = clock
        self._sleep = sleep
        # directory polls are cheap; poll well under the TTL so an
        # expired lease is reclaimed promptly and a finished fleet's
        # stragglers are noticed without a long tail sleep
        self._poll_s = poll_s if poll_s is not None else max(0.05, min(self.ttl_s / 10.0, 0.25))
        self._max_shards = max_shards
        self._wait_timeout_s = wait_timeout_s
        self._exit_on_death = exit_on_death
        self._progress = progress

    def _say(self, message: str) -> None:
        if self._progress is not None:
            print(f"  [{self.host_id}] {message}", file=self._progress)

    def run(self) -> WorkerReport:
        """Participate until the whole queue is complete; see class doc."""
        report = WorkerReport(host_id=self.host_id)
        store = (
            PersistentCache(self.paths.cache) if self.manifest.get("cache", True) else None
        )
        waited_since = time.monotonic()
        offset = hash(self.host_id) % max(1, len(self.shards))
        try:
            with persistent_cache(store):
                while True:
                    progressed = False
                    remaining = 0
                    rotation = self.shards[offset:] + self.shards[:offset]
                    for shard in rotation:
                        if self.paths.is_done(shard.shard_id):
                            continue
                        remaining += 1
                        lease = try_acquire(
                            self.paths, shard.shard_id, self.host_id, self.ttl_s,
                            clock=self._clock, report=report,
                        )
                        if lease is None:
                            continue
                        try:
                            completed = self.work_shard(shard, lease, report)
                        except HostDeathFault:
                            if self._exit_on_death:
                                os._exit(13)
                            report.died = True
                            return report
                        progressed = True
                        if completed:
                            remaining -= 1
                            report.shards_completed += 1
                            if self._max_shards is not None and (
                                report.shards_completed >= self._max_shards
                            ):
                                return report
                    if remaining == 0:
                        return report
                    if progressed:
                        waited_since = time.monotonic()
                        continue
                    if (
                        self._wait_timeout_s is not None
                        and time.monotonic() - waited_since > self._wait_timeout_s
                    ):
                        raise BatchError(
                            f"queue {self.paths.root}: {remaining} shard(s) still "
                            f"leased by live peers after waiting {self._wait_timeout_s}s"
                        )
                    self._sleep(self._poll_s)
        finally:
            if store is not None:
                store.close()

    # ------------------------------------------------------------------
    def _inherited_records(self, shard: _Shard, up_to_token: int) -> Dict[str, Dict[str, Any]]:
        """Intact, served-quality records earlier holders left behind.

        Keyed by resume sha — this is what makes takeover exactly-once:
        work a dead host durably finished is *inherited*, not redone.
        ``failed`` records are not inherited (a fresh holder retries
        them once more), matching ``--resume`` semantics.
        """
        inherited: Dict[str, Dict[str, Any]] = {}
        for token in self.paths.stream_tokens(shard.shard_id):
            if token > up_to_token:
                continue
            for record in load_stream_records(self.paths.stream(shard.shard_id, token)):
                if (
                    record.get("shard") == shard.shard_id
                    and record.get("token") == token
                    and record.get("sha") in shard.shas
                    and record.get("status") in ("ok", "degraded")
                ):
                    inherited[record["sha"]] = record
        return inherited

    def work_shard(self, shard: _Shard, lease: _Lease, report: WorkerReport) -> bool:
        """Solve one leased shard; True when it ended with a done marker.

        Every record written here is stamped with this lease's fencing
        token.  The loop aborts (returning False, lease abandoned)
        when the heartbeat watch observes a higher token — a superseded
        holder must stop, not race its successor.
        """
        tracer = current_tracer()
        inherited = self._inherited_records(shard, lease.token)
        report.instances_inherited += len(inherited)
        covered = set(inherited)
        heartbeat = _Heartbeat(
            self.paths, lease, self.host_id, self.ttl_s, self._clock
        ).start()
        stream = ResultStream(
            self.paths.stream(shard.shard_id, lease.token), resume=True, fsync=self.fsync
        )
        try:
            for inst in shard.instances:
                if heartbeat.fenced.is_set():
                    break
                if inst.sha in covered:
                    continue
                fault_point("queue.solve")
                record = solve_one(
                    inst.name, str(self.paths.root / inst.file),
                    self.options, self.deadline, inst.sha,
                )
                record.update(shard=shard.shard_id, token=lease.token, host=self.host_id)
                stream.emit(record)
                covered.add(inst.sha)
                report.instances_solved += 1
                self._say(f"{inst.name}: {record['status']} (shard {shard.shard_id} "
                          f"t{lease.token})")
        finally:
            stream.close()
            heartbeat.stop()
        if heartbeat.fenced.is_set():
            tracer.count_local("batch.queue.fenced_holders")
            report.fenced += 1
            self._say(f"fenced off shard {shard.shard_id} at t{lease.token} "
                      "(a higher token exists)")
            return False
        if covered >= shard.shas:
            atomic_write(
                self.paths.done_marker(shard.shard_id, lease.token),
                canonical_json(
                    {
                        "shard": shard.shard_id,
                        "token": lease.token,
                        "host": self.host_id,
                        "records": len(covered),
                    }
                ),
            )
            return True
        return False


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------


def merge_queue(
    queue_dir: Union[str, Path],
) -> Tuple[Dict[str, Dict[str, Any]], QueueHealth]:
    """Deterministically fold a completed queue into per-instance records.

    For every instance the record with the **highest fencing token**
    wins; every other CRC-valid record for that instance — a zombie's
    late write, a superseded holder's partial work — is counted in
    ``fenced_writes`` and discarded.  Corrupt lines were never records
    (the stream loader already dropped them).  Raises
    :class:`BatchError` when any shard lacks a completion marker (the
    fleet is not finished — keep workers running or re-run the
    coordinator, which takes expired leases over itself).
    """
    paths = _Paths(queue_dir)
    manifest = load_manifest(queue_dir)
    shards = _shards_from_manifest(manifest)
    health = QueueHealth()
    for shard_id in {s.shard_id for s in shards}:
        tokens = paths.lease_tokens(shard_id)
        health.leases_acquired += len(tokens)
        health.takeovers += sum(1 for t in tokens if t > 1)
    health.leases_expired = health.takeovers

    chosen: Dict[str, Tuple[int, Dict[str, Any]]] = {}
    incomplete = []
    for shard in shards:
        if not paths.is_done(shard.shard_id):
            incomplete.append(shard.shard_id)
            continue
        for token in paths.stream_tokens(shard.shard_id):
            for record in load_stream_records(paths.stream(shard.shard_id, token)):
                sha = record.get("sha")
                if (
                    record.get("shard") != shard.shard_id
                    or record.get("token") != token
                    or sha not in shard.shas
                ):
                    continue
                previous = chosen.get(sha)
                if previous is None:
                    chosen[sha] = (token, record)
                elif token > previous[0]:
                    chosen[sha] = (token, record)
                    health.fenced_writes += 1
                else:
                    health.fenced_writes += 1
    if incomplete:
        raise BatchError(
            f"queue {paths.root}: {len(incomplete)} shard(s) without a "
            f"completion marker ({', '.join(sorted(incomplete)[:4])}"
            f"{', ...' if len(incomplete) > 4 else ''}) — the fleet has not "
            "finished; keep a worker running or rerun the coordinator"
        )
    missing = [
        inst.name for shard in shards for inst in shard.instances if inst.sha not in chosen
    ]
    if missing:
        raise BatchError(
            f"queue {paths.root}: completion markers present but no valid "
            f"record for: {', '.join(missing[:4])}{', ...' if len(missing) > 4 else ''} "
            "— result streams were deleted or corrupted beyond their CRCs"
        )
    tracer = current_tracer()
    for name, value in health.to_dict().items():
        if value:
            tracer.count_local(f"batch.queue.{name}", value)
    return {sha: record for sha, (token, record) in chosen.items()}, health


# ----------------------------------------------------------------------
# the transport
# ----------------------------------------------------------------------


def _worker_process_main(queue_dir: str, host_id: str) -> None:
    """Entry point of a coordinator-spawned local worker process."""
    QueueWorker(queue_dir, host_id=host_id, exit_on_death=True).run()


class QueueTransport(Transport):
    """Drive a batch through the shared work queue.

    ``prepare`` does all the work: enqueue (idempotent), optionally
    seed the queue's shared cache tier from a local cache directory,
    spawn ``local_workers - 1`` extra worker *processes* (simulated
    extra hosts — real fleets run ``repro batch-worker`` on other
    machines), participate in-process until every shard is done, then
    :func:`merge_queue`.  ``collect`` just hands out merged records.
    ``on_health`` receives the fleet-wide :class:`QueueHealth` so
    ``run_batch`` can surface it in the summary.
    """

    name = "queue"

    def __init__(
        self,
        queue_dir: Union[str, Path],
        options: SynthesisOptions,
        deadline: Optional[float],
        config: QueueConfig,
        *,
        cache_dir: Optional[str] = None,
        local_workers: int = 1,
        host_id: Optional[str] = None,
        wait_timeout_s: Optional[float] = None,
        progress: Optional[TextIO] = None,
        on_health=None,
    ) -> None:
        self._queue_dir = str(queue_dir)
        self._options = options
        self._deadline = deadline
        self._config = config
        self._cache_dir = cache_dir
        self._local_workers = max(1, local_workers)
        self._host_id = host_id or default_host_id()
        self._wait_timeout_s = wait_timeout_s
        self._progress = progress
        self._on_health = on_health
        self._records: Dict[str, Dict[str, Any]] = {}
        self._processes: list = []

    def prepare(self, tasks: List[SolveTask]) -> None:
        import multiprocessing

        enqueue(self._queue_dir, tasks, self._options, self._deadline, self._config)
        paths = _Paths(self._queue_dir)
        if self._cache_dir and self._config.use_cache:
            # seed the shareable tier: local warm entries become fleet-warm
            with PersistentCache(paths.cache) as shared:
                shared.import_from(self._cache_dir)
        for i in range(self._local_workers - 1):
            process = multiprocessing.Process(
                target=_worker_process_main,
                args=(self._queue_dir, f"{self._host_id}-w{i + 1}"),
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        worker = QueueWorker(
            self._queue_dir,
            host_id=self._host_id,
            wait_timeout_s=self._wait_timeout_s,
            progress=self._progress,
        )
        worker.run()
        self._records, health = merge_queue(self._queue_dir)
        if self._on_health is not None:
            self._on_health(health)

    def collect(self, task: SolveTask) -> Dict[str, Any]:
        record = self._records.get(task.sha)
        if record is None:  # pragma: no cover - merge_queue already guards
            raise BatchError(
                f"queue {self._queue_dir}: no merged record for {task.name}"
            )
        return record

    def close(self) -> None:
        for process in self._processes:
            process.join(timeout=30.0)
            if process.is_alive():  # pragma: no cover - hung helper
                process.terminate()
        self._processes.clear()
        if self._cache_dir and self._config.use_cache:
            # harvest the fleet's work back into the local cache tier
            paths = _Paths(self._queue_dir)
            if paths.cache.is_dir():
                with PersistentCache(self._cache_dir) as local:
                    local.import_from(paths.cache)
