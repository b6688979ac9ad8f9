"""Queue chaos pack: real dead hosts, real zombies, torn files.

The ISSUE-level robustness claims, end-to-end with actual processes:

- SIGKILL a worker host mid-lease → another host takes over and the
  merged results are identical (stable projection: name, resume key,
  result payload) to an uninterrupted solo run;
- SIGSTOP a worker past its lease TTL (the honest zombie: it *will*
  resume and write again) → its late records carry a stale fencing
  token and are rejected at merge;
- lease/heartbeat files torn mid-write on shared storage → liveness
  degrades to mtimes, the queue still completes, results unchanged.

Kills are progress-conditioned (poll the result streams, not the
clock), following ``test_kill_resume.py``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.batch import discover_corpus, run_batch
from repro.batch.queue import QueueConfig, QueueWorker, _Paths, enqueue, merge_queue
from repro.batch.runner import _instance_sha
from repro.batch.scheduler import SolveTask
from repro.batch.stream import canonical_json
from repro.core.synthesis import SynthesisOptions
from repro.io import save_instance
from repro.netgen import clustered_graph, two_tier_library

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


#: ``repro batch-worker`` under a ``stall`` fault before every solve
#: but the first (argv: stall seconds, then the CLI arguments).
_STALLED_WORKER = """
import sys
from repro.cli import main
from repro.runtime.faults import FaultInjector, FaultSpec
stall = FaultSpec(site="queue.solve", kind="stall", stall_s=float(sys.argv[1]), after=1)
with FaultInjector([stall]):
    sys.exit(main(sys.argv[2:]))
"""


def _spawn_worker(queue_dir, host_id, solve_stall_s=None):
    """A ``repro batch-worker`` host process.  With ``solve_stall_s``
    every solve after the first waits that long first, so a signal sent
    once the first record lands finds the host mid-shard however fast
    the instances solve."""
    argv = ["batch-worker", str(queue_dir), "--host-id", host_id]
    if solve_stall_s is None:
        command = [sys.executable, "-m", "repro", *argv]
    else:
        command = [sys.executable, "-c", _STALLED_WORKER, str(solve_stall_s), *argv]
    return subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=_env(),
    )


def _stream_record_count(paths: _Paths) -> int:
    total = 0
    for path in paths.results.glob("*.jsonl"):
        try:
            total += path.read_bytes().count(b"\n")
        except OSError:  # pragma: no cover - racing writer
            continue
    return total


def _wait_for_records(paths: _Paths, proc, n: int, timeout_s: float = 300.0) -> bool:
    """Poll until the queue's streams hold >= n records; False if the
    worker exited first (it finished everything — nothing to disrupt)."""
    deadline = time.monotonic() + timeout_s
    while _stream_record_count(paths) < n:
        if proc.poll() is not None:
            return False
        if time.monotonic() > deadline:  # pragma: no cover - hang guard
            proc.kill()
            proc.wait(timeout=60)
            raise AssertionError(f"worker made no progress to {n} records")
        time.sleep(0.01)
    return True


def _stable(records_by_sha):
    return sorted(
        (r["name"], sha, canonical_json(r.get("result")))
        for sha, r in records_by_sha.items()
    )


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("chaos-corpus")
    library = two_tier_library()
    for i in range(4):
        graph = clustered_graph(
            n_clusters=2, ports_per_cluster=3, n_arcs=4, separation=100.0, seed=40 + i,
        )
        save_instance(directory / f"inst{i:02d}.json", graph, library)
    return directory


@pytest.fixture(scope="module")
def solo_stable(corpus_dir, tmp_path_factory):
    """The uninterrupted single-host ground truth, as the stable
    (name, resume key, result payload) projection."""
    out = tmp_path_factory.mktemp("solo") / "results.jsonl"
    summary = run_batch(discover_corpus(corpus_dir), results_path=out)
    assert summary.ok
    return sorted(
        (r["name"], r["sha"], canonical_json(r.get("result")))
        for r in summary.records
    )


def _enqueue(corpus_dir, qdir, *, lease_ttl_s, shard_size):
    corpus = discover_corpus(corpus_dir)
    options = SynthesisOptions()
    tasks = [
        SolveTask(index=i, name=r.name, path=str(r.path),
                  sha=_instance_sha(r.path, options, None))
        for i, r in enumerate(corpus)
    ]
    enqueue(qdir, tasks, options, None,
            QueueConfig(lease_ttl_s=lease_ttl_s, shard_size=shard_size))
    return _Paths(qdir)


def test_sigkill_mid_lease_takeover_matches_solo(corpus_dir, solo_stable, tmp_path):
    """Kill a worker host (SIGKILL, no cleanup) while it holds a
    multi-instance lease; a second host must take the shard over,
    inherit the dead host's durable records, and complete the corpus
    with results identical to the solo run."""
    paths = _enqueue(corpus_dir, tmp_path / "q", lease_ttl_s=2.0, shard_size=2)
    victim = _spawn_worker(tmp_path / "q", "victim")
    try:
        mid_lease = _wait_for_records(paths, victim, 1)
        if mid_lease:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=60)
            assert victim.returncode == -signal.SIGKILL
    finally:
        if victim.poll() is None:  # pragma: no cover - cleanup guard
            victim.kill()
            victim.wait(timeout=60)

    survivor = QueueWorker(tmp_path / "q", host_id="survivor", poll_s=0.05)
    survivor.run()
    records, health = merge_queue(tmp_path / "q")
    assert _stable(records) == solo_stable
    if mid_lease:
        # with shard_size=2 a kill after the first record lands mid-lease
        # unless the victim had just finished its shard — takeover count
        # proves the reclaim path ran whenever a lease was left behind
        assert health.leases_acquired >= 2


def test_sigstop_zombie_past_ttl_has_late_records_fenced(corpus_dir, solo_stable, tmp_path):
    """Freeze a worker with SIGSTOP until its lease expires, let another
    host take over and finish, then SIGCONT the zombie.  It resumes
    mid-solve and (usually) appends records at its stale token; merge
    must reject every one of them — and even when the zombie notices the
    fence before writing, the merged corpus equals the solo run."""
    paths = _enqueue(corpus_dir, tmp_path / "q", lease_ttl_s=1.0, shard_size=4)
    # the stall keeps the freeze from landing after the shard's last
    # record, where the zombie has nothing late left to write
    zombie = _spawn_worker(tmp_path / "q", "zombie", solve_stall_s=0.5)
    stopped = False
    try:
        if _wait_for_records(paths, zombie, 1):
            zombie.send_signal(signal.SIGSTOP)
            stopped = True
            time.sleep(1.5)  # the frozen heartbeat ages past the TTL

            survivor = QueueWorker(tmp_path / "q", host_id="survivor", poll_s=0.05)
            report = survivor.run()
            assert report.takeovers == 1

            zombie.send_signal(signal.SIGCONT)
        out, _ = zombie.communicate(timeout=300)
    finally:
        if zombie.poll() is None:  # pragma: no cover - cleanup guard
            if stopped:
                zombie.send_signal(signal.SIGCONT)
            zombie.kill()
            zombie.wait(timeout=60)

    records, health = merge_queue(tmp_path / "q")
    assert _stable(records) == solo_stable
    if stopped:
        assert health.takeovers >= 1
        # every record the zombie wrote after takeover carried token 1
        # and was fenced; if it wrote none, it must have reported the
        # fence instead of a completed shard
        assert health.fenced_writes >= 1 or "1 fenced" in out
        for record in records.values():
            assert record["token"] >= 1
            if record.get("host") == "zombie":
                assert record["token"] == 1  # inherited pre-takeover work


@pytest.mark.parametrize("cut_fraction", [0.0, 0.4, 0.8])
def test_torn_lease_files_end_to_end(corpus_dir, solo_stable, tmp_path, cut_fraction):
    """A host crashes leaving its lease + heartbeat torn at an arbitrary
    byte (or empty); once their mtimes age past the TTL the queue is
    still reclaimed and completes, identical to solo."""
    paths = _enqueue(corpus_dir, tmp_path / "q", lease_ttl_s=5.0, shard_size=2)
    from repro.batch.queue import try_acquire

    assert try_acquire(paths, "s0000", "crashed", ttl_s=5.0) is not None
    old = time.time() - 1000.0
    for path in (paths.lease("s0000", 1), paths.heartbeat("s0000", 1)):
        payload = path.read_bytes()
        path.write_bytes(payload[: int(len(payload) * cut_fraction)])
        os.utime(path, (old, old))

    survivor = QueueWorker(tmp_path / "q", host_id="survivor", poll_s=0.05)
    report = survivor.run()
    assert report.takeovers == 1
    records, _ = merge_queue(tmp_path / "q")
    assert _stable(records) == solo_stable


def test_two_live_workers_split_the_corpus_cleanly(corpus_dir, solo_stable, tmp_path):
    """The no-chaos baseline for this pack: two healthy subprocess
    hosts drain one queue concurrently with zero takeovers and results
    identical to solo."""
    _enqueue(corpus_dir, tmp_path / "q", lease_ttl_s=30.0, shard_size=1)
    workers = [_spawn_worker(tmp_path / "q", f"host-{i}") for i in range(2)]
    try:
        for proc in workers:
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0, out
    finally:
        for proc in workers:  # pragma: no cover - cleanup guard
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
    records, health = merge_queue(tmp_path / "q")
    assert _stable(records) == solo_stable
    assert health.takeovers == 0 and health.fenced_writes == 0
