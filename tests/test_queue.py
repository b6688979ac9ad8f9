"""Multi-host work queue: leases, fencing tokens, exactly-once merge.

The contract under test (:mod:`repro.batch.queue`): any fleet of hosts
sharing one queue directory produces merged results identical to a solo
run — under lease takeover, zombie writers at stale fencing tokens,
clock skew, and lease/heartbeat files torn at every byte.  The
subprocess chaos pack (real SIGKILL/SIGSTOP hosts) lives in
``test_queue_chaos.py``; everything here is deterministic in-process.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.batch import discover_corpus, run_batch
from repro.batch.queue import (
    QueueConfig,
    QueueWorker,
    _Paths,
    enqueue,
    last_alive,
    load_manifest,
    merge_queue,
    queue_now,
    try_acquire,
)
from repro.batch.runner import _instance_sha
from repro.batch.scheduler import SolveTask
from repro.batch.stream import canonical_json, record_crc
from repro.core.exceptions import BatchError
from repro.core.synthesis import SynthesisOptions
from repro.io import save_instance
from repro.netgen import clustered_graph, two_tier_library
from repro.runtime.faults import FaultInjector, FaultSpec


def _make_corpus(directory: Path, count: int = 3, start_seed: int = 0) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    library = two_tier_library()
    for i in range(count):
        graph = clustered_graph(
            n_clusters=2, ports_per_cluster=3, n_arcs=4,
            separation=100.0, seed=start_seed + i,
        )
        save_instance(directory / f"inst{i:02d}.json", graph, library)
    return directory


def _tasks(corpus, options, deadline=None):
    return [
        SolveTask(index=i, name=r.name, path=str(r.path),
                  sha=_instance_sha(r.path, options, deadline))
        for i, r in enumerate(corpus)
    ]


def _enqueued(tmp_path, count=2, **config):
    """A populated queue directory plus its paths/tasks, ready to lease."""
    corpus = discover_corpus(_make_corpus(tmp_path / "corpus", count=count))
    options = SynthesisOptions()
    tasks = _tasks(corpus, options)
    qdir = tmp_path / "q"
    enqueue(qdir, tasks, options, None, QueueConfig(**config))
    return qdir, _Paths(qdir), tasks, options


def _stable(records):
    """The cross-run-comparable projection of a record collection."""
    return sorted(
        (r["name"], r["sha"], canonical_json(r.get("result")))
        for r in (records.values() if isinstance(records, dict) else records)
    )


def _stream_stable(path: Path):
    out = []
    for raw in path.read_bytes().splitlines():
        r = json.loads(raw)
        out.append((r["name"], r["sha"], canonical_json(r.get("result"))))
    return sorted(out)


# ----------------------------------------------------------------------
# manifest / enqueue
# ----------------------------------------------------------------------


def test_enqueue_is_idempotent(tmp_path):
    qdir, _, tasks, options = _enqueued(tmp_path)
    first = load_manifest(qdir)
    again = enqueue(qdir, tasks, options, None, QueueConfig())
    assert again == first


def test_enqueue_refuses_a_different_workload(tmp_path):
    qdir, _, tasks, options = _enqueued(tmp_path)
    other = SynthesisOptions(max_arity=2)
    with pytest.raises(BatchError, match="different"):
        enqueue(qdir, tasks, other, None, QueueConfig())


def test_manifest_options_round_trip(tmp_path):
    options = SynthesisOptions(
        demand_margin=0.5, strategy="decompose",
        on_budget_exhausted="fail", hop_penalty=2.0,
    )
    corpus = discover_corpus(_make_corpus(tmp_path / "corpus", count=1))
    qdir = tmp_path / "q"
    enqueue(qdir, _tasks(corpus, options), options, None, QueueConfig())
    assert QueueWorker(qdir).options == options


def test_manifest_without_demand_margin_solves_at_zero(tmp_path):
    """Manifests enqueued before the margin joined the options block."""
    options = SynthesisOptions(demand_margin=0.5)
    corpus = discover_corpus(_make_corpus(tmp_path / "corpus", count=1))
    qdir = tmp_path / "q"
    enqueue(qdir, _tasks(corpus, options), options, None, QueueConfig())
    doc = load_manifest(qdir)
    del doc["options"]["demand_margin"]
    _Paths(qdir).manifest.write_text(canonical_json(doc))
    assert QueueWorker(qdir).options == SynthesisOptions()


@pytest.mark.parametrize(
    "key, value", [("ucp_solver", "ilp"), ("drop_dominated", True), ("max_cluster_arcs", 4)]
)
def test_manifest_with_a_retired_option_value_is_refused(tmp_path, key, value):
    """Manifests keep the retired options at their pinned values; one
    enqueued with another value cannot be solved the same way."""
    corpus = discover_corpus(_make_corpus(tmp_path / "corpus", count=1))
    qdir = tmp_path / "q"
    enqueue(qdir, _tasks(corpus, SynthesisOptions()), SynthesisOptions(), None, QueueConfig())
    doc = load_manifest(qdir)
    doc["options"][key] = value
    _Paths(qdir).manifest.write_text(canonical_json(doc))
    with pytest.raises(BatchError, match="retired options"):
        QueueWorker(qdir)


@pytest.mark.parametrize(
    "key, value", [("max_arity", 0), ("strategy", "colgen"), ("demand_margin", -1.0)]
)
def test_manifest_with_an_invalid_option_value_is_refused(tmp_path, key, value):
    """A value SynthesisOptions refuses fails the worker up front, as a
    BatchError, instead of solving every shard into the same error."""
    corpus = discover_corpus(_make_corpus(tmp_path / "corpus", count=1))
    qdir = tmp_path / "q"
    enqueue(qdir, _tasks(corpus, SynthesisOptions()), SynthesisOptions(), None, QueueConfig())
    doc = load_manifest(qdir)
    doc["options"][key] = value
    _Paths(qdir).manifest.write_text(canonical_json(doc))
    with pytest.raises(BatchError, match=key):
        QueueWorker(qdir)


def test_enqueue_shards_in_corpus_order(tmp_path):
    qdir, _, tasks, _ = _enqueued(tmp_path, count=5, shard_size=2)
    doc = load_manifest(qdir)
    assert [s["id"] for s in doc["shards"]] == ["s0000", "s0001", "s0002"]
    flat = [i["sha"] for s in doc["shards"] for i in s["instances"]]
    assert flat == [t.sha for t in tasks]


def test_enqueue_copies_instances_in(tmp_path):
    qdir, paths, tasks, _ = _enqueued(tmp_path)
    for task in tasks:
        copied = paths.root / f"instances/{task.sha[:24]}.json"
        assert copied.read_bytes() == Path(task.path).read_bytes()


@pytest.mark.parametrize("damage", ["missing_dir", "missing_manifest", "bad_json",
                                    "wrong_format", "wrong_version"])
def test_unusable_queue_directories_are_batch_errors(tmp_path, damage):
    qdir = tmp_path / "q"
    if damage != "missing_dir":
        qdir.mkdir()
    if damage == "bad_json":
        (qdir / "queue-manifest.json").write_text("{torn")
    elif damage == "wrong_format":
        (qdir / "queue-manifest.json").write_text('{"format": "other"}')
    elif damage == "wrong_version":
        (qdir / "queue-manifest.json").write_text(
            '{"format": "repro-batch-queue", "version": 999}')
    with pytest.raises(BatchError, match=str(qdir)):
        load_manifest(qdir)


@pytest.mark.parametrize("bad", [{"lease_ttl_s": 0}, {"lease_ttl_s": -1}, {"shard_size": 0}])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        QueueConfig(**bad)


# ----------------------------------------------------------------------
# leases: acquire, expiry, takeover, races
# ----------------------------------------------------------------------


def test_first_acquire_gets_token_one(tmp_path):
    _, paths, _, _ = _enqueued(tmp_path)
    lease = try_acquire(paths, "s0000", "host-a", ttl_s=30.0)
    assert lease is not None and lease.token == 1
    assert paths.lease("s0000", 1).exists()
    assert paths.heartbeat("s0000", 1).exists()


def test_live_lease_blocks_contenders(tmp_path):
    _, paths, _, _ = _enqueued(tmp_path)
    assert try_acquire(paths, "s0000", "host-a", ttl_s=30.0) is not None
    assert try_acquire(paths, "s0000", "host-b", ttl_s=30.0) is None


def test_expired_lease_is_taken_over_at_next_token(tmp_path):
    _, paths, _, _ = _enqueued(tmp_path)
    assert try_acquire(paths, "s0000", "host-a", ttl_s=30.0) is not None
    # the holder dies: its heartbeat freezes; a fake clock jumps past TTL
    future = time.time() + 100.0
    lease = try_acquire(paths, "s0000", "host-b", ttl_s=30.0, clock=lambda: future)
    assert lease is not None and lease.token == 2


def test_lost_takeover_race_walks_away(tmp_path, monkeypatch):
    """Two contenders race the same takeover: both see [token 1] and
    compute next=2, but only one O_EXCL create can win.  The loser —
    simulated by a directory scan from before the winner's create —
    hits FileExistsError and walks away empty-handed."""
    _, paths, _, _ = _enqueued(tmp_path)
    assert try_acquire(paths, "s0000", "host-a", ttl_s=30.0) is not None
    monkeypatch.setattr(paths, "lease_tokens", lambda shard_id: [1])
    paths.lease("s0000", 2).write_text("{}")  # the winner got there first
    future = time.time() + 100.0
    assert try_acquire(paths, "s0000", "host-b", ttl_s=30.0, clock=lambda: future) is None


def test_done_shard_is_never_leased(tmp_path):
    _, paths, _, _ = _enqueued(tmp_path)
    paths.done_marker("s0000", 1).write_text("{}")
    assert try_acquire(paths, "s0000", "host-a", ttl_s=30.0) is None


def test_heartbeat_refreshes_liveness(tmp_path):
    from repro.batch.queue import _Lease, _write_heartbeat

    _, paths, _, _ = _enqueued(tmp_path)
    lease = try_acquire(paths, "s0000", "host-a", ttl_s=30.0)
    stamp = time.time() + 1000.0
    _write_heartbeat(paths, _Lease("s0000", lease.token), "host-a", stamp)
    assert last_alive(paths, "s0000", lease.token) == pytest.approx(stamp)


# ----------------------------------------------------------------------
# torn lease/heartbeat files at every byte
# ----------------------------------------------------------------------


def test_torn_lease_files_at_every_byte_never_crash_liveness(tmp_path):
    """Truncate the lease and heartbeat files at *every* byte offset;
    liveness evaluation must classify (via the mtime fallback), never
    raise, and a fresh torn file must still read as live."""
    _, paths, _, _ = _enqueued(tmp_path)
    assert try_acquire(paths, "s0000", "host-a", ttl_s=30.0) is not None
    lease_bytes = paths.lease("s0000", 1).read_bytes()
    hb_bytes = paths.heartbeat("s0000", 1).read_bytes()
    for path, payload in ((paths.lease("s0000", 1), lease_bytes),
                          (paths.heartbeat("s0000", 1), hb_bytes)):
        for cut in range(len(payload) + 1):
            path.write_bytes(payload[:cut])
            alive = last_alive(paths, "s0000", 1)
            assert alive is not None  # mtime fallback at minimum
            # freshly-written torn file ⇒ still within TTL ⇒ blocked
            assert try_acquire(paths, "s0000", "host-b", ttl_s=30.0) is None
        path.write_bytes(payload)


def test_torn_lease_still_expires_via_mtime(tmp_path):
    _, paths, _, _ = _enqueued(tmp_path)
    assert try_acquire(paths, "s0000", "host-a", ttl_s=30.0) is not None
    # tear both metadata files AND age their mtimes past the TTL
    old = time.time() - 1000.0
    for path in (paths.lease("s0000", 1), paths.heartbeat("s0000", 1)):
        path.write_bytes(path.read_bytes()[:3])
        os.utime(path, (old, old))
    lease = try_acquire(paths, "s0000", "host-b", ttl_s=30.0)
    assert lease is not None and lease.token == 2


# ----------------------------------------------------------------------
# merge: max-token-wins fencing
# ----------------------------------------------------------------------


def _plant_record(paths, shard_id, token, sha, name, payload="x"):
    record = {"name": name, "sha": sha, "status": "ok", "cost": 1.0,
              "result": {"v": payload}, "shard": shard_id, "token": token,
              "host": "planted"}
    with open(paths.stream(shard_id, token), "ab") as f:
        f.write((canonical_json(dict(record, crc=record_crc(record))) + "\n").encode())


def test_merge_highest_token_wins_and_counts_fenced(tmp_path):
    qdir, paths, tasks, _ = _enqueued(tmp_path, count=1)
    sha = tasks[0].sha
    _plant_record(paths, "s0000", 1, sha, "inst00", payload="stale-zombie")
    _plant_record(paths, "s0000", 2, sha, "inst00", payload="fresh")
    paths.lease("s0000", 1).write_text("{}")
    paths.lease("s0000", 2).write_text("{}")
    paths.done_marker("s0000", 2).write_text("{}")
    records, health = merge_queue(qdir)
    assert records[sha]["result"] == {"v": "fresh"}
    assert records[sha]["token"] == 2
    assert health.fenced_writes == 1
    assert health.takeovers == 1 and health.leases_acquired == 2


def test_merge_rejects_records_for_the_wrong_shard_or_token(tmp_path):
    qdir, paths, tasks, _ = _enqueued(tmp_path, count=1)
    sha = tasks[0].sha
    # a record whose embedded token disagrees with its stream file is a
    # forgery/copy artifact, never trusted
    record = {"name": "inst00", "sha": sha, "status": "ok", "result": {},
              "shard": "s0000", "token": 7, "host": "liar"}
    with open(paths.stream("s0000", 1), "ab") as f:
        f.write((canonical_json(dict(record, crc=record_crc(record))) + "\n").encode())
    paths.done_marker("s0000", 1).write_text("{}")
    with pytest.raises(BatchError, match="no valid record"):
        merge_queue(qdir)


def test_merge_refuses_an_unfinished_queue(tmp_path):
    qdir, _, _, _ = _enqueued(tmp_path, count=2)
    with pytest.raises(BatchError, match="without a completion marker"):
        merge_queue(qdir)


# ----------------------------------------------------------------------
# end-to-end: queue == solo, inheritance, zombies, clock skew
# ----------------------------------------------------------------------


def test_queue_run_matches_solo_run(tmp_path):
    corpus = discover_corpus(_make_corpus(tmp_path / "corpus"))
    solo = run_batch(corpus, results_path=tmp_path / "solo.jsonl")
    queued = run_batch(corpus, results_path=tmp_path / "q.jsonl",
                       queue_dir=tmp_path / "q", lease_ttl_s=10.0)
    assert solo.ok and queued.ok
    assert _stream_stable(tmp_path / "solo.jsonl") == _stream_stable(tmp_path / "q.jsonl")
    assert queued.leases_acquired == len(corpus)
    assert queued.takeovers == 0 and queued.fenced_writes == 0


def test_takeover_inherits_finished_records_exactly_once(tmp_path):
    """A host dies after finishing 1 of its shard's 2 instances; the
    takeover host inherits that record and solves only the other."""
    qdir, paths, tasks, _ = _enqueued(tmp_path, count=2, shard_size=2)
    # host A leases, solves instance 0, then "dies"
    worker_a = QueueWorker(qdir, host_id="host-a", poll_s=0.01)
    shard = worker_a.shards[0]
    lease = try_acquire(paths, shard.shard_id, "host-a", ttl_s=30.0)
    from repro.batch.scheduler import solve_one

    inst = shard.instances[0]
    record = solve_one(inst.name, str(paths.root / inst.file),
                       worker_a.options, None, inst.sha)
    record.update(shard=shard.shard_id, token=lease.token, host="host-a")
    with open(paths.stream(shard.shard_id, lease.token), "ab") as f:
        f.write((canonical_json(dict(record, crc=record_crc(record))) + "\n").encode())
    # TTL passes (fake clock); host B takes over and finishes the shard
    future = lambda: time.time() + 100.0  # noqa: E731
    worker_b = QueueWorker(qdir, host_id="host-b", clock=future, poll_s=0.01)
    report = worker_b.run()
    assert report.takeovers == 1
    assert report.instances_inherited == 1  # not re-solved
    assert report.instances_solved == 1
    records, health = merge_queue(qdir)
    assert len(records) == 2 and health.takeovers == 1


def test_zombie_late_write_is_fenced_deterministically(tmp_path):
    """The ISSUE's zombie scenario, deterministic: a host's heartbeat
    froze, its lease was taken over at token 2, and then the zombie's
    in-flight solve lands a record at stale token 1 — merge must fence
    it and serve the token-2 record."""
    qdir, paths, tasks, _ = _enqueued(tmp_path, count=1)
    sha = tasks[0].sha
    # zombie acquired at t1, heartbeat frozen past the TTL
    assert try_acquire(paths, "s0000", "zombie", ttl_s=30.0) is not None
    old = time.time() - 1000.0
    for path in (paths.lease("s0000", 1), paths.heartbeat("s0000", 1)):
        os.utime(path, (old, old))
    # survivor takes over, completes the shard at token 2
    survivor = QueueWorker(qdir, host_id="survivor", poll_s=0.01)
    report = survivor.run()
    assert report.takeovers == 1 and report.shards_completed == 1
    # ... and only now the zombie's stale write lands
    _plant_record(paths, "s0000", 1, sha, tasks[0].name, payload="zombie-stale")
    records, health = merge_queue(qdir)
    assert records[sha]["token"] == 2
    assert records[sha]["result"] != {"v": "zombie-stale"}
    assert health.fenced_writes >= 1


def test_heartbeat_stall_fault_freezes_renewal(tmp_path):
    """A ``heartbeat_stall`` fault makes the heartbeat thread stop
    renewing: liveness ages, and a contender with a fake future clock
    can take the shard over while the spec is active."""
    from repro.batch.queue import _Heartbeat, _Lease

    _, paths, _, _ = _enqueued(tmp_path)
    lease = try_acquire(paths, "s0000", "zombie", ttl_s=0.2)
    with FaultInjector([FaultSpec(site="queue.heartbeat", kind="heartbeat_stall")]):
        hb = _Heartbeat(paths, _Lease("s0000", lease.token), "zombie", 0.2, time.time)
        hb.start()
        time.sleep(0.3)  # > one renewal interval: the stall has fired
        frozen_at = last_alive(paths, "s0000", 1)
        time.sleep(0.3)
        assert last_alive(paths, "s0000", 1) == frozen_at  # no renewals
        hb.stop()
    lease2 = try_acquire(paths, "s0000", "contender", ttl_s=0.2,
                         clock=lambda: time.time() + 10.0)
    assert lease2 is not None and lease2.token == 2


def test_stale_clock_fault_causes_premature_takeover_safely(tmp_path):
    """A host whose clock runs fast "expires" a perfectly live lease.
    Fencing keeps that safe: the takeover happens at a higher token, so
    merge order is still deterministic."""
    _, paths, _, _ = _enqueued(tmp_path)
    assert try_acquire(paths, "s0000", "honest", ttl_s=30.0) is not None
    with FaultInjector([FaultSpec(site="queue.clock", kind="stale_clock", skew_s=1000.0)]):
        assert queue_now() > time.time() + 500.0
        lease = try_acquire(paths, "s0000", "skewed", ttl_s=30.0, clock=queue_now)
    assert lease is not None and lease.token == 2  # premature but fenced


def test_host_death_fault_abandons_the_lease_in_process(tmp_path):
    qdir, paths, _, _ = _enqueued(tmp_path, count=1)
    with FaultInjector([FaultSpec(site="queue.solve", kind="host_death")]):
        report = QueueWorker(qdir, host_id="doomed", poll_s=0.01).run()
    assert report.died and report.shards_completed == 0
    assert not paths.is_done("s0000")
    # the queue is still completable by a healthy successor
    future = lambda: time.time() + 100.0  # noqa: E731
    report2 = QueueWorker(qdir, host_id="healthy", clock=future, poll_s=0.01).run()
    assert report2.shards_completed == 1
    records, _ = merge_queue(qdir)
    assert len(records) == 1


def test_worker_on_a_live_foreign_lease_times_out_with_diagnostic(tmp_path):
    qdir, paths, _, _ = _enqueued(tmp_path, count=1)
    assert try_acquire(paths, "s0000", "other-host", ttl_s=30.0) is not None
    worker = QueueWorker(qdir, host_id="waiter", poll_s=0.01, wait_timeout_s=0.05)
    with pytest.raises(BatchError, match="leased by live peers"):
        worker.run()


# ----------------------------------------------------------------------
# CLI satellites
# ----------------------------------------------------------------------


def test_cli_resume_missing_results_is_a_clean_exit_5(tmp_path, capsys):
    from repro.cli import main as cli_main

    corpus_dir = _make_corpus(tmp_path / "corpus", count=1)
    rc = cli_main(["batch", str(corpus_dir), "--resume",
                   "--results", str(tmp_path / "never-written.jsonl"), "--quiet"])
    assert rc == 5
    err = capsys.readouterr().err
    assert "results.resume" in err and str(tmp_path / "never-written.jsonl") in err
    assert "Traceback" not in err


def test_cli_resume_results_is_a_directory_is_a_clean_exit_5(tmp_path, capsys):
    from repro.cli import main as cli_main

    corpus_dir = _make_corpus(tmp_path / "corpus", count=1)
    target = tmp_path / "results-dir"
    target.mkdir()
    rc = cli_main(["batch", str(corpus_dir), "--resume",
                   "--results", str(target), "--quiet"])
    assert rc == 5
    assert "is not a regular file" in capsys.readouterr().err


def test_fsync_results_stream_is_identical_to_default(tmp_path):
    corpus = discover_corpus(_make_corpus(tmp_path / "corpus", count=1))
    plain = run_batch(corpus, results_path=tmp_path / "plain.jsonl")
    synced = run_batch(corpus, results_path=tmp_path / "sync.jsonl", fsync_results=True)
    assert plain.ok and synced.ok
    assert _stream_stable(tmp_path / "plain.jsonl") == _stream_stable(tmp_path / "sync.jsonl")
