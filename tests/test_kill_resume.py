"""SIGKILL-and-resume: the tentpole end-to-end crash-tolerance claim.

A synthesis process is killed with SIGKILL (no cleanup, no atexit — the
honest crash) at assorted points mid-run, then resumed from its
checkpoint journal.  The resumed run must produce a result identical
(modulo wall-clock timing) to an uninterrupted run, no matter where the
kill landed — including kills that corrupt the journal tail mid-append.
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

from repro.cli import EXIT_CHECKPOINT_INCOMPATIBLE

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=timeout,
    )


def _synthesize_args(instance, journal, out):
    return (
        "synthesize", str(instance),
        "--max-arity", "3",
        "--checkpoint", str(journal),
        "--resume",
        "--quiet",
        "--out", str(out),
    )


def _comparable(out_path):
    doc = json.loads(Path(out_path).read_text())
    doc.pop("elapsed_seconds")
    return doc


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "mpeg4.json"
    proc = _cli("demo", "mpeg4", "--save", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


@pytest.fixture(scope="module")
def clean_result(instance, tmp_path_factory):
    out = tmp_path_factory.mktemp("clean") / "out.json"
    proc = _cli(
        "synthesize", str(instance), "--max-arity", "3", "--quiet", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    return _comparable(out)


def _journal_records(journal):
    """Completed (newline-terminated) records currently in the journal."""
    try:
        return journal.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


def _kill_at_progress(instance, journal, out, min_records, timeout_s=300):
    """Start a checkpointed synthesis and SIGKILL it once the journal
    holds at least ``min_records`` durable records.

    Progress-conditioned rather than time-conditioned: under a loaded
    machine (e.g. ``pytest -n auto``) a wall-clock delay lands at an
    arbitrary — possibly post-exit — point, while a record count pins
    the kill to a reproducible stage of the run.  Returns True when the
    kill landed; False when the run finished before reaching the
    threshold (still a valid, trivial resume case).
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *_synthesize_args(instance, journal, out)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_env(),
    )
    deadline = time.monotonic() + timeout_s
    while _journal_records(journal) < min_records:
        if proc.poll() is not None:
            return False  # finished first; nothing left to kill
        if time.monotonic() > deadline:  # pragma: no cover - hang guard
            proc.kill()
            proc.wait(timeout=60)
            raise AssertionError(
                f"synthesis made no progress: journal never reached "
                f"{min_records} records within {timeout_s}s"
            )
        time.sleep(0.01)
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL
    return True


@pytest.mark.parametrize("min_records", [1, 3, 6, 10])
def test_sigkill_then_resume_is_identical(instance, clean_result, tmp_path, min_records):
    journal = tmp_path / f"j-{min_records}.ckpt"
    out = tmp_path / f"out-{min_records}.json"
    _kill_at_progress(instance, journal, out, min_records)
    resumed = _cli(*_synthesize_args(instance, journal, out))
    assert resumed.returncode == 0, resumed.stderr
    assert _comparable(out) == clean_result


def test_kill_resume_kill_resume(instance, clean_result, tmp_path):
    """Multiple kills of the same journal: progress accumulates."""
    journal = tmp_path / "j.ckpt"
    out = tmp_path / "out.json"
    killed_at = _journal_records(journal)
    for extra in (1, 2):
        # each round demands strictly more durable records than the
        # last kill left behind, so every kill lands mid-progress
        _kill_at_progress(instance, journal, out, killed_at + extra)
        killed_at = _journal_records(journal)
    final = _cli(*_synthesize_args(instance, journal, out))
    assert final.returncode == 0, final.stderr
    assert _comparable(out) == clean_result


def test_resume_over_a_journal_with_torn_tail(instance, clean_result, tmp_path):
    """Corrupt the journal the way a crash mid-append would, then resume."""
    journal = tmp_path / "j.ckpt"
    out = tmp_path / "out.json"
    done = _cli(*_synthesize_args(instance, journal, out))
    assert done.returncode == 0, done.stderr
    raw = journal.read_bytes()
    assert raw.count(b"\n") >= 2
    journal.write_bytes(raw[:-3])  # tear the final record mid-line
    resumed = _cli(*_synthesize_args(instance, journal, out))
    assert resumed.returncode == 0, resumed.stderr
    assert "discarded corrupted journal tail" in resumed.stderr
    assert _comparable(out) == clean_result


def test_resume_against_wrong_instance_exits_6(instance, tmp_path):
    journal = tmp_path / "j.ckpt"
    out = tmp_path / "out.json"
    done = _cli(*_synthesize_args(instance, journal, out))
    assert done.returncode == 0, done.stderr
    other = tmp_path / "wan.json"
    saved = _cli("demo", "wan", "--save", str(other))
    assert saved.returncode == 0, saved.stderr
    clash = _cli(*_synthesize_args(other, journal, out))
    assert clash.returncode == EXIT_CHECKPOINT_INCOMPATIBLE, clash.stdout + clash.stderr
    assert "different instance" in clash.stderr
    assert "Traceback" not in clash.stderr


def test_resume_without_checkpoint_is_a_usage_error(instance):
    proc = _cli("synthesize", str(instance), "--resume", "--quiet")
    assert proc.returncode == 2
    assert "--resume requires --checkpoint" in proc.stderr
