"""Pool-worker failure recovery: a dead worker never loses a task.

The ``worker_crash`` fault kind makes a pool worker die abruptly
(``os._exit``) mid-task — the same observable behaviour as a segfault
or an OOM kill.  ``ProcessPoolExecutor`` is fail-stop (one dead worker
breaks the whole pool), so :class:`~repro.runtime.pool.WorkerPool`
must rebuild it and re-dispatch the lost tasks.  Batch mode and the
server build on it (``test_batch.py``, ``test_serve_chaos.py``).
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import FaultInjector, FaultSpec, WorkerCrashFault
from repro.runtime import fault_point
from repro.runtime.pool import WorkerLost, WorkerPool


def test_worker_crash_fault_kind_raises_worker_crash_fault():
    spec = FaultSpec(site="batch.dispatch", kind="worker_crash")
    exc = spec.build_exception("batch.dispatch")
    assert isinstance(exc, WorkerCrashFault)
    with FaultInjector([spec]):
        with pytest.raises(WorkerCrashFault):
            fault_point("batch.dispatch")


def test_worker_crash_fault_is_not_a_synthesis_error():
    from repro import SynthesisError

    assert not issubclass(WorkerCrashFault, SynthesisError)


# ----------------------------------------------------------------------
# the pool itself
# ----------------------------------------------------------------------


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def test_one_rebuild_per_broken_pool():
    """Two tasks lost to the same dead worker: the first report rebuilds
    and re-dispatches both, the second finds its task already moved."""
    pool = WorkerPool(2, _nap, site="test.dispatch")
    try:
        with FaultInjector([FaultSpec(site="test.dispatch", kind="worker_crash", times=1)]):
            pool.submit("a", 0)  # poisoned: its worker exits at once
            pool.submit("b", 60)
        lost = {key: pool.future(key) for key in ("a", "b")}
        for future in lost.values():
            with pytest.raises(WorkerLost):
                future.result(timeout=60)
        assert pool.lost("a", lost["a"]) is False
        assert pool.lost("b", lost["b"]) is False
        assert pool.recoveries == 1
        assert pool.result("a") == 0
    finally:
        pool.kill_workers()
        pool.shutdown(wait=True)


def test_submission_to_a_pool_that_just_broke_is_recovered():
    pool = WorkerPool(1, _nap, site="test.dispatch")
    try:
        with FaultInjector([FaultSpec(site="test.dispatch", kind="worker_crash", times=1)]):
            pool.submit(0, 0)  # poisoned
            with pytest.raises(WorkerLost):
                pool.future(0).result(timeout=60)
            pool.submit(1, 0)  # the executor is already broken
        assert pool.result(0) == 0 and pool.result(1) == 0
        assert pool.recoveries == 1
    finally:
        pool.shutdown(wait=True)


_ORPHAN_PARENT = """
import json, sys, time
from repro.runtime.pool import WorkerPool

pool = WorkerPool(2, time.sleep)
pool.warm()
pool.submit(0, 30)
print(json.dumps(sorted(pool._executor._processes)), flush=True)
time.sleep(120)
"""


def _alive(pid):
    """True while ``pid`` runs; a zombie nobody reaps yet counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    with contextlib.suppress(OSError):
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    return True


def test_workers_exit_when_their_parent_is_sigkilled():
    """A parent killed without a shutdown leaves no workers behind: the
    busy one and the idle one blocked on the call queue both exit."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_PARENT], stdout=subprocess.PIPE, text=True, env=env
    )
    workers = []
    try:
        workers = json.loads(parent.stdout.readline())
        assert len(workers) == 2
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=60)
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        parent.kill()
        parent.wait(timeout=60)
        parent.stdout.close()
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
