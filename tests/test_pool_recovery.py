"""Pool-worker failure recovery: a dead worker never kills synthesis.

The ``worker_crash`` fault kind makes a pool worker die abruptly
(``os._exit``) mid-chunk — the same observable behaviour as a segfault
or an OOM kill.  ``ProcessPoolExecutor`` is fail-stop (one dead worker
breaks the whole pool), so the dispatcher must rebuild the pool,
re-dispatch the lost chunks, and still produce the byte-identical
candidate set, with the recovery visible in the stats and the
degradation report.
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

from repro import (
    Budget,
    FaultInjector,
    FaultSpec,
    SynthesisOptions,
    WorkerCrashFault,
    generate_candidates,
    synthesize,
)
from repro.runtime import fault_point
from repro.domains import mpeg4_example
from repro.domains.mpeg4 import MPEG4_MAX_ARITY
from repro.obs import Tracer, tracing
from repro.runtime.pool import WorkerLost, WorkerPool


@pytest.fixture(scope="module")
def mpeg4():
    return mpeg4_example()


def _candidate_key(cs):
    return [(c.arc_names, c.label(), c.cost) for c in cs.all]


def test_worker_crash_fault_kind_raises_worker_crash_fault():
    spec = FaultSpec(site="pool.dispatch.k2", kind="worker_crash")
    exc = spec.build_exception("pool.dispatch.k2")
    assert isinstance(exc, WorkerCrashFault)
    with FaultInjector([spec]):
        with pytest.raises(WorkerCrashFault):
            fault_point("pool.dispatch.k2")


@pytest.mark.parametrize("arity", [2, 3])
def test_crash_during_arity_k_recovers_identically(mpeg4, arity):
    graph, library = mpeg4
    clean = generate_candidates(graph, library, max_arity=MPEG4_MAX_ARITY, jobs=2)
    spec = FaultSpec(site=f"pool.dispatch.k{arity}", kind="worker_crash", times=1)
    with FaultInjector([spec], seed=11):
        crashed = generate_candidates(graph, library, max_arity=MPEG4_MAX_ARITY, jobs=2)
    assert _candidate_key(clean) == _candidate_key(crashed)
    assert crashed.stats.worker_recoveries >= 1
    assert clean.stats.worker_recoveries == 0


def test_repeated_crashes_fall_back_to_serial_solve(mpeg4):
    """A chunk whose re-dispatch dies again is solved in-process."""
    graph, library = mpeg4
    clean = generate_candidates(graph, library, max_arity=MPEG4_MAX_ARITY, jobs=2)
    spec = FaultSpec(site="pool.dispatch.*", kind="worker_crash")  # every dispatch
    tracer = Tracer(label="rescue")
    with tracing(tracer), FaultInjector([spec], seed=0):
        crashed = generate_candidates(graph, library, max_arity=MPEG4_MAX_ARITY, jobs=2)
    assert _candidate_key(clean) == _candidate_key(crashed)
    assert crashed.stats.worker_recoveries >= 1
    assert tracer.local_counters.get("pool.inprocess_rescues", 0) >= 1


def test_recoveries_reach_the_degradation_report(mpeg4, tmp_path):
    graph, library = mpeg4
    options = SynthesisOptions(max_arity=MPEG4_MAX_ARITY, jobs=2)
    spec = FaultSpec(site="pool.dispatch.k2", kind="worker_crash", times=1)
    with FaultInjector([spec], seed=5):
        result = synthesize(graph, library, options, budget=Budget(deadline_s=120.0))
    assert result.degradation is not None
    assert result.degradation.worker_recoveries >= 1
    assert f"worker_recoveries={result.degradation.worker_recoveries}" in (
        result.degradation.summary()
    )
    assert result.degradation.to_dict()["worker_recoveries"] >= 1


def test_recoveries_are_counted_locally_in_the_tracer(mpeg4):
    graph, library = mpeg4
    tracer = Tracer(label="crash")
    spec = FaultSpec(site="pool.dispatch.k2", kind="worker_crash", times=1)
    with tracing(tracer):
        with FaultInjector([spec], seed=5):
            generate_candidates(graph, library, max_arity=MPEG4_MAX_ARITY, jobs=2)
    # local (process-dependent) counter, so serial-vs-parallel counter
    # identity assertions elsewhere stay valid
    assert tracer.local_counters.get("pool.worker_recoveries", 0) >= 1
    assert "pool.worker_recoveries" not in tracer.counters


def test_crash_with_checkpoint_journal_composes(mpeg4, tmp_path):
    """Crash recovery and the journal are orthogonal: a crashed run's
    journal resumes to the identical result."""
    graph, library = mpeg4
    path = str(tmp_path / "j.ckpt")
    options = SynthesisOptions(
        max_arity=MPEG4_MAX_ARITY, jobs=2, checkpoint_path=path
    )
    spec = FaultSpec(site="pool.dispatch.k2", kind="worker_crash", times=1)
    with FaultInjector([spec], seed=9):
        crashed = synthesize(graph, library, options)
    resumed = synthesize(
        graph,
        library,
        SynthesisOptions(max_arity=MPEG4_MAX_ARITY, checkpoint_path=path, resume=True),
    )
    assert sorted(c.label() for c in crashed.selected) == sorted(
        c.label() for c in resumed.selected
    )
    assert crashed.total_cost == resumed.total_cost
    assert resumed.candidates.stats.chunks_replayed >= 1


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
