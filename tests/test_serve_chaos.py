"""Chaos tests for the synthesis service under deterministic faults.

The contract under test: with worker crashes, injected timeouts,
injected solver errors and stalls fired mid-request by the
:class:`FaultInjector`, **every accepted request still terminates in an
ok/degraded/failed record**, the server keeps serving afterwards, the
shared persistent cache is never corrupted, and a drain during chaos
leaves no orphaned worker processes behind.

Fault routing (see ``ServeConfig.fault_plan``): ``worker_crash`` specs
are consulted parent-side at the ``serve.dispatch`` site and poison the
dispatched solve (the worker ``os._exit``\\ s mid-request, like a
segfault); all other kinds are installed inside each pool worker for
the worker's lifetime and fire at the synthesis checkpoints.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import zlib

import pytest

from repro.core.cache import PersistentCache
from repro.io import save_instance
from repro.netgen import clustered_graph, two_tier_library
from repro.runtime import FaultInjector, FaultSpec
from repro.serve import ServeConfig, ServerThread


@pytest.fixture(scope="module")
def instance_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "instance.json"
    graph = clustered_graph(
        n_clusters=2, ports_per_cluster=3, n_arcs=4, separation=100.0, seed=1
    )
    save_instance(path, graph, two_tier_library())
    return json.loads(path.read_text())


def _submit(port, doc, timeout=180):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request("POST", "/v1/synthesize", body=json.dumps(doc))
    resp = conn.getresponse()
    payload = json.loads(resp.read())
    conn.close()
    return resp.status, payload


def _wait_admitted(port, count, timeout=10.0):
    """Poll ``/v1/health`` until ``count`` requests are queued or
    running — condition-based, so a loaded machine cannot flake it the
    way a fixed sleep can."""
    deadline = time.monotonic() + timeout
    doc = None
    while time.monotonic() < deadline:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("GET", "/v1/health")
        doc = json.loads(conn.getresponse().read())
        conn.close()
        if doc["running"] + doc["queued"] >= count:
            return doc
        time.sleep(0.01)
    pytest.fail(f"server never admitted {count} requests; last health: {doc}")


def _pool_pids(handle):
    executor = handle.server._pool._executor
    return [] if executor is None else [p.pid for p in executor._processes.values()]


def _assert_all_dead(pids):
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        # the pid exists: either a leak or pid reuse; reap-state check
        # distinguishes a zombie child (acceptable: wait()ed soon) from
        # a live orphan (a bug)
        import subprocess

        out = subprocess.run(
            ["ps", "-o", "stat=", "-p", str(pid)], capture_output=True, text=True
        ).stdout.strip()
        assert out == "" or out.startswith("Z"), f"worker {pid} still alive: {out!r}"


class TestWorkerCrash:
    def test_crashed_worker_recovers_without_losing_the_request(self, instance_doc):
        plan = [FaultSpec(site="serve.dispatch", kind="worker_crash", times=1)]
        with FaultInjector(plan):
            with ServerThread(ServeConfig(port=0, workers=2)) as handle:
                status, record = _submit(
                    handle.port, {"instance": instance_doc, "name": "victim"}
                )
                assert status == 200 and record["status"] == "ok"
                assert record["attempts"] == 2 and record["recoveries"] == 1
                assert handle.server.stats.worker_recoveries == 1
                # the rebuilt pool serves the next request on attempt 1
                status, record = _submit(
                    handle.port, {"instance": instance_doc, "name": "after"}
                )
                assert status == 200 and record["attempts"] == 1

    def test_repeated_crashes_fall_back_to_in_process_solve(self, instance_doc):
        # both pool attempts are poisoned: the request must be rescued
        # by the in-process lane, which no worker death can touch
        plan = [FaultSpec(site="serve.dispatch", kind="worker_crash", times=2)]
        with FaultInjector(plan):
            with ServerThread(ServeConfig(port=0, workers=1)) as handle:
                status, record = _submit(
                    handle.port, {"instance": instance_doc, "name": "twice-lost"}
                )
                assert status == 200 and record["status"] == "ok"
                assert record["recoveries"] == 2
                assert handle.server.stats.inprocess_solves == 1


class TestStuckWorkers:
    def test_watchdog_kills_stalled_worker_and_request_survives(self, instance_doc):
        # a 60s stall far past the 1s deadline: cooperative budgeting
        # cannot fire inside the stall, so only the watchdog can act
        plan = (FaultSpec(site="bnb.node", kind="stall", stall_s=60.0, times=1),)
        cfg = ServeConfig(
            port=0, workers=1, fault_plan=plan,
            stuck_grace_s=0.5, watchdog_interval_s=0.1,
        )
        with ServerThread(cfg) as handle:
            t0 = time.monotonic()
            status, record = _submit(
                handle.port,
                {"instance": instance_doc, "deadline_s": 1.0, "name": "stuck"},
            )
            elapsed = time.monotonic() - t0
            assert status == 200 and record["status"] in ("ok", "degraded")
            assert handle.server.stats.watchdog_kills >= 1
            assert elapsed < 30.0  # nowhere near the 60s stall


class TestFaultStorm:
    def test_every_accepted_request_terminates_under_mixed_chaos(
        self, instance_doc, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        worker_plan = (
            # first solve in every worker loses its bnb to a fake timeout
            FaultSpec(site="supervisor.bnb", kind="timeout", times=1),
            # ... and its first ilp stage fails with an injected error
            FaultSpec(site="supervisor.ilp", kind="error", times=1),
        )
        parent_plan = [FaultSpec(site="serve.dispatch", kind="worker_crash", times=2)]
        cfg = ServeConfig(
            port=0, workers=2, queue_limit=16,
            cache_dir=str(cache_dir), fault_plan=worker_plan,
        )
        total = 8
        with FaultInjector(parent_plan):
            with ServerThread(cfg) as handle:
                results = []

                def bg(i):
                    results.append(_submit(
                        handle.port,
                        {"instance": instance_doc, "name": f"storm{i}",
                         "client": f"c{i % 3}", "deadline_s": 60.0},
                    ))

                threads = [threading.Thread(target=bg, args=(i,)) for i in range(total)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()

                assert len(results) == total  # nobody hung, nobody was dropped
                for status, record in results:
                    assert status == 200
                    assert record["status"] in ("ok", "degraded", "failed")
                assert sum(1 for _, r in results if r["status"] != "failed") == total
                stats = handle.server.stats
                assert stats.accepted == total and stats.completed == total
                assert stats.worker_recoveries >= 1  # the crashes really happened

                # the server is still healthy for the next customer
                status, record = _submit(
                    handle.port, {"instance": instance_doc, "name": "aftermath"}
                )
                assert status == 200 and record["status"] == "ok"

        # the shared cache survived the chaos: every stored line parses
        # and CRC-verifies; a fresh handle discards nothing
        entries = sorted(cache_dir.glob("*.jsonl"))
        assert entries, "chaos run should have populated the cache"
        for entry in entries:
            for raw in entry.read_bytes().splitlines():
                record = json.loads(raw)
                crc = record.pop("crc")
                canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
                assert format(zlib.crc32(canonical.encode()), "08x") == crc
        store = PersistentCache(cache_dir)
        # force-load every entry file through the public path
        graph_doc = instance_doc  # noqa: F841 - loaded via lookups below
        library = two_tier_library()
        store.lookup("p2p", library, {"probe": True})
        store.lookup("merge", library, {"probe": True})
        store.lookup("mixed", library, {"probe": True})
        assert store.stats.corrupt_discarded == 0
        store.close()


class TestDrainUnderChaos:
    def test_sigterm_style_drain_under_load_leaves_no_orphans(self, instance_doc):
        plan = (FaultSpec(site="bnb.start", kind="stall", stall_s=1.0, times=1),)
        handle = ServerThread(
            ServeConfig(port=0, workers=2, fault_plan=plan, drain_grace_s=30.0)
        ).start()
        pids = _pool_pids(handle)
        assert pids  # the pool was warmed at startup
        results = []

        def bg(i):
            results.append(_submit(
                handle.port,
                {"instance": instance_doc, "name": f"drain{i}", "deadline_s": 30.0},
            ))

        threads = [threading.Thread(target=bg, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        _wait_admitted(handle.port, 4)  # both workers mid-stall, two queued
        handle.drain()
        for t in threads:
            t.join()
        handle.join(timeout=60.0)

        assert len(results) == 4
        for status, record in results:
            assert status == 200 and record["status"] in ("ok", "degraded")
        _assert_all_dead(pids)

    def test_drain_grace_expiry_fails_out_stuck_work_and_stops(self, instance_doc):
        # every solve stalls 60s with no deadline: only the grace-expiry
        # abandonment path can end this server's life — and it must do
        # so with a failed record per accepted request, not silence
        plan = (FaultSpec(site="bnb.start", kind="stall", stall_s=60.0),)
        handle = ServerThread(
            ServeConfig(port=0, workers=1, queue_limit=4,
                        fault_plan=plan, drain_grace_s=1.0)
        ).start()
        pids = _pool_pids(handle)
        results = []

        def bg(i):
            results.append(_submit(
                handle.port, {"instance": instance_doc, "name": f"doomed{i}"}
            ))

        threads = [threading.Thread(target=bg, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        _wait_admitted(handle.port, 2)  # doomed0 running (stalled), doomed1 queued
        t0 = time.monotonic()
        handle.drain()
        for t in threads:
            t.join()
        handle.join(timeout=60.0)
        assert time.monotonic() - t0 < 30.0  # grace, not the 60s stall

        assert len(results) == 2
        for status, record in results:
            assert status == 200  # the HTTP exchange still completes
            assert record["status"] == "failed"
            assert "drain" in record["error"].lower()
        stats = handle.server.stats
        assert stats.accepted == 2 and stats.completed == 2
        _assert_all_dead(pids)
