"""The synthesis service (`repro.serve`): protocol, admission, fairness,
degradation, streaming, identity, drain.

The contract under test: the server accepts instance submissions over
HTTP/JSON, sheds overload *immediately* (429 + ``Retry-After``) instead
of queueing without bound, keeps one client's flood from starving
others, degrades per-request deadlines through the anytime chain
instead of failing, serves results byte-identical to solo
``synthesize`` runs, streams progress as chunked JSON lines, and drains
gracefully — finishing accepted work, refusing new work with 503.

Crash/chaos behavior is in ``test_serve_chaos.py``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path

import pytest

from repro.batch import ResultStream, load_stream_records, stable_result_dict
from repro.core import SynthesisOptions, synthesize
from repro.io import load_instance, save_instance
from repro.netgen import clustered_graph, two_tier_library
from repro.runtime import FaultSpec
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    FairScheduler,
    ProtocolError,
    ServeConfig,
    ServerThread,
    parse_submit,
    response_bytes,
    retry_after_headers,
)


@pytest.fixture(scope="module")
def instance_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "instance.json"
    graph = clustered_graph(
        n_clusters=2, ports_per_cluster=3, n_arcs=4, separation=100.0, seed=0
    )
    save_instance(path, graph, two_tier_library())
    return json.loads(path.read_text())


def _request(port, method, path, body=None, timeout=120):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request(method, path, body=None if body is None else json.dumps(body))
    resp = conn.getresponse()
    raw = resp.read()
    headers = dict(resp.getheaders())
    conn.close()
    return resp.status, raw, headers


def _submit(port, doc, timeout=120):
    status, raw, headers = _request(port, "POST", "/v1/synthesize", doc, timeout)
    return status, json.loads(raw), headers


def _wait_until(port, predicate, timeout=10.0):
    """Poll ``/v1/health`` until ``predicate(health_doc)`` holds.

    Replaces fixed ``time.sleep`` waits, which flake when a loaded
    machine delays admission past the guessed interval: the condition
    is on the server's *actual* queued/running counters.
    """
    deadline = time.monotonic() + timeout
    doc = None
    while time.monotonic() < deadline:
        status, raw, _ = _request(port, "GET", "/v1/health", timeout=10)
        assert status == 200
        doc = json.loads(raw)
        if predicate(doc):
            return doc
        time.sleep(0.01)
    pytest.fail(f"server never reached the expected state; last health: {doc}")


# ----------------------------------------------------------------------
# protocol units
# ----------------------------------------------------------------------


class TestParseSubmit:
    def _doc(self, instance_doc, **extra):
        doc = {"instance": instance_doc}
        doc.update(extra)
        return doc

    def test_minimal_submission(self, instance_doc):
        submit = parse_submit(self._doc(instance_doc))
        assert submit.client == "anonymous" and submit.deadline_s is None
        assert not submit.stream and not submit.trace

    def test_missing_instance_is_400(self):
        with pytest.raises(ProtocolError) as exc:
            parse_submit({})
        assert exc.value.status == 400 and "instance" in exc.value.message

    def test_instance_missing_library_is_400(self):
        with pytest.raises(ProtocolError, match="instance.library"):
            parse_submit({"instance": {"constraint_graph": {}}})

    def test_unknown_top_level_field_is_400(self, instance_doc):
        with pytest.raises(ProtocolError, match="dead_line"):
            parse_submit(self._doc(instance_doc, dead_line=2.0))

    @pytest.mark.parametrize("deadline", [0, -1, "soon", True])
    def test_bad_deadline_is_400(self, instance_doc, deadline):
        with pytest.raises(ProtocolError, match="deadline_s"):
            parse_submit(self._doc(instance_doc, deadline_s=deadline))

    def test_unknown_option_is_400(self, instance_doc):
        # an execution knob, and the two retired covering options
        for key, value in (("jobs", 4), ("ucp_solver", "bnb"), ("drop_dominated", True)):
            with pytest.raises(ProtocolError, match=f"options.{key}") as exc:
                parse_submit(self._doc(instance_doc, options={key: value}))
            assert exc.value.status == 400

    def test_bad_pruning_level_is_400(self, instance_doc):
        with pytest.raises(ProtocolError, match="options.pruning"):
            parse_submit(self._doc(instance_doc, options={"pruning": "psychic"}))

    def test_removed_colgen_strategy_is_400(self, instance_doc):
        with pytest.raises(ProtocolError, match="options.strategy") as exc:
            parse_submit(self._doc(instance_doc, options={"strategy": "colgen"}))
        assert exc.value.status == 400

    def test_options_parsed_and_budget_policy_forced(self, instance_doc):
        submit = parse_submit(self._doc(
            instance_doc,
            options={"max_arity": 3, "strategy": "exact", "hop_penalty": 2},
        ))
        assert submit.options.max_arity == 3
        assert submit.options.strategy == "exact"
        assert submit.options.hop_penalty == 2.0
        # the service never hard-fails a budget: degrade is forced
        assert submit.options.on_budget_exhausted == "degrade"

    def test_client_key_length_bounded(self, instance_doc):
        with pytest.raises(ProtocolError, match="client"):
            parse_submit(self._doc(instance_doc, client="x" * 200))


class TestResponseShapes:
    def test_response_bytes_shape(self):
        raw = response_bytes(429, {"error": "full"}, retry_after_headers(2.3))
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests")
        assert b"Retry-After: 3" in head and b"Connection: close" in head
        assert json.loads(body) == {"error": "full"}

    def test_retry_after_never_below_one_second(self):
        assert retry_after_headers(0.01) == {"Retry-After": "1"}


# ----------------------------------------------------------------------
# admission / scheduling units
# ----------------------------------------------------------------------


class TestAdmissionController:
    def test_global_bound_sheds_with_hint(self):
        ctl = AdmissionController(policy=AdmissionPolicy(max_queue=2), workers=1)
        assert ctl.try_admit("a") is None
        assert ctl.try_admit("b") is None
        rejection = ctl.try_admit("c")
        assert rejection is not None and rejection.reason == "queue-full"
        assert rejection.retry_after_s >= ctl.policy.retry_after_floor_s
        assert ctl.shed == 1 and ctl.admitted == 2

    def test_per_client_bound_spares_other_clients(self):
        ctl = AdmissionController(
            policy=AdmissionPolicy(max_queue=10, max_queue_per_client=2), workers=1
        )
        assert ctl.try_admit("flood") is None and ctl.try_admit("flood") is None
        rejection = ctl.try_admit("flood")
        assert rejection is not None and rejection.reason == "client-queue-full"
        assert ctl.try_admit("polite") is None  # unaffected
        assert ctl.shed_client_full == 1 and ctl.shed_queue_full == 0

    def test_release_reopens_capacity(self):
        ctl = AdmissionController(policy=AdmissionPolicy(max_queue=1), workers=1)
        assert ctl.try_admit("a") is None
        assert ctl.try_admit("a") is not None
        ctl.release("a")
        assert ctl.try_admit("a") is None
        assert ctl.queued_total == 1

    def test_unmatched_release_is_a_bug(self):
        ctl = AdmissionController(workers=1)
        with pytest.raises(RuntimeError, match="release without"):
            ctl.release("ghost")

    def test_retry_after_tracks_observed_service_time(self):
        ctl = AdmissionController(policy=AdmissionPolicy(max_queue=8), workers=2)
        prior = ctl.retry_after_s()
        for _ in range(10):
            ctl.observe_service(4.0)
        assert ctl.retry_after_s() > prior  # slower service, later retry
        for _ in range(4):
            assert ctl.try_admit("a") is None
        # 4 waiting + 1, served 2 at a time, ~4s each => ~10s
        assert ctl.retry_after_s() == pytest.approx(10.0, rel=0.2)


    def test_many_clients_churn_leaves_no_residue(self):
        # the release() audit must delete emptied per-client entries:
        # after heavy churn over many distinct clients the accounting
        # dict is empty, not a graveyard of zero counters
        ctl = AdmissionController(policy=AdmissionPolicy(max_queue=4), workers=1)
        for i in range(500):
            client = f"tenant-{i}"
            assert ctl.try_admit(client) is None
            ctl.release(client)
        assert ctl.queued_total == 0
        assert ctl.queued_by_client == {}
        assert ctl.admitted == 500 and ctl.shed == 0

    def test_churn_keeps_per_client_bounds_exact(self):
        # interleaved multi-admit churn: entries vanish exactly when a
        # client's count hits zero, and the per-client bound still
        # enforces against fresh admissions afterwards
        ctl = AdmissionController(
            policy=AdmissionPolicy(max_queue=100, max_queue_per_client=2), workers=1
        )
        for i in range(50):
            client = f"c{i}"
            assert ctl.try_admit(client) is None
            assert ctl.try_admit(client) is None
            assert ctl.try_admit(client) is not None  # bound enforced
            ctl.release(client)
            assert ctl.queued_by_client[client] == 1
            ctl.release(client)
            assert client not in ctl.queued_by_client
            assert ctl.try_admit(client) is None  # bound reopened
            ctl.release(client)
        assert ctl.queued_by_client == {} and ctl.queued_total == 0


class TestFairScheduler:
    def test_round_robin_across_clients_fifo_within(self):
        sched = FairScheduler()
        for i in range(3):
            sched.push("a", f"a{i}")
        sched.push("b", "b0")
        sched.push("c", "c0")
        order = [sched.pop() for _ in range(5)]
        assert order == ["a0", "b0", "c0", "a1", "a2"]
        assert sched.pop() is None

    def test_len_depth_and_clients(self):
        sched = FairScheduler()
        sched.push("a", 1)
        sched.push("a", 2)
        sched.push("b", 3)
        assert len(sched) == 3 and sched.depth("a") == 2 and sched.depth("z") == 0
        assert sched.clients == ["a", "b"]

    def test_drain_returns_fair_order_with_owners(self):
        sched = FairScheduler()
        sched.push("a", 1)
        sched.push("b", 2)
        sched.push("a", 3)
        assert sched.drain() == [("a", 1), ("b", 2), ("a", 3)]
        assert len(sched) == 0


# ----------------------------------------------------------------------
# end-to-end over a live server
# ----------------------------------------------------------------------


class TestEndpoints:
    def test_health_stats_and_errors(self, instance_doc):
        with ServerThread(ServeConfig(port=0, workers=1)) as handle:
            status, raw, _ = _request(handle.port, "GET", "/v1/health")
            assert status == 200 and json.loads(raw)["status"] == "ok"

            status, _, _ = _request(handle.port, "GET", "/nope")
            assert status == 404
            status, _, _ = _request(handle.port, "POST", "/v1/health")
            assert status == 405

            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
            conn.request("POST", "/v1/synthesize", body=b"{not json")
            assert conn.getresponse().status == 400
            conn.close()

            status, doc, _ = _submit(handle.port, {"instance": instance_doc, "name": "e2e"})
            assert status == 200 and doc["status"] == "ok"
            assert doc["name"] == "e2e" and doc["attempts"] == 1

            status, raw, _ = _request(handle.port, "GET", "/v1/stats")
            stats = json.loads(raw)
            assert stats["accepted"] == 1 and stats["completed"] == 1 and stats["ok"] == 1

    def test_sequential_requests_get_consecutive_ids(self, instance_doc):
        with ServerThread(ServeConfig(port=0, workers=1)) as handle:
            ids = []
            for _ in range(3):
                status, doc, _ = _submit(handle.port, {"instance": instance_doc})
                assert status == 200
                ids.append(doc["id"])
        assert ids == ["r000001", "r000002", "r000003"]

    def test_served_result_identical_to_solo_synthesize(self, instance_doc, tmp_path):
        with ServerThread(ServeConfig(port=0, workers=1)) as handle:
            status, doc, _ = _submit(handle.port, {"instance": instance_doc})
            assert status == 200 and doc["status"] == "ok"

        path = tmp_path / "solo.json"
        path.write_text(json.dumps(instance_doc))
        graph, library = load_instance(path)
        solo = synthesize(graph, library, SynthesisOptions(on_budget_exhausted="degrade"))
        assert json.dumps(doc["result"], sort_keys=True) == json.dumps(
            stable_result_dict(solo), sort_keys=True
        )


class TestBackpressure:
    def test_queue_full_sheds_fast_with_retry_after(self, instance_doc):
        # worker 1 is pinned for ~1.5s by an injected stall, so the two
        # queue slots fill and stay full while the flood arrives
        plan = (FaultSpec(site="bnb.start", kind="stall", stall_s=1.5, times=1),)
        cfg = ServeConfig(port=0, workers=1, queue_limit=2, fault_plan=plan)
        with ServerThread(cfg) as handle:
            accepted = []

            def occupy(name):
                accepted.append(_submit(
                    handle.port,
                    {"instance": instance_doc, "name": name, "deadline_s": 30.0},
                ))

            threads = [
                threading.Thread(target=occupy, args=(f"q{i}",)) for i in range(3)
            ]
            for i, t in enumerate(threads):
                t.start()
                # admit in order: q0 running (stalled), then q1, q2 queued
                _wait_until(
                    handle.port, lambda h, n=i + 1: h["running"] + h["queued"] >= n
                )

            shed = []
            for i in range(3):
                t0 = time.monotonic()
                status, doc, headers = _submit(
                    handle.port, {"instance": instance_doc, "name": f"shed{i}"}
                )
                shed.append((status, doc, headers, time.monotonic() - t0))
            for t in threads:
                t.join()

        assert [s for s, _, _ in (a[:3] for a in accepted)] == [200, 200, 200]
        for status, doc, headers, elapsed in shed:
            assert status == 429
            assert doc["reason"] == "queue-full"
            assert int(headers["Retry-After"]) >= 1
            assert elapsed < 1.0  # shed immediately, not after the stall

    def test_flooding_client_shed_while_polite_client_admitted(self, instance_doc):
        plan = (FaultSpec(site="bnb.start", kind="stall", stall_s=1.5, times=1),)
        cfg = ServeConfig(
            port=0, workers=1, queue_limit=10, queue_limit_per_client=2, fault_plan=plan
        )
        with ServerThread(cfg) as handle:
            results = []

            def bg(client, name):
                results.append(_submit(
                    handle.port,
                    {"instance": instance_doc, "client": client, "name": name,
                     "deadline_s": 30.0},
                ))

            threads = [threading.Thread(target=bg, args=("flood", f"f{i}")) for i in range(3)]
            for i, t in enumerate(threads):
                t.start()
                # f0 running (stalled), f1 f2 queued: flood is at its cap
                _wait_until(
                    handle.port, lambda h, n=i + 1: h["running"] + h["queued"] >= n
                )

            status, doc, _ = _submit(
                handle.port, {"instance": instance_doc, "client": "flood", "name": "f3"}
            )
            assert status == 429 and doc["reason"] == "client-queue-full"

            status, doc, _ = _submit(
                handle.port,
                {"instance": instance_doc, "client": "polite", "name": "p0"},
            )
            assert status == 200 and doc["status"] == "ok"
            for t in threads:
                t.join()
        assert all(r[0] == 200 for r in results)


class TestDegradation:
    def test_deadline_degrades_never_fails(self, instance_doc):
        # both exact stages "time out" on every attempt: the chain must
        # serve the greedy cover with an honest quality tag, not a 500
        plan = (
            FaultSpec(site="supervisor.bnb", kind="timeout"),
            FaultSpec(site="supervisor.ilp", kind="timeout"),
        )
        with ServerThread(ServeConfig(port=0, workers=1, fault_plan=plan)) as handle:
            status, doc, _ = _submit(
                handle.port,
                {"instance": instance_doc, "deadline_s": 30.0, "name": "degrade-me"},
            )
            assert status == 200
            assert doc["status"] == "degraded"
            assert doc["quality"] == "degraded_greedy"
            assert doc["result"]["selected"]  # a real architecture rode along

    def test_default_deadline_applied_and_capped(self, instance_doc):
        cfg = ServeConfig(port=0, workers=1, default_deadline_s=20.0, max_deadline_s=5.0)
        with ServerThread(cfg) as handle:
            _, doc, _ = _submit(handle.port, {"instance": instance_doc})
            assert doc["deadline_s"] == 5.0  # default, capped
            _, doc, _ = _submit(
                handle.port, {"instance": instance_doc, "deadline_s": 60.0}
            )
            assert doc["deadline_s"] == 5.0  # request, capped


class TestStreaming:
    def test_stream_events_and_final_record(self, instance_doc):
        with ServerThread(ServeConfig(port=0, workers=1)) as handle:
            status, raw, headers = _request(
                handle.port, "POST", "/v1/synthesize",
                {"instance": instance_doc, "stream": True, "name": "live"},
            )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        events = [json.loads(line) for line in raw.decode().splitlines() if line.strip()]
        assert events[0]["event"] == "accepted" and events[0]["name"] == "live"
        assert events[-1]["event"] == "result"
        record = events[-1]["record"]
        assert record["status"] == "ok"
        assert "metrics" in record  # streaming implies tracing
        assert record["metrics"]["counters"]

    def test_streamed_result_matches_plain_result(self, instance_doc):
        with ServerThread(ServeConfig(port=0, workers=1)) as handle:
            _, plain, _ = _submit(handle.port, {"instance": instance_doc})
            _, raw, _ = _request(
                handle.port, "POST", "/v1/synthesize",
                {"instance": instance_doc, "stream": True},
            )
        events = [json.loads(line) for line in raw.decode().splitlines() if line.strip()]
        streamed = [e for e in events if e["event"] == "result"][0]["record"]
        assert json.dumps(streamed["result"], sort_keys=True) == json.dumps(
            plain["result"], sort_keys=True
        )


class TestDrain:
    def test_drain_finishes_accepted_work_and_refuses_new(self, instance_doc):
        plan = (FaultSpec(site="bnb.start", kind="stall", stall_s=1.0, times=1),)
        handle = ServerThread(ServeConfig(port=0, workers=1, fault_plan=plan)).start()
        in_flight = []

        def bg():
            in_flight.append(_submit(
                handle.port,
                {"instance": instance_doc, "name": "lastcall", "deadline_s": 30.0},
            ))

        thread = threading.Thread(target=bg)
        thread.start()
        _wait_until(handle.port, lambda h: h["running"] >= 1)  # stalled solve running
        handle.drain()
        _wait_until(handle.port, lambda h: h["status"] == "draining")

        status, doc, headers = _submit(handle.port, {"instance": instance_doc})
        assert status == 503
        assert doc["reason"] == "draining" and "Retry-After" in headers

        thread.join()
        handle.join(timeout=60.0)
        status, doc, _ = in_flight[0]
        assert status == 200 and doc["status"] == "ok"  # accepted work still served

    def test_shared_cache_warms_across_requests(self, instance_doc, tmp_path):
        cfg = ServeConfig(port=0, workers=1, cache_dir=str(tmp_path / "cache"))
        with ServerThread(cfg) as handle:
            _, cold, _ = _submit(handle.port, {"instance": instance_doc})
            _, warm, _ = _submit(handle.port, {"instance": instance_doc})
        assert cold["cache"]["writes"] > 0
        assert warm["cache"]["hits"] > 0 and warm["cache"]["writes"] == 0
        assert json.dumps(warm["result"], sort_keys=True) == json.dumps(
            cold["result"], sort_keys=True
        )

    def test_first_record_after_a_torn_results_tail_survives(self, instance_doc, tmp_path):
        # a crash mid-append left a torn fragment after one intact record;
        # the restarted server's first record must not be glued onto it
        results = tmp_path / "served.jsonl"
        with ResultStream(results) as stream:
            stream.emit({"name": "a", "status": "ok"})
        with open(results, "ab") as handle:
            handle.write(b'{"crc":"1234","name":"b","sta')
        cfg = ServeConfig(port=0, workers=1, results_path=str(results))
        with ServerThread(cfg) as handle:
            status, record, _ = _submit(handle.port, {"instance": instance_doc, "name": "c"})
            assert status == 200 and record["status"] == "ok"
        assert [r["name"] for r in load_stream_records(results)] == ["a", "c"]
