"""Experiment S4 — the synthesis service under concurrent load.

Fires 150 requests from 15 concurrent client threads at a ``repro
serve`` instance with 2 workers and a deliberately tight admission
queue, exercising the whole robustness envelope at once: bounded-queue
shedding with ``Retry-After`` (clients honour the hint and retry),
per-client fair scheduling, and the shared warm cache.  Asserts the
ISSUE-6 acceptance criteria — every request eventually served, shed
counts > 0 (the queue bound really bit), and served results
byte-identical (via ``stable_result_dict``) to solo ``synthesize``
runs — and records p50/p95/p99 latency plus shed/retry counts in
``BENCH_serve.json`` at the repo root (uploaded as a CI artifact).
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from pathlib import Path

from repro.batch import stable_result_dict
from repro.core import SynthesisOptions, synthesize
from repro.io import atomic_write, load_instance, save_instance
from repro.netgen import clustered_graph, two_tier_library
from repro.serve import ServeConfig, ServerThread

from .conftest import comparison_table

N_INSTANCES = 4
N_CLIENTS = 15
REQUESTS_PER_CLIENT = 10  # 150 total
MAX_RETRIES = 40
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def _build_instances(directory: Path):
    library = two_tier_library()
    docs = {}
    for i in range(N_INSTANCES):
        graph = clustered_graph(
            n_clusters=2, ports_per_cluster=3, n_arcs=5,
            separation=100.0, seed=2000 + i,
        )
        path = directory / f"serve{i}.json"
        save_instance(path, graph, library)
        docs[f"serve{i}"] = json.loads(path.read_text())
    return docs


def _submit(port, doc, timeout=300):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request("POST", "/v1/synthesize", body=json.dumps(doc))
    resp = conn.getresponse()
    payload = json.loads(resp.read())
    headers = dict(resp.getheaders())
    conn.close()
    return resp.status, payload, headers


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[int(index)]


def test_bench_serve_concurrent_load(tmp_path, benchmark):
    docs = _build_instances(tmp_path)
    names = sorted(docs)
    config = ServeConfig(
        port=0, workers=2, queue_limit=6, queue_limit_per_client=3,
        cache_dir=str(tmp_path / "cache"),
    )

    latencies_ms = []
    served = []
    retries = [0]
    lock = threading.Lock()

    def client_loop(port, client_id):
        for i in range(REQUESTS_PER_CLIENT):
            name = names[(client_id + i) % N_INSTANCES]
            doc = {"instance": docs[name], "name": name, "client": f"bench{client_id}"}
            t0 = time.monotonic()
            for _attempt in range(MAX_RETRIES):
                status, payload, headers = _submit(port, doc)
                if status == 200:
                    with lock:
                        latencies_ms.append((time.monotonic() - t0) * 1000.0)
                        served.append(payload)
                    break
                # backpressure: honour the server's own hint (capped so
                # the bench converges even under pessimistic estimates)
                assert status == 429, f"unexpected status {status}: {payload}"
                with lock:
                    retries[0] += 1
                time.sleep(min(0.25, float(payload["retry_after_s"])))
            else:
                raise AssertionError(f"request {name} never admitted")

    def storm():
        with ServerThread(config) as handle:
            threads = [
                threading.Thread(target=client_loop, args=(handle.port, c))
                for c in range(N_CLIENTS)
            ]
            t0 = time.monotonic()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.monotonic() - t0
            return elapsed, handle.server.stats.to_dict(), \
                handle.server.admission.to_dict()

    elapsed_s, stats, admission = benchmark.pedantic(storm, rounds=1, iterations=1)

    total = N_CLIENTS * REQUESTS_PER_CLIENT
    assert len(served) == total, "every request must eventually be served"
    assert all(r["status"] == "ok" for r in served)
    assert stats["completed"] == total and stats["failed"] == 0
    # the queue bound really bit: overload was shed, then retried in
    assert admission["shed"] > 0 and retries[0] > 0
    assert stats["cache"].get("hits", 0) > 0  # the shared cache warmed up

    # identity: served results are byte-identical to solo synthesize runs
    by_name = {}
    for record in served:
        by_name.setdefault(record["name"], record)
    options = SynthesisOptions(on_budget_exhausted="degrade")
    for name, record in sorted(by_name.items()):
        path = tmp_path / f"{name}.json"
        graph, library = load_instance(path)
        solo = stable_result_dict(synthesize(graph, library, options))
        assert json.dumps(record["result"], sort_keys=True) == json.dumps(
            solo, sort_keys=True
        ), f"served result for {name} differs from solo synthesize"

    latencies_ms.sort()
    doc = {
        "requests": total,
        "clients": N_CLIENTS,
        "workers": config.workers,
        "queue_limit": config.queue_limit,
        "elapsed_s": elapsed_s,
        "throughput_rps": total / elapsed_s if elapsed_s > 0 else 0.0,
        "latency_ms": {
            "p50": _percentile(latencies_ms, 0.50),
            "p95": _percentile(latencies_ms, 0.95),
            "p99": _percentile(latencies_ms, 0.99),
            "max": latencies_ms[-1],
        },
        "shed": admission["shed"],
        "shed_queue_full": admission["shed_queue_full"],
        "shed_client_full": admission["shed_client_full"],
        "client_retries": retries[0],
        "cache": stats["cache"],
        "identical_to_solo": True,
        "nproc": os.cpu_count(),
    }
    atomic_write(RESULT_PATH, json.dumps(doc, indent=2, sort_keys=True))

    print()
    print(comparison_table(
        "S4  synthesis service: 150 concurrent requests, bounded queue",
        [
            ("requests served", total, len(served)),
            ("requests failed", 0, stats["failed"]),
            ("shed at admission", "> 0", admission["shed"]),
            ("client retries", "> 0", retries[0]),
            ("p50 latency [ms]", "-", f"{doc['latency_ms']['p50']:.1f}"),
            ("p95 latency [ms]", "-", f"{doc['latency_ms']['p95']:.1f}"),
            ("p99 latency [ms]", "-", f"{doc['latency_ms']['p99']:.1f}"),
            ("throughput [req/s]", "-", f"{doc['throughput_rps']:.1f}"),
            ("identical to solo synthesize", "yes", "yes"),
        ],
    ))
