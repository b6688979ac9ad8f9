"""Experiment S3 — batch synthesis with a persistent cross-run cache.

Runs ``repro.batch`` over a 20-instance netgen corpus twice against
one shared cache directory: a cold pass that populates it and a warm
pass that should be served from it.  Asserts the ISSUE-5 acceptance
criteria — warm measurably faster than cold with cache-hit counters
> 0, every per-instance result byte-identical between passes and to a
solo ``synthesize()`` run — and records the wall-clock numbers in
``BENCH_batch.json`` at the repo root (uploaded as a CI artifact
with the other benchmark records).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.batch import discover_corpus, run_batch, stable_result_dict
from repro.core import SynthesisOptions, synthesize
from repro.io import atomic_write, load_instance, save_instance
from repro.netgen import clustered_graph, two_tier_library

from .conftest import comparison_table

CORPUS_SIZE = 20
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch.json"


def _build_corpus(directory: Path) -> None:
    """20 clustered instances over one shared library — the sweep shape
    (same economics, varying floorplans) the cache is built to amortize."""
    library = two_tier_library()
    for i in range(CORPUS_SIZE):
        graph = clustered_graph(
            n_clusters=2, ports_per_cluster=4, n_arcs=6,
            separation=100.0, seed=1000 + i,
        )
        save_instance(directory / f"netgen{i:02d}.json", graph, library)


def test_bench_batch_warm_cache(tmp_path, benchmark):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    _build_corpus(corpus_dir)
    corpus = discover_corpus(corpus_dir)
    assert len(corpus) == CORPUS_SIZE
    cache = tmp_path / "cache"
    options = SynthesisOptions(max_arity=3)

    cold = run_batch(corpus, options=options, cache_dir=cache,
                     results_path=tmp_path / "cold.jsonl")
    assert cold.ok and cold.completed == CORPUS_SIZE
    assert cold.cache.get("writes", 0) > 0

    def warm_pass():
        return run_batch(corpus, options=options, cache_dir=cache,
                         results_path=tmp_path / "warm.jsonl")

    warm = benchmark.pedantic(warm_pass, rounds=1, iterations=1)
    assert warm.ok and warm.completed == CORPUS_SIZE

    # acceptance: the warm pass actually hit the cache, and it shows
    assert warm.cache.get("hits", 0) > 0
    assert warm.cache.get("misses", 1) == 0
    speedup = cold.elapsed_s / warm.elapsed_s if warm.elapsed_s > 0 else float("inf")
    assert speedup > 1.0, (
        f"warm batch ({warm.elapsed_s:.2f}s) not faster than cold "
        f"({cold.elapsed_s:.2f}s) despite {warm.cache.get('hits')} hits"
    )

    # identity: warm == cold == solo synthesize(), per instance
    for ref, cold_rec, warm_rec in zip(corpus, cold.records, warm.records):
        assert cold_rec["result"] == warm_rec["result"], ref.name
    graph, library = load_instance(corpus[0].path)
    solo = stable_result_dict(synthesize(graph, library, options))
    assert cold.records[0]["result"] == solo

    doc = {
        "corpus_size": CORPUS_SIZE,
        "cold_s": cold.elapsed_s,
        "warm_s": warm.elapsed_s,
        "speedup": speedup,
        "cold_cache": dict(cold.cache),
        "warm_cache": dict(warm.cache),
        "total_cost_sum": sum(r["cost"] for r in cold.records),
    }
    atomic_write(RESULT_PATH, json.dumps(doc, indent=2, sort_keys=True))

    print()
    print(comparison_table(
        "S3  batch synthesis: cold vs warm shared cache",
        [
            ("corpus instances", CORPUS_SIZE, CORPUS_SIZE),
            ("cold wall-clock [s]", "-", f"{cold.elapsed_s:.2f}"),
            ("warm wall-clock [s]", "< cold", f"{warm.elapsed_s:.2f}"),
            ("warm/cold speedup", "> 1x", f"{speedup:.1f}x"),
            ("warm cache hits", "> 0", warm.cache.get("hits", 0)),
            ("warm cache misses", 0, warm.cache.get("misses", 0)),
            ("results identical", "yes", "yes"),
        ],
    ))
