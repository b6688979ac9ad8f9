"""Cold single-core end-to-end synthesis time, and its placement share.

Two workloads: the paper's WAN example and the scaling workload that
makes Weiszfeld placement the dominant cost (two distant clusters,
arity-4 mergings — the regime ROADMAP item 2 cares about).  Each is
timed over ``ROUNDS`` independent cold runs (fresh synthesis, no
persistent cache, no warmup) and scored by the *minimum* — wall-clock
noise on shared CI runners only ever inflates a round, never deflates
it.  One extra traced run per workload records the placement span
(``candidates.plan``).  Every run must return the same stable result
dict.  The record lands in ``BENCH_synthesis.json`` at the repo root
(uploaded as a CI artifact).
"""

import json
import os
import time
from pathlib import Path

from repro import SynthesisOptions, synthesize
from repro.batch.runner import stable_result_dict
from repro.domains import wan_example
from repro.io import atomic_write
from repro.netgen import clustered_graph
from repro.netgen.libraries import two_tier_library
from repro.obs import span_aggregates

from .conftest import comparison_table

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_synthesis.json"

#: independent cold runs per workload; min is the score.
ROUNDS = 3

SCALING_INSTANCE = {
    "n_clusters": 2,
    "ports_per_cluster": 4,
    "n_arcs": 10,
    "separation": 100.0,
    "seed": 42,
}


def _workloads():
    wan_graph, wan_library = wan_example()
    return {
        "wan": (wan_graph, wan_library, SynthesisOptions()),
        "scaling": (
            clustered_graph(**SCALING_INSTANCE),
            two_tier_library(),
            SynthesisOptions(max_arity=4),
        ),
    }


def test_bench_synthesis_cold_time(benchmark):
    workloads = _workloads()
    timings = {}  # workload -> list of seconds
    placement_s = {}  # workload -> candidates.plan wall seconds

    def run_all():
        for wname, (graph, library, options) in workloads.items():
            results = []
            for _ in range(ROUNDS):
                t0 = time.perf_counter()
                results.append(synthesize(graph, library, options))
                timings.setdefault(wname, []).append(time.perf_counter() - t0)
            traced = synthesize(graph, library, options, trace=True)
            placement_s[wname] = sum(
                s["wall_s"] for s in span_aggregates(traced.trace)
                if s["name"] == "candidates.plan"
            )
            reference = stable_result_dict(traced)
            assert all(stable_result_dict(r) == reference for r in results), (
                f"repeated runs of workload {wname!r} disagree"
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    score = {wname: min(times) for wname, times in timings.items()}
    record = {
        "workloads": {
            "wan": {"generator": "wan_example"},
            "scaling": {
                "generator": "clustered_graph",
                **SCALING_INSTANCE,
                "library": "two_tier_library",
                "max_arity": 4,
            },
        },
        "nproc": os.cpu_count(),
        "rounds": ROUNDS,
        "seconds": dict(sorted(timings.items())),
        "cold_min_seconds": dict(sorted(score.items())),
        "placement_seconds_traced": dict(sorted(placement_s.items())),
    }
    atomic_write(RESULT_PATH, json.dumps(record, indent=2) + "\n")

    print()
    print(
        comparison_table(
            "Cold single-core end-to-end synthesis",
            [
                ("wan [s]", "-", f"{score['wan']:.2f}"),
                ("scaling [s]", "-", f"{score['scaling']:.2f}"),
                ("scaling placement, traced [s]", "-", f"{placement_s['scaling']:.2f}"),
            ],
        )
    )
