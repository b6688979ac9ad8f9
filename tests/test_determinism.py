"""Determinism tests: the whole pipeline is reproducible bit-for-bit.

The synthesis touches floating-point optimization (Weiszfeld,
Nelder-Mead, HiGHS LPs) but every piece is seeded or deterministic, so
two runs on the same instance must produce identical costs, identical
selections and identical structures — a property downstream users
(and CI) rely on.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import SynthesisOptions, synthesize
from repro.domains import mpeg4_example, wan_example
from repro.netgen import clustered_graph, grid_floorplan, hotspot_traffic, two_tier_library


def _signature(result):
    return (
        round(result.total_cost, 9),
        tuple(sorted(c.label() for c in result.selected)),
        len(result.implementation.arcs),
        len(result.implementation.communication_vertices),
    )


class TestDeterminism:
    def test_wan_twice(self):
        a = synthesize(*wan_example())
        b = synthesize(*wan_example())
        assert _signature(a) == _signature(b)

    def test_mpeg4_twice(self):
        opts = SynthesisOptions(max_arity=3, validate_result=False)
        a = synthesize(*mpeg4_example(), opts)
        b = synthesize(*mpeg4_example(), opts)
        assert _signature(a) == _signature(b)

    def test_random_instance_twice(self):
        lib = two_tier_library()
        opts = SynthesisOptions(max_arity=3, validate_result=False)
        g1 = clustered_graph(n_arcs=8, seed=123)
        g2 = clustered_graph(n_arcs=8, seed=123)
        assert _signature(synthesize(g1, lib, opts)) == _signature(synthesize(g2, lib, opts))

    def test_generators_reproducible(self):
        a = hotspot_traffic(grid_floorplan(8, seed=77), seed=77)
        b = hotspot_traffic(grid_floorplan(8, seed=77), seed=77)
        assert [(x.name, x.distance, x.bandwidth) for x in a.arcs] == [
            (x.name, x.distance, x.bandwidth) for x in b.arcs
        ]

    def test_candidate_order_stable(self, wan_graph, wan_lib):
        from repro import generate_candidates

        a = generate_candidates(wan_graph, wan_lib)
        b = generate_candidates(wan_graph, wan_lib)
        assert [c.label() for c in a.all] == [c.label() for c in b.all]
        assert [c.cost for c in a.all] == [c.cost for c in b.all]


#: the two 24-seed sweep instances (ring graphs, random libraries) whose
#: covering search sums its incumbent in string-hash order, and a
#: clustered instance whose bnb incumbent/prune counters flipped with the
#: hash seed while essential columns were picked in set order.
_HASH_SENSITIVE_SWEEP = """
from repro import SynthesisOptions, synthesize
from repro.netgen import clustered_graph, random_library, ring_graph, two_tier_library

for seed in (19, 23):
    result = synthesize(
        ring_graph(n_nodes=5 + seed % 3),
        random_library(seed=seed),
        SynthesisOptions(
            max_arity=3, heterogeneous=seed % 5 == 0, polish_placement=seed % 3 != 2
        ),
    )
    print(seed, result.total_cost.hex())

result = synthesize(
    clustered_graph(n_clusters=2, ports_per_cluster=4, n_arcs=8, separation=100.0, seed=1003),
    two_tier_library(),
    SynthesisOptions(max_arity=3, strategy="exact"),
    trace=True,
)
counters = result.trace.counters
print(1003, counters.get("covering.bnb.incumbents", 0), counters.get("covering.bnb.pruned_incumbent", 0))
"""


def test_total_cost_independent_of_hash_seed():
    """``total_cost`` is the correctly rounded sum of the selected
    columns, so processes with different string-hash seeds report the
    same double; the covering search visits rows in sorted order, so its
    deterministic counters agree too."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SENSITIVE_SWEEP],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs
