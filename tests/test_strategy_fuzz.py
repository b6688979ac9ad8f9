"""Seeded strategy fuzz: decompose and ``auto`` reproduce exact.

Generated ``clustered_graph`` instances of 17–24 arcs, the range just
past ``AUTO_EXACT_MAX_ARCS`` where ``auto`` hands over to certified
decomposition.  On each, both must return exact's ``total_cost``
(1e-9 relative) with a certified zero gap, and exact's selection as a
label set.  The draws were picked from a probe sweep for speed: the
whole pack runs in a few seconds.
"""

from __future__ import annotations

import pytest

from repro import SynthesisOptions, synthesize
from repro.domains import wan_library
from repro.netgen import clustered_graph, two_tier_library

#: library name -> (library factory, clustered_graph geometry)
LIBRARIES = {
    "wan": (wan_library, {"separation": 500.0, "bandwidth_range": (1.0, 3.0)}),
    "two_tier": (two_tier_library, {"separation": 100.0, "bandwidth_range": (10.0, 10.0)}),
}

#: (generator seed, n_clusters, ports_per_cluster, n_arcs, intra_fraction,
#: library, max_arity)
DRAWS = [
    (501, 2, 6, 17, 1.0, "wan", 3),
    (505, 3, 5, 18, 0.9, "wan", 3),
    (507, 3, 5, 18, 0.9, "two_tier", 3),
    (527, 2, 7, 19, None, "two_tier", 3),
    (508, 3, 5, 20, None, "wan", 2),
    (512, 2, 8, 21, 1.0, "wan", 2),
    (516, 3, 6, 22, 0.9, "wan", 2),
    (523, 4, 5, 24, 1.0, "two_tier", 3),
]


@pytest.mark.parametrize(
    "seed, n_clusters, ports, n_arcs, intra, lib, max_arity",
    DRAWS,
    ids=[f"s{d[0]}-{d[3]}arcs-{d[5]}-k{d[6]}" for d in DRAWS],
)
def test_decompose_and_auto_reproduce_exact(
    seed, n_clusters, ports, n_arcs, intra, lib, max_arity
):
    make_library, geometry = LIBRARIES[lib]
    library = make_library()
    graph = clustered_graph(
        n_clusters=n_clusters, ports_per_cluster=ports, n_arcs=n_arcs,
        cluster_spread=5.0, seed=seed, intra_fraction=intra, **geometry,
    )
    base = dict(max_arity=max_arity, polish_placement=False)
    exact = synthesize(graph, library, SynthesisOptions(strategy="exact", **base))
    labels = {c.label() for c in exact.selected}
    for strategy in ("decompose", "auto"):
        result = synthesize(graph, library, SynthesisOptions(strategy=strategy, **base))
        report = result.decomposition
        assert report is not None and report.strategy == "decompose", strategy
        assert result.total_cost == pytest.approx(exact.total_cost, rel=1e-9), strategy
        assert report.certified and report.gap_bound == 0.0, strategy
        assert {c.label() for c in result.selected} == labels, strategy
