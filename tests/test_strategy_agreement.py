"""Strategy agreement: exact and decompose give one answer.

The strategies differ only in which candidate universe they enumerate
and how they split the cover; candidate options, merge admission, the
covering policy and result assembly are shared.  So under every result-shaping option,
on instances small enough for decompose to certify a zero gap, both
must return the same optimum and the same selection.  Selections
compare as label sets: decompose lists a multi-cluster cover in
cluster order.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import SynthesisOptions, synthesize
from repro.domains import wan_constraint_graph, wan_library
from repro.netgen import clustered_graph, two_tier_library

VARIANTS = {
    "default": {},
    "hop_penalty": {"hop_penalty": 5.0},
    "max_merge_hops": {"max_merge_hops": 3},
    "heterogeneous": {"heterogeneous": True},
    "no_polish": {"polish_placement": False},
    "demand_margin": {"demand_margin": 0.3},
}


def _wan():
    return wan_constraint_graph(), wan_library(), 4


def _two_islands():
    graph = clustered_graph(
        n_clusters=2, ports_per_cluster=5, n_arcs=14, cluster_spread=4.0,
        separation=300.0, bandwidth_range=(1.0, 3.0), seed=3, intra_fraction=1.0,
    )
    return graph, wan_library(), 3


def _two_tier():
    graph = clustered_graph(
        n_clusters=2, ports_per_cluster=4, n_arcs=8, separation=100.0, seed=1003
    )
    return graph, two_tier_library(), 3


INSTANCES = {"wan": _wan, "two_islands": _two_islands, "two_tier": _two_tier}


@pytest.fixture(scope="module", params=list(INSTANCES))
def instance(request):
    return INSTANCES[request.param]()


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_strategies_agree(instance, variant):
    graph, library, max_arity = instance
    base = SynthesisOptions(max_arity=max_arity, **VARIANTS[variant])
    exact = synthesize(graph, library, dataclasses.replace(base, strategy="exact"))
    result = synthesize(graph, library, dataclasses.replace(base, strategy="decompose"))
    assert result.total_cost == pytest.approx(exact.total_cost, rel=1e-9)
    assert {c.label() for c in result.selected} == {c.label() for c in exact.selected}
    assert result.decomposition.certified
    assert result.decomposition.gap_bound == 0.0
