"""Lean merge candidates: planning prices stages, materialization builds them.

A :class:`~repro.core.merging.MergingPlan` carries no stage plan;
:func:`~repro.core.merging.stage_plans` builds them for the mergings a
cover selects.  Pinned on the conformance pack, the batch-warm
benchmark's base corpus (``clustered_graph`` seeds 1000-1049,
``two_tier_library``, ``max_arity=3``) and the decompose300 instance
(seed 42, ``wan_library``, decompose at ``max_arity=2`` without
polish):

- the stages a selected merging materializes cost exactly its column
  weight, and its ``max_hops`` is the hop count of its longest path;
- planning makes no ``best_point_to_point`` call for a merging, and
  materializing one makes ``2K + 1``;
- a solve served from a warm persistent cache materializes the same
  implementation as the cold solve that filled it.
"""

from __future__ import annotations

import pytest

from repro import PersistentCache, SynthesisOptions, persistent_cache, synthesize
from repro.core import merging, synthesis
from repro.core.merging import stage_plans
from repro.core.synthesis import materialize_selection
from repro.domains import wan_library
from repro.domains.conformance import CONFORMANCE_CASES
from repro.netgen import clustered_graph, two_tier_library


def _conformance():
    for name, (builder, max_arity) in CONFORMANCE_CASES.items():
        graph, library = builder()
        yield name, graph, library, SynthesisOptions(max_arity=max_arity)


def _batch_warm():
    options = SynthesisOptions(max_arity=3)
    for seed in range(1000, 1050):
        graph = clustered_graph(
            n_clusters=2, ports_per_cluster=4, n_arcs=8, separation=100.0, seed=seed
        )
        yield f"seed{seed}", graph, two_tier_library(), options


def _decompose300():
    graph = clustered_graph(
        n_clusters=6, ports_per_cluster=12, n_arcs=300, cluster_spread=5.0,
        separation=500.0, bandwidth_range=(1.0, 3.0), intra_fraction=1.0, seed=42,
    )
    options = SynthesisOptions(strategy="decompose", max_arity=2, polish_placement=False)
    yield "seed42", graph, wan_library(), options


PACKS = {"conformance": _conformance, "batch-warm": _batch_warm, "decompose300": _decompose300}


def _implementation(impl):
    """Vertex positions, link instances and paths per arc."""
    return (
        [(v.name, v.position, (v.port or v.node).name) for v in impl.vertices],
        [(a.name, a.source, a.target, a.link.name, a.length, a.bandwidth) for a in impl.arcs],
        {name: impl.arc_implementation(name) for name in impl.implemented_arcs},
    )


@pytest.fixture(scope="module", params=list(PACKS))
def solved(request, tmp_path_factory):
    """Per instance: a cold solve filling a persistent cache, a warm
    solve served from it, and ``best_point_to_point`` calls counted
    apart for planning and for each merging's materialization."""
    runs = []
    with pytest.MonkeyPatch.context() as patch:
        calls = {"planning": 0, "materialize": 0}
        phase = ["planning"]
        per_merge = []
        real_p2p = merging.best_point_to_point
        real_materialize = merging.materialize_merging

        def counted_p2p(*args, **kwargs):
            calls[phase[0]] += 1
            return real_p2p(*args, **kwargs)

        def counted_materialize(impl, graph, plan):
            phase[0] = "materialize"
            before = calls["materialize"]
            try:
                return real_materialize(impl, graph, plan)
            finally:
                phase[0] = "planning"
                per_merge.append((plan.k, calls["materialize"] - before))

        patch.setattr(merging, "best_point_to_point", counted_p2p)
        patch.setattr(synthesis, "materialize_merging", counted_materialize)
        for name, graph, library, options in PACKS[request.param]():
            cache_dir = tmp_path_factory.mktemp(f"{request.param}-{name}")
            with PersistentCache(cache_dir) as store, persistent_cache(store):
                cold = synthesize(graph, library, options)
            with PersistentCache(cache_dir) as store, persistent_cache(store):
                warm = synthesize(graph, library, options)
                assert store.stats.misses == 0
            runs.append((name, graph, library, cold, warm))
    return runs, calls, per_merge


def test_selected_stages_cost_the_column_weight_and_hops(solved):
    runs, _, _ = solved
    merges = 0
    for _, graph, library, result, _ in runs:
        for candidate in result.selected:
            if not candidate.is_merging:
                continue
            merges += 1
            plan = candidate.plan
            stages = stage_plans(graph, plan, library)
            cost = (
                sum(p.cost for p in stages.feeders)
                + stages.trunk.cost
                + sum(p.cost for p in stages.distributors)
                + plan.mux_count * stages.mux.cost
                + plan.demux_count * stages.demux.cost
            )
            assert cost == plan.cost, candidate.label()
            impl = materialize_selection(graph, library, [candidate])
            hops = max(
                sum(impl.vertex(v).is_communication for v in impl.path_vertices(path))
                for arc in plan.arc_names
                for path in impl.arc_implementation(arc)
            )
            assert plan.max_hops == hops, candidate.label()
    assert merges > 0


def test_planning_builds_no_stage_plan_and_materializing_builds_2k_plus_1(solved):
    runs, calls, per_merge = solved
    assert calls["planning"] == 0
    selected = sum(c.is_merging for *_, cold, warm in runs for c in cold.selected + warm.selected)
    assert len(per_merge) == selected > 0
    assert all(count == 2 * k + 1 for k, count in per_merge)


def test_warm_cache_materializes_the_cold_implementation(solved):
    runs, _, _ = solved
    for name, _, _, cold, warm in runs:
        assert [c.label() for c in warm.selected] == [c.label() for c in cold.selected], name
        assert _implementation(warm.implementation) == _implementation(cold.implementation), name
