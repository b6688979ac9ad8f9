"""Bit-identity of the batch merge-planning kernel against a per-group
oracle.

:func:`repro.core.merging.build_merging_plans_batch` looks up the
cheapest mux and demux, the reduction-tree counts and each arc's feeder
stage cost once per call, and builds every plan from the stage prices
its placement computed at the optimum.  The oracle below is the earlier
per-group planner, kept verbatim: every group looks everything up
again, places, then prices each of its ``2K + 1`` stages a second time
(``_price_stage``, the former ``price_stage``) and sums those.  Both
must return ``==`` plans, every field included, with the same
persistent-cache lookups and puts in the same order, cold and against
a warm cache, and the same number of placements through
``repro.core.merging.optimize_two_points``.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import List, Optional, Sequence
from unittest import mock

import pytest

from repro.core import candidates, merging, point_to_point
from repro.core.cache import PersistentCache, current_persistent_cache, persistent_cache
from repro.core.candidates import generate_candidates
from repro.core.constraint_graph import ConstraintGraph
from repro.core.exceptions import InfeasibleError
from repro.core.geometry import Point
from repro.core.library import CommunicationLibrary, Link, NodeKind, NodeSpec
from repro.core.merging import MergingPlan, build_merging_plans_batch, stage_plans
from repro.core.mux_trees import tree_node_count
from repro.core.point_to_point import stage_cost
from repro.domains import wan_library
from repro.domains.conformance import CONFORMANCE_CASES
from repro.domains.wan import wan_example
from repro.netgen import clustered_graph, star_graph

# ----------------------------------------------------------------------
# the oracle: the per-group planner, kept verbatim
# ----------------------------------------------------------------------


def _price_stage(distance, bandwidth, library):
    _, best = point_to_point._cheapest(distance, bandwidth, library)
    return best[0], best[1]


def _oracle_plan(
    graph: ConstraintGraph,
    arc_names: Sequence[str],
    library: CommunicationLibrary,
    polish_placement: bool = True,
) -> Optional[MergingPlan]:
    if len(arc_names) < 2:
        raise ValueError("a merging involves at least two arcs")
    arcs = [graph.arc(name) for name in arc_names]

    store = current_persistent_cache()
    cache_key = None
    if store is not None:
        cache_key = merging._merge_cache_key(graph, arcs, polish_placement)
        found, cached = store.lookup("merge", library, cache_key)
        if found:
            if cached is None:
                return None
            return replace(cached, arc_names=tuple(arc_names))

    mux = library.cheapest_node(NodeKind.MUX)
    demux = library.cheapest_node(NodeKind.DEMUX)
    if mux is None or demux is None:
        if store is not None:
            store.put("merge", library, cache_key, None)
        return None
    mux_count = tree_node_count(len(arcs), mux.max_degree)
    demux_count = tree_node_count(len(arcs), demux.max_degree)

    sources = [a.source.position for a in arcs]
    sinks = [a.target.position for a in arcs]
    total_bw = sum(a.bandwidth for a in arcs)

    try:
        feeder_costs = [stage_cost(a.bandwidth, library) for a in arcs]
        trunk_cost = stage_cost(total_bw, library)
        distributor_costs = feeder_costs
        placement = merging.optimize_two_points(
            sources, sinks, feeder_costs, trunk_cost, distributor_costs,
            norm=graph.norm, polish=polish_placement,
        )
        s, t = placement.merge_point, placement.split_point

        distance = graph.norm.distance
        feeders = [_price_stage(distance(a.source.position, s), a.bandwidth, library) for a in arcs]
        trunk_price, trunk_segments = _price_stage(distance(s, t), total_bw, library)
        distributors = [
            _price_stage(distance(t, a.target.position), a.bandwidth, library) for a in arcs
        ]
    except InfeasibleError:
        if store is not None:
            store.put("merge", library, cache_key, None)
        return None

    cost = (
        sum(c for c, _ in feeders)
        + trunk_price
        + sum(c for c, _ in distributors)
        + mux_count * mux.cost
        + demux_count * demux.cost
    )
    max_hops = max(f + trunk_segments + d for (_, f), (_, d) in zip(feeders, distributors)) - 1
    plan = MergingPlan(
        arc_names=tuple(arc_names),
        merge_point=s,
        split_point=t,
        trunk_bandwidth=total_bw,
        mux_count=mux_count,
        demux_count=demux_count,
        cost=cost,
        max_hops=max_hops,
        placement_method=placement.method,
    )
    if store is not None:
        store.put("merge", library, cache_key, plan)
    return plan


def _oracle(graph, groups, library, polish_placement=True) -> List[Optional[MergingPlan]]:
    return [_oracle_plan(graph, names, library, polish_placement) for names in groups]


# ----------------------------------------------------------------------
# inputs: (graph, groups) lists with one library and polish flag each
# ----------------------------------------------------------------------


def _all_groups(graph, arities=(2, 3, 4)):
    names = [a.name for a in graph.arcs]
    return [g for k in arities for g in itertools.combinations(names, k)]


def _duplicating_library() -> CommunicationLibrary:
    """A thin link that duplicates (branches > 1) behind a paid mux and
    demux, fan-in bounded so K = 3, 4 need reduction trees."""
    lib = CommunicationLibrary("duplicating")
    lib.add_link(Link("thin", bandwidth=10.0, cost_per_unit=1.0))
    lib.add_link(Link("thick", bandwidth=1000.0, cost_per_unit=8.0))
    lib.add_node(NodeSpec("mux", NodeKind.MUX, cost=3.0, max_degree=2))
    lib.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=2.0, max_degree=3))
    return lib


def _repeater_library() -> CommunicationLibrary:
    """A short-reach link segmented through paid repeaters (segments > 1
    on long stages) beside a dear unbounded one."""
    lib = CommunicationLibrary("repeated")
    lib.add_link(Link("short", bandwidth=100.0, max_length=20.0, cost_fixed=1.0, cost_per_unit=0.5))
    lib.add_link(Link("long", bandwidth=100.0, cost_per_unit=3.0))
    lib.add_node(NodeSpec("mux", NodeKind.MUX, cost=0.5))
    lib.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=0.5))
    lib.add_node(NodeSpec("repeater", NodeKind.REPEATER, cost=2.0))
    return lib


def _muxless_library() -> CommunicationLibrary:
    lib = CommunicationLibrary("muxless")
    lib.add_link(Link("radio", bandwidth=100.0, cost_per_unit=2.0))
    lib.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=0.0))
    lib.add_node(NodeSpec("repeater", NodeKind.REPEATER, cost=0.0))
    return lib


#: library -> the bandwidth range of its sweep graphs
SWEEP_LIBRARIES = {
    "wan": (wan_library, (1e6, 3e7)),
    "duplicating": (_duplicating_library, (4.0, 30.0)),
    "repeated": (_repeater_library, (5.0, 30.0)),
    "muxless": (_muxless_library, (5.0, 30.0)),
}


def _sweep(library_name):
    """Seeded 6-arc graphs, every group of K = 2..4.  Every graph names
    its arcs ``a1..a6`` with other bandwidths."""
    make, bandwidths = SWEEP_LIBRARIES[library_name]
    cases = []
    for seed in range(4):
        graph = clustered_graph(
            n_clusters=2, ports_per_cluster=3, n_arcs=6, separation=100.0,
            bandwidth_range=bandwidths, seed=seed,
        )
        cases.append((graph, _all_groups(graph)))
    return make(), cases, False


def _wan():
    graph, library = wan_example()
    return library, [(graph, _all_groups(graph, range(2, len(graph.arcs) + 1)))], True


def _degenerate():
    """Parallel arcs (both sides pinned) and stars (one side pinned)."""
    graph = ConstraintGraph(name="parallel")
    graph.add_port("s", Point(0.0, 0.0))
    graph.add_port("t", Point(100.0, 0.0))
    for i, bw in enumerate((5e6, 7e6, 2e7)):
        graph.add_channel(f"a{i + 1}", "s", "t", bandwidth=bw)
    cases = [(graph, _all_groups(graph, (2, 3)))]
    for inbound in (True, False):
        star = star_graph(n_leaves=4, bandwidth=8e6, inbound=inbound)
        cases.append((star, _all_groups(star, (2, 3))))
    return wan_library(), cases, True


def _conformance(name):
    """The groups synthesis plans on one conformance case; every pair
    and triple where it plans none (pruning rejects them all)."""
    builder, max_arity = CONFORMANCE_CASES[name]
    graph, library = builder()
    groups = []
    real = candidates.build_merging_plans_batch

    def recorded(graph, chunk, library, polish_placement=True):
        groups.extend(chunk)
        return real(graph, chunk, library, polish_placement=polish_placement)

    with mock.patch.object(candidates, "build_merging_plans_batch", recorded):
        generate_candidates(graph, library, max_arity=max_arity)
    return library, [(graph, groups or _all_groups(graph, (2, 3)))], True


def _decompose300(per_cluster: int = 7):
    """Intra-cluster pairs of decompose300's seed-42 instance: 126 of
    them, among the first arcs of each of its 6 clusters."""
    graph = clustered_graph(
        n_clusters=6, ports_per_cluster=12, n_arcs=300, cluster_spread=5.0,
        separation=500.0, bandwidth_range=(1.0, 3.0), intra_fraction=1.0, seed=42,
    )
    clusters = {}
    for arc in graph.arcs:
        clusters.setdefault(arc.source.module, []).append(arc.name)
    groups = [
        g for names in clusters.values()
        for g in itertools.combinations(names[:per_cluster], 2)
    ]
    return wan_library(), [(graph, groups)], False


INPUTS = {
    "wan": _wan,
    "degenerate": _degenerate,
    "decompose300": _decompose300,
    **{f"conformance-{name}": (lambda name=name: _conformance(name)) for name in CONFORMANCE_CASES},
    **{f"sweep-{name}": (lambda name=name: _sweep(name)) for name in SWEEP_LIBRARIES},
}


# ----------------------------------------------------------------------
# running either planner
# ----------------------------------------------------------------------


def _plan_all(planner, library, cases, polish):
    """Plans of every case (one planner call per graph, in order) and
    the ``merging.optimize_two_points`` calls they made."""
    solves = [0]
    real = merging.optimize_two_points

    def counted(*args, **kwargs):
        solves[0] += 1
        return real(*args, **kwargs)

    with mock.patch.object(merging, "optimize_two_points", counted):
        plans = [planner(graph, groups, library, polish) for graph, groups in cases]
    return plans, solves[0]


def _plan_cached(planner, library, cases, polish, cache_dir):
    """:func:`_plan_all` inside a persistent cache at ``cache_dir``,
    with the store's lookups and puts logged in order."""
    log = []
    with PersistentCache(cache_dir) as store, persistent_cache(store):
        real_lookup, real_put = store.lookup, store.put

        def lookup(space, lib, key):
            found, value = real_lookup(space, lib, key)
            log.append(("lookup", space, repr(key), found, repr(value)))
            return found, value

        def put(space, lib, key, value):
            log.append(("put", space, repr(key), repr(value)))
            return real_put(space, lib, key, value)

        with mock.patch.object(store, "lookup", lookup), mock.patch.object(store, "put", put):
            plans, solves = _plan_all(planner, library, cases, polish)
        misses = store.stats.misses
    return plans, solves, log, misses


@pytest.fixture(scope="module", params=list(INPUTS))
def planned(request):
    library, cases, polish = INPUTS[request.param]()
    assert sum(len(groups) for _, groups in cases) > 0
    return request.param, library, cases, polish


def test_kernel_equals_the_oracle_cold(planned):
    name, library, cases, polish = planned
    got, solves = _plan_all(build_merging_plans_batch, library, cases, polish)
    want, oracle_solves = _plan_all(_oracle, library, cases, polish)
    assert got == want, name
    assert solves == oracle_solves
    if name == "sweep-muxless":
        assert solves == 0 and all(p is None for plans in got for p in plans)
    else:
        assert sum(p is not None for plans in got for p in plans) > 0


def test_kernel_equals_the_oracle_against_a_warm_cache(planned, tmp_path):
    name, library, cases, polish = planned
    want, _ = _plan_all(_oracle, library, cases, polish)
    kernel_dir, oracle_dir = tmp_path / "kernel", tmp_path / "oracle"
    cold, _, log, _ = _plan_cached(build_merging_plans_batch, library, cases, polish, kernel_dir)
    oracle_cold, _, oracle_log, _ = _plan_cached(_oracle, library, cases, polish, oracle_dir)
    assert cold == oracle_cold == want, name
    assert log == oracle_log
    warm, solves, _, misses = _plan_cached(
        build_merging_plans_batch, library, cases, polish, kernel_dir
    )
    assert warm == want, name
    assert misses == 0 and solves == 0


def test_the_sweeps_reach_every_stage_shape():
    """The sweep libraries do what they are for: duplicated stages
    behind paid reduction trees, and segmented stages whose segment
    counts differ from the trunk's."""
    shapes = {}
    for name in ("duplicating", "repeated"):
        library, cases, polish = _sweep(name)
        shapes[name] = [
            (plan, stage_plans(graph, plan, library))
            for graph, groups in cases
            for plan in build_merging_plans_batch(graph, groups, library, polish)
        ]
    duplicating = shapes["duplicating"]
    assert {plan.mux_count for plan, _ in duplicating if plan.k == 4} == {3}
    assert {plan.demux_count for plan, _ in duplicating if plan.k == 4} == {2}
    assert any(
        stage.branches > 1
        for _, stages in duplicating
        for stage in (*stages.feeders, stages.trunk, *stages.distributors)
    )
    assert any(
        stages.trunk.segments > 1 and any(
            d.segments != stages.trunk.segments for d in stages.distributors
        )
        for _, stages in shapes["repeated"]
    )
