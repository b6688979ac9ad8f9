"""Construction and costing of K-way arc mergings (Definition 2.8).

A merging of arcs ``a_1..a_k`` routes all of them through a *common
path* — here modelled as the three-stage pipeline

    u_i --feeder_i--> [mux @ s] --trunk--> [demux @ t] --distributor_i--> v_i

where every stage is itself an optimum point-to-point implementation
(:mod:`repro.core.point_to_point`), the trunk carries the *sum* of the
merged bandwidths (mux semantics, matching Theorem 3.2), and the
positions ``s``/``t`` are chosen by the placement optimizer
(:mod:`repro.core.placement`).  Degenerate stages — a source sitting on
the merge point, or all arcs sharing a sink so the demux collapses onto
it — fall out naturally as zero-length stages whose cost is the link
family's fixed cost (zero for per-unit-priced links).

Candidate generation plans thousands of mergings and the cover selects
few, so a :class:`MergingPlan` is lean: the placement, the exact cost
and the hop count, from the stage prices the placement computed at its
optimum (:func:`build_merging_plans_batch`, the one planning kernel),
without building a stage plan.  :func:`stage_plans` builds the
``2K + 1`` concrete :class:`~repro.core.point_to_point.PointToPointPlan`
stages and picks the mux/demux of a plan on demand, and
:func:`materialize_merging` instantiates them into an implementation
graph — for selected mergings only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cache import current_persistent_cache
from .constraint_graph import Arc, ConstraintGraph
from .exceptions import InfeasibleError
from .geometry import Point
from .implementation import ImplementationGraph, Path
from .library import CommunicationLibrary, NodeKind, NodeSpec
from .mux_trees import tree_node_count
from .placement import PlacementResult, StageCost, optimize_two_points
# perfbench traces the placement layer under this module's names
from .placement import optimize_two_points_batch  # noqa: F401
from .point_to_point import PointToPointPlan, best_point_to_point, materialize_plan, stage_cost

__all__ = [
    "MergingPlan",
    "MergingStages",
    "build_merging_plan",
    "build_merging_plans_batch",
    "stage_plans",
    "materialize_merging",
]


@dataclass(frozen=True)
class MergingPlan:
    """A costed K-way merging of the named constraint arcs.

    ``cost`` is the full architecture cost of the merged implementation
    (feeders + trunk + distributors + mux + demux), i.e. the column
    weight this candidate contributes to the covering problem.  The
    plan holds no stage plan, link or node: :func:`stage_plans` derives
    them from the placement and the library.
    """

    arc_names: Tuple[str, ...]
    merge_point: Point
    split_point: Point
    #: bandwidth the common path must sustain (Σ b(a_i)).
    trunk_bandwidth: float
    #: instances of mux/demux needed — exceeds 1 when the node's
    #: max_degree forces a multi-level reduction tree (repro.core.mux_trees).
    mux_count: int
    demux_count: int
    cost: float
    #: worst-case communication vertices on any merged arc's path:
    #: feeder repeaters + mux + trunk repeaters + demux + distributor
    #: repeaters — a latency proxy for hop-constrained synthesis.
    max_hops: int
    placement_method: str

    @property
    def k(self) -> int:
        """The merging's arity (number of merged constraint arcs)."""
        return len(self.arc_names)


class MergingStages(NamedTuple):
    """The concrete stages of one :class:`MergingPlan`, in build order."""

    feeders: Tuple[PointToPointPlan, ...]
    trunk: PointToPointPlan
    distributors: Tuple[PointToPointPlan, ...]
    mux: NodeSpec
    demux: NodeSpec


def _merge_cache_key(
    graph: ConstraintGraph, arcs: Sequence[Arc], polish_placement: bool
) -> list:
    """Persistent-cache key of one merging solve: the solve depends
    only on the norm, the polish flag, the group's endpoint geometry +
    bandwidths (in group order) and the library (covered by the key's
    fingerprint) — arc *names* are presentational and re-applied on a
    hit."""
    return [
        graph.norm.name,
        bool(polish_placement),
        [
            [
                a.source.position.x,
                a.source.position.y,
                a.target.position.x,
                a.target.position.y,
                a.bandwidth,
            ]
            for a in arcs
        ],
    ]


def build_merging_plan(
    graph: ConstraintGraph,
    arc_names: Sequence[str],
    library: CommunicationLibrary,
    polish_placement: bool = True,
) -> Optional[MergingPlan]:
    """Cost the K-way merging of ``arc_names``; ``None`` when infeasible.

    Infeasible means the library offers no mux or demux node, or some
    stage cannot be implemented point-to-point at all.  This is the
    paper's "simple nonlinear optimization problem" solved per
    candidate: positions of the communication nodes, whose placement
    prices each of the ``2K + 1`` stages once by the stage-cost model,
    which gives the exact cost and hop count without building a stage
    plan.  The one-group call of :func:`build_merging_plans_batch`.
    """
    return build_merging_plans_batch(graph, [arc_names], library, polish_placement)[0]


def build_merging_plans_batch(
    graph: ConstraintGraph,
    groups: Sequence[Sequence[str]],
    library: CommunicationLibrary,
    polish_placement: bool = True,
) -> List[Optional[MergingPlan]]:
    """:func:`build_merging_plan` for every group, in order: the one
    merge-planning kernel, which candidate generation plans each chunk
    through.

    The cheapest mux and demux, the reduction-tree node counts of each
    arity and each arc's feeder stage cost are looked up once per call.
    Each group reads the persistent cache (a hit, ``None`` included,
    serves it); otherwise its trunk stage cost is looked up, the
    placement (:func:`~repro.core.placement.optimize_two_points`) prices
    every stage once at the optimum, and the plan sums those prices —
    feeders, trunk, distributors, then the mux and demux — and is
    stored, ``None`` when infeasible.
    """
    store = current_persistent_cache()
    mux = library.cheapest_node(NodeKind.MUX)
    demux = library.cheapest_node(NodeKind.DEMUX)
    trees: Dict[int, Tuple[int, int]] = {}
    feeder_costs: Dict[str, StageCost] = {}
    plans: List[Optional[MergingPlan]] = []
    for arc_names in groups:
        if len(arc_names) < 2:
            raise ValueError("a merging involves at least two arcs")
        arcs = [graph.arc(name) for name in arc_names]
        cache_key = None
        if store is not None:
            cache_key = _merge_cache_key(graph, arcs, polish_placement)
            found, cached = store.lookup("merge", library, cache_key)
            if found:
                if cached is not None:
                    cached = replace(cached, arc_names=tuple(arc_names))
                plans.append(cached)
                continue
        plan = None
        if mux is not None and demux is not None:
            k = len(arcs)
            counts = trees.get(k)
            if counts is None:
                counts = trees[k] = (
                    tree_node_count(k, mux.max_degree), tree_node_count(k, demux.max_degree)
                )
            total_bw = sum(a.bandwidth for a in arcs)
            try:
                feeders = []
                for a in arcs:
                    stage = feeder_costs.get(a.name)
                    if stage is None:
                        stage = feeder_costs[a.name] = stage_cost(a.bandwidth, library)
                    feeders.append(stage)
                # distributors carry the same per-arc bandwidths as feeders
                placement = optimize_two_points(
                    [a.source.position for a in arcs], [a.target.position for a in arcs],
                    feeders, stage_cost(total_bw, library), feeders,
                    norm=graph.norm, polish=polish_placement,
                )
            except InfeasibleError:
                pass
            else:
                plan = _plan(arc_names, placement, total_bw, counts, mux, demux)
        if store is not None:
            store.put("merge", library, cache_key, plan)
        plans.append(plan)
    return plans


def _plan(
    arc_names: Sequence[str],
    placement: PlacementResult,
    trunk_bandwidth: float,
    counts: Tuple[int, int],
    mux: NodeSpec,
    demux: NodeSpec,
) -> MergingPlan:
    """The plan of ``placement``: its stage prices summed feeders,
    trunk, distributors, then ``counts`` muxes and demuxes."""
    k = len(arc_names)
    prices = placement.stage_prices
    feeders = prices[:k]
    trunk_price, trunk_segments = prices[k]
    distributors = prices[k + 1:]
    mux_count, demux_count = counts
    cost = (
        sum(c for c, _ in feeders)
        + trunk_price
        + sum(c for c, _ in distributors)
        + mux_count * mux.cost
        + demux_count * demux.cost
    )
    # segments - 1 repeaters per stage, plus the mux and the demux
    max_hops = max(f + trunk_segments + d for (_, f), (_, d) in zip(feeders, distributors)) - 1
    return MergingPlan(
        arc_names=tuple(arc_names),
        merge_point=placement.merge_point,
        split_point=placement.split_point,
        trunk_bandwidth=trunk_bandwidth,
        mux_count=mux_count,
        demux_count=demux_count,
        cost=cost,
        max_hops=max_hops,
        placement_method=placement.method,
    )


def stage_plans(
    graph: ConstraintGraph, plan: MergingPlan, library: CommunicationLibrary
) -> MergingStages:
    """The ``2K + 1`` point-to-point stage plans of ``plan`` (feeders,
    trunk, distributors, by :func:`best_point_to_point` at the placed
    stage lengths) and the library's cheapest mux and demux.  Their
    costs, summed in that order, plus ``mux_count`` muxes and
    ``demux_count`` demuxes, are ``plan.cost`` exactly."""
    arcs = [graph.arc(name) for name in plan.arc_names]
    s, t = plan.merge_point, plan.split_point
    distance = graph.norm.distance
    return MergingStages(
        feeders=tuple(
            best_point_to_point(distance(a.source.position, s), a.bandwidth, library)
            for a in arcs
        ),
        trunk=best_point_to_point(distance(s, t), plan.trunk_bandwidth, library),
        distributors=tuple(
            best_point_to_point(distance(t, a.target.position), a.bandwidth, library)
            for a in arcs
        ),
        mux=library.cheapest_node(NodeKind.MUX),
        demux=library.cheapest_node(NodeKind.DEMUX),
    )


def materialize_merging(
    impl: ImplementationGraph,
    graph: ConstraintGraph,
    plan: MergingPlan,
) -> Dict[str, List[Path]]:
    """Instantiate a merging plan into ``impl``.

    Builds the plan's stages from ``impl.library`` (:func:`stage_plans`),
    adds the mux and demux vertices, materializes every stage, and
    returns, per merged constraint arc, the list of end-to-end paths
    (every feeder branch × trunk branch × distributor branch
    combination — contiguous by construction through the shared mux and
    demux vertices).
    """
    stages = stage_plans(graph, plan, impl.library)
    mux_v = impl.add_communication_vertex(stages.mux, plan.merge_point)
    demux_v = impl.add_communication_vertex(stages.demux, plan.split_point)
    # extra reduction-tree levels (bounded fan-in): cost-carrying node
    # instances co-located with the merge/split points.
    for _ in range(plan.mux_count - 1):
        impl.add_communication_vertex(stages.mux, plan.merge_point)
    for _ in range(plan.demux_count - 1):
        impl.add_communication_vertex(stages.demux, plan.split_point)

    for name in plan.arc_names:
        arc = graph.arc(name)
        impl.add_computational_vertex(arc.source)
        impl.add_computational_vertex(arc.target)

    trunk_paths = materialize_plan(impl, stages.trunk, mux_v.name, demux_v.name)

    result: Dict[str, List[Path]] = {}
    for arc, fplan, dplan in zip(
        [graph.arc(n) for n in plan.arc_names], stages.feeders, stages.distributors
    ):
        feeder_paths = materialize_plan(impl, fplan, arc.source.name, mux_v.name)
        dist_paths = materialize_plan(impl, dplan, demux_v.name, arc.target.name)
        combined: List[Path] = []
        for fp in feeder_paths:
            for tp in trunk_paths:
                for dp in dist_paths:
                    combined.append(Path(fp.arc_names + tp.arc_names + dp.arc_names))
        result[arc.name] = combined
        impl.set_arc_implementation(arc.name, combined)
    return result
