"""Optimum point-to-point arc implementations (Definitions 2.6 / 2.7).

Given one constraint arc with distance ``d`` and bandwidth ``b`` and a
communication library, ``findBestPointToPointImplementation`` (the
paper's step (1)-(4) recipe after Definition 2.7) evaluates, for every
library link type ``l``:

1. **arc matching** — one instance when ``d(l) >= d`` and ``b(l) >= b``;
2. **K-way arc segmentation** — ``K = ceil(d / d(l))`` instances in
   series joined by ``K-1`` repeaters when only the distance fails;
3. **K-way arc duplication** — ``M = ceil(b / b(l))`` instances in
   parallel behind a mux/demux pair when only the bandwidth fails;
4. the **combination** — ``M`` parallel branches of ``K`` segments each
   when both fail;

and returns the cheapest feasible plan as a :class:`PointToPointPlan`.
One formula prices every structure (:class:`_StageModel`); at fixed
bandwidth it is also the placement objective's cost of one stage
(:func:`stage_cost`), whose linearity is read off the structures.
Plans are pure descriptions — materializing one into an
:class:`~repro.core.implementation.ImplementationGraph` is
:func:`materialize_plan`'s job, so candidate generation can cost
thousands of alternatives without building graphs; a stage cost's
:meth:`~repro.core.placement.StageCost.price` gives a plan's cost and
segment count without building the plan, which is how merge candidates
price their stages.

The module also hosts :func:`check_assumption`, the Assumption 2.1
verifier (cost positive and monotone nondecreasing in ``(d, b)`` over
the arcs of a constraint graph).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..obs import current_tracer
from .constraint_graph import Arc, ConstraintGraph
from .exceptions import AssumptionViolation, InfeasibleError, LibraryError
from .geometry import Point
from .implementation import ArcImplementationKind, ImplementationGraph, Path
from .library import CommunicationLibrary, Link, NodeKind, NodeSpec
from .placement import StageCost

__all__ = [
    "PointToPointPlan",
    "best_point_to_point",
    "point_to_point_cost",
    "stage_cost",
    "materialize_plan",
    "check_assumption",
]

#: relative slack of the linearity verdict's bounds: far above the
#: rounding of their few terms, far below any cost difference that
#: matters.
_LINEAR_RTOL = 1e-13


@dataclass(frozen=True)
class PointToPointPlan:
    """A costed recipe implementing one (distance, bandwidth) requirement.

    ``branches`` parallel chains, each made of ``segments`` instances of
    ``link`` in series; ``segments - 1`` repeaters per chain; one
    mux/demux pair when ``branches >= 2``.  ``kind`` names the structure
    per Definition 2.7.
    """

    link: Link
    segments: int
    branches: int
    distance: float
    bandwidth: float
    repeater: Optional[NodeSpec]
    mux: Optional[NodeSpec]
    demux: Optional[NodeSpec]
    cost: float

    @property
    def kind(self) -> ArcImplementationKind:
        """Structural classification (Definition 2.7)."""
        if self.branches == 1:
            return (
                ArcImplementationKind.MATCHING
                if self.segments == 1
                else ArcImplementationKind.SEGMENTATION
            )
        if self.segments == 1:
            return ArcImplementationKind.DUPLICATION
        return ArcImplementationKind.GENERAL

    @property
    def segment_length(self) -> float:
        """Span of each individual link instance (uniform subdivision)."""
        return self.distance / self.segments

    @property
    def branch_bandwidth(self) -> float:
        """Traffic reserved on each parallel branch (balanced split)."""
        return self.bandwidth / self.branches

    @property
    def repeater_count(self) -> int:
        """Total repeaters across all branches."""
        return self.branches * (self.segments - 1)

    @property
    def link_count(self) -> int:
        """Total link instances across all branches."""
        return self.branches * self.segments

    @property
    def max_hops(self) -> int:
        """Communication vertices on one branch's path (a latency
        proxy): interior repeaters, plus the mux/demux pair when the
        plan duplicates."""
        hops = self.segments - 1
        if self.branches > 1:
            hops += 2
        return hops


class _StageModel:
    """Every structure that carries one bandwidth over a library, priced
    by one formula: ``M`` parallel chains of one link type, behind the
    cheapest mux/demux pair (costing ``o``) when ``M >= 2``, each chain
    ``K = 1`` segment within the link's reach ``L`` and ``ceil(d / L)``
    past it, joined by ``K - 1`` repeaters::

        f(d) = M·(K·c_fixed + c_unit·d + (K - 1)·c_rep) + o
    """

    __slots__ = ("structures", "repeater", "mux", "demux", "stage")

    def __init__(
        self, shapes: Tuple[Optional[Tuple[int, float]], ...], library: CommunicationLibrary
    ) -> None:
        library.validate()
        self.repeater = library.cheapest_node(NodeKind.REPEATER)
        self.mux = library.cheapest_node(NodeKind.MUX)
        self.demux = library.cheapest_node(NodeKind.DEMUX)
        # (M, o, c_fixed, c_unit, L or None when unbounded, link)
        structures = []
        for link, shape in zip(library.links, shapes):
            if shape is None:
                continue
            reach = None if math.isinf(link.max_length) else link.max_length
            structures.append((*shape, link.cost_fixed, link.cost_per_unit, reach, link))
        self.structures = tuple(structures)
        slope = self._linear_slope()
        self.stage = StageCost(
            fn=self.cost, is_linear=slope is not None, slope=slope or 0.0, pricer=self.price
        )

    def cheapest(self, distance: float) -> Optional[Tuple[float, int, int, Link]]:
        """``(cost, segments, branches, link)`` of the cheapest structure
        at ``distance``; ties break toward fewer link instances, then
        link name.  None when every structure needs an absent repeater."""
        rep = None if self.repeater is None else self.repeater.cost
        best = None
        best_cost = math.inf
        for branches, overhead, cf, cu, reach, link in self.structures:
            if reach is None or distance <= reach * (1 + 1e-12):
                segments = 1
            elif rep is None:
                continue
            else:
                segments = int(math.ceil(distance / reach - 1e-12))
            chain = segments * cf + cu * distance
            if segments > 1:
                chain += (segments - 1) * rep
            cost = branches * chain + overhead
            if cost < best_cost or (
                cost == best_cost
                and best is not None
                and (branches * segments, link.name) < (best[2] * best[1], best[3].name)
            ):
                best_cost = cost
                best = (cost, segments, branches, link)
        return best

    def cost(self, distance: float) -> float:
        """The stage's cost at ``distance`` (negative lengths clamp to 0):
        :meth:`price`'s first element, without building the pair (the
        Nelder–Mead objective calls it thousands of times)."""
        best = self.cheapest(max(distance, 0.0))
        if best is None:
            raise InfeasibleError(f"no link structure spans distance {distance}")
        return best[0]

    def price(self, distance: float) -> Tuple[float, int]:
        """``(cost, segments)`` of the cheapest structure at ``distance``
        (negative lengths clamp to 0): ``best_point_to_point``'s plan
        cost and segment count, bit for bit, without building the plan."""
        best = self.cheapest(max(distance, 0.0))
        if best is None:
            raise InfeasibleError(f"no link structure spans distance {distance}")
        return best[0], best[1]

    def _linear_slope(self) -> Optional[float]:
        """The ``c`` with ``f(d) = c·d`` at every length, or None
        (docs/THEORY.md §4).  ``c`` is the least ``M·c_unit`` of the
        structures that cost exactly that (no fixed cost, no overhead,
        no paid repeater).  Every structure cheaper per unit needs a
        finite reach, and its excess over ``c·d``, least at the end of
        each reach interval, must be nonnegative at ``d = L`` and not
        fall per extra reach.  The bounds take a relative slack of
        ``_LINEAR_RTOL``, so exact ties stay linear through rounding.
        """
        rep = None if self.repeater is None else self.repeater.cost
        slopes = [
            branches * cu
            for branches, overhead, cf, cu, reach, _ in self.structures
            if cf == 0.0 and overhead == 0.0 and (reach is None or rep == 0.0)
        ]
        if not slopes:
            return None
        c = min(slopes)
        for branches, overhead, cf, cu, reach, _ in self.structures:
            if branches * cu >= c:
                continue
            if reach is None:
                return None
            excess = branches * cf + (branches * cu - c) * reach
            slack = -_LINEAR_RTOL * c * reach
            if excess + overhead < slack or (
                rep is not None and excess + branches * rep < slack
            ):
                return None
        return c


def _link_shapes(
    bandwidth: float, library: CommunicationLibrary
) -> Tuple[Optional[Tuple[int, float]], ...]:
    """Per library link, the ``(M, o)`` with which it carries
    ``bandwidth``: one instance when it can, else ``M`` parallel
    instances behind the cheapest mux/demux pair costing ``o``; None
    when it cannot carry it at all (no mux or demux)."""
    mux = library.cheapest_node(NodeKind.MUX)
    demux = library.cheapest_node(NodeKind.DEMUX)
    shapes = []
    for link in library.links:
        if link.can_carry(bandwidth):
            shapes.append((1, 0.0))
        elif mux is not None and demux is not None:
            branches = int(math.ceil(bandwidth / link.bandwidth - 1e-12))
            shapes.append((branches, mux.cost + demux.cost))
        else:
            shapes.append(None)
    return tuple(shapes)


def _stage_model(bandwidth: float, library: CommunicationLibrary) -> _StageModel:
    """The structure table of ``bandwidth``, memoized until the library
    mutates.  Bandwidths that every link carries with the same ``(M,
    o)`` (:func:`_link_shapes`) have the same table, so they share one
    model."""
    models = library.derived_cache("stage_model")
    model = models.get(bandwidth)
    if model is None:
        shapes = _link_shapes(bandwidth, library)
        shared = library.derived_cache("stage_model_by_shape")
        model = shared.get(shapes)
        if model is None:
            model = shared[shapes] = _StageModel(shapes, library)
        models[bandwidth] = model
    return model


def _cheapest(
    distance: float, bandwidth: float, library: CommunicationLibrary
) -> Tuple[_StageModel, Tuple[float, int, int, Link]]:
    """The stage model of ``bandwidth`` and its cheapest structure at
    ``distance``; :class:`InfeasibleError` when there is none."""
    model = _stage_model(bandwidth, library)
    if distance < 0 or bandwidth <= 0:
        raise InfeasibleError(f"degenerate requirement d={distance}, b={bandwidth}")
    best = model.cheapest(distance)
    if best is None:
        raise InfeasibleError(
            f"library {library.name!r} cannot implement a channel with "
            f"d={distance}, b={bandwidth}: every link type needs a repeater or "
            f"mux/demux the library does not provide"
        )
    return model, best


def best_point_to_point(
    distance: float,
    bandwidth: float,
    library: CommunicationLibrary,
) -> PointToPointPlan:
    """The minimum-cost point-to-point plan over all library link types.

    Raises :class:`InfeasibleError` when no link type yields a feasible
    structure (e.g. segmentation needed but the library has no
    repeater).  Ties break toward fewer components, then link name, so
    results are deterministic.

    Results are memoized per ``(distance, bandwidth)`` on the library's
    version-keyed :meth:`~repro.core.library.CommunicationLibrary.derived_cache`
    — singleton candidates and the stages of materialized mergings
    repeat arguments, and the memo is dropped automatically when the
    library mutates.  Plans are frozen, so sharing one instance is
    safe.  The persistent cache (:mod:`repro.core.cache`) does not
    store them: a plan costs about as much to compute as to decode from
    a record.
    """
    cache = library.derived_cache("p2p_plans")
    key = (distance, bandwidth)
    cached = cache.get(key)
    # Hit rates are process-local: parallel workers start with cold
    # memos, so these go to the local (non-deterministic) counters.
    if cached is not None:
        current_tracer().count_local("cache.p2p.hit")
        return cached
    current_tracer().count_local("cache.p2p.miss")
    model, (cost, segments, branches, link) = _cheapest(distance, bandwidth, library)
    plan = PointToPointPlan(
        link=link,
        segments=segments,
        branches=branches,
        distance=distance,
        bandwidth=bandwidth,
        repeater=model.repeater if segments > 1 else None,
        mux=model.mux if branches > 1 else None,
        demux=model.demux if branches > 1 else None,
        cost=cost,
    )
    cache[key] = plan
    return plan


def point_to_point_cost(distance: float, bandwidth: float, library: CommunicationLibrary) -> float:
    """Cost of the best point-to-point plan (Lemma 2.1's C(P(a)))."""
    return best_point_to_point(distance, bandwidth, library).cost


def stage_cost(bandwidth: float, library: CommunicationLibrary) -> StageCost:
    """The cost-versus-length function of one pipeline stage at fixed
    bandwidth: ``fn(d)`` equals ``best_point_to_point(d, bandwidth,
    library).cost`` bit for bit, and ``price(d)`` is that cost with the
    plan's segment count, without building plans (the placement
    objective evaluates it thousands of times per candidate).

    ``is_linear`` and ``slope`` are read off the link structures, not
    sampled: when true, ``fn(d) == slope * d`` at every length.  One
    object per bandwidth is memoized until the library mutates.  Raises
    :class:`InfeasibleError` when no link type can carry ``bandwidth``
    at any distance.
    """
    model = _stage_model(bandwidth, library)
    if not model.structures:
        raise InfeasibleError(
            f"library {library.name!r} cannot carry bandwidth {bandwidth} at any distance"
        )
    return model.stage


def materialize_plan(
    graph: ImplementationGraph,
    plan: PointToPointPlan,
    source_name: str,
    target_name: str,
) -> List[Path]:
    """Instantiate ``plan`` between two existing vertices of ``graph``.

    Creates the repeater vertices (evenly spaced on the straight
    source→target segment — uniform subdivision preserves per-segment
    length under any homogeneous norm) and the mux/demux cost-carrying
    vertices for duplication, then returns the list of paths (one per
    branch).  The caller registers the paths against a constraint arc.
    """
    u = graph.vertex(source_name)
    v = graph.vertex(target_name)

    if plan.branches > 1:
        # Definition 2.7 models duplication as parallel direct paths; the
        # mux/demux pair sits at the endpoints as pure cost carriers.
        graph.add_communication_vertex(plan.mux, u.position)
        graph.add_communication_vertex(plan.demux, v.position)

    paths: List[Path] = []
    for _branch in range(plan.branches):
        waypoint_names = [source_name]
        for k in range(1, plan.segments):
            t = k / plan.segments
            pos = Point(
                u.position.x + (v.position.x - u.position.x) * t,
                u.position.y + (v.position.y - u.position.y) * t,
            )
            rep = graph.add_communication_vertex(plan.repeater, pos)
            waypoint_names.append(rep.name)
        waypoint_names.append(target_name)

        arc_names = []
        for a, b in zip(waypoint_names, waypoint_names[1:]):
            inst = graph.add_link_instance(
                plan.link, a, b, bandwidth=plan.branch_bandwidth
            )
            arc_names.append(inst.name)
        paths.append(Path(tuple(arc_names)))
    return paths


def check_assumption(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    strict: bool = False,
) -> List[str]:
    """Verify Assumption 2.1 over the arcs of ``graph``.

    Checks, for every arc, that the optimum point-to-point cost is
    strictly positive, and for every *comparable* pair of arcs
    (``d(a) <= d(a')`` and ``b(a) <= b(a')``) that costs are ordered the
    same way.  Returns the list of human-readable violations; with
    ``strict=True`` a nonempty list raises
    :class:`AssumptionViolation` instead.
    """
    violations: List[str] = []
    costs = {}
    for arc in graph.arcs:
        c = point_to_point_cost(arc.distance, arc.bandwidth, library)
        costs[arc.name] = c
        if c <= 0:
            violations.append(f"arc {arc.name}: C(P(a)) = {c} is not strictly positive")

    for a, b in itertools.combinations(graph.arcs, 2):
        pairs = ((a, b), (b, a))
        for lo, hi in pairs:
            if lo.distance <= hi.distance and lo.bandwidth <= hi.bandwidth:
                if costs[lo.name] > costs[hi.name] + 1e-9:
                    violations.append(
                        f"arcs {lo.name} <= {hi.name} in (d, b) but "
                        f"C(P({lo.name})) = {costs[lo.name]:.6g} > "
                        f"C(P({hi.name})) = {costs[hi.name]:.6g}"
                    )
    if strict and violations:
        raise AssumptionViolation("; ".join(violations))
    return violations
