"""The one stage-cost model of :mod:`repro.core.point_to_point`.

``best_point_to_point`` and ``stage_cost`` price every link structure
with one formula, and the linearity verdict that picks the placement
path is read off the same structures.  These tests hold them to:

- each other, bit for bit: a plan's cost is the stage cost at its
  length;
- Definition 2.7 evaluated per link type from first principles (one
  instance cost per segment), within rounding;
- the verdict: a stage cost called linear is ``slope · d`` on a grid of
  lengths up to 1e6 that includes every reach multiple where a cheaper
  structure could undercut it, and one called nonlinear is not
  proportional on that grid.

The libraries are drawn from :func:`repro.netgen.random_library` and
built by hand with fixed costs, finite reach, duplication and missing
node kinds; distances include 0 and reach multiples ± one ulp, and
bandwidths include the duplication thresholds.  The regression cases
are stage costs that the former three-length sampling probe called
linear.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CommunicationLibrary,
    ConstraintGraph,
    EUCLIDEAN,
    Link,
    NodeKind,
    NodeSpec,
    Point,
    build_merging_plan,
)
from repro.core.exceptions import InfeasibleError
from repro.core.point_to_point import best_point_to_point, stage_cost
from repro.netgen import random_library

#: the verdict's tolerance: a linear stage cost is ``slope · d`` to this
#: relative precision, and a nonlinear one is visibly not proportional.
LINEAR_RTOL = 1e-12
#: the longest length the grid probes.
GRID_MAX = 1e6


def reference_cost(distance, bandwidth, library):
    """Definition 2.7 per link type: ``M`` branches of ``K`` instances,
    each instance priced at its own span, plus ``K - 1`` repeaters per
    branch and a mux/demux pair when ``M >= 2``; the cheapest feasible
    link type wins.  ``inf`` when none is feasible."""
    rep = library.cheapest_node(NodeKind.REPEATER)
    mux = library.cheapest_node(NodeKind.MUX)
    demux = library.cheapest_node(NodeKind.DEMUX)
    best = math.inf
    for link in library.links:
        segments = 1 if link.can_span(distance) else math.ceil(
            distance / link.max_length - 1e-12
        )
        branches = 1 if link.can_carry(bandwidth) else math.ceil(
            bandwidth / link.bandwidth - 1e-12
        )
        if segments > 1 and rep is None:
            continue
        if branches > 1 and (mux is None or demux is None):
            continue
        chain = segments * (link.cost_fixed + link.cost_per_unit * (distance / segments))
        if segments > 1:
            chain += (segments - 1) * rep.cost
        cost = branches * chain + (mux.cost + demux.cost if branches > 1 else 0.0)
        best = min(best, cost)
    return best


def _ulps(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


def distances(library):
    """0, a geometric sweep to ``GRID_MAX``, and for every finite reach
    ``L`` the lengths ``K·L`` ± one ulp for small ``K`` and for the
    largest ``K`` within the grid (past a reach a cheaper structure's
    excess over ``c·d`` is least at ``K·L``, and falls with ``K`` once
    it falls at all)."""
    grid = {0.0}
    for exponent in range(-3, 7):
        for mantissa in (1.0, 2.5, 7.0):
            d = mantissa * 10.0 ** exponent
            if d <= GRID_MAX:
                grid.add(d)
    for link in library.links:
        reach = link.max_length
        if math.isinf(reach):
            continue
        for k in (1, 2, 3, 7, math.floor(GRID_MAX / reach)):
            grid.update(_ulps(k * reach))
    return sorted(grid)


def bandwidths(library):
    """Every link's bandwidth times 1, 2 and 3, ± one ulp: where the
    branch count of a duplicated structure steps."""
    out = set()
    for link in library.links:
        for k in (1, 2, 3):
            out.update(_ulps(k * link.bandwidth))
    return sorted(out)


def check_one_formula(library, bandwidth, grid):
    """A plan costs exactly the stage cost at its length, and both
    match Definition 2.7 within rounding."""
    try:
        stage = stage_cost(bandwidth, library)
    except InfeasibleError:
        stage = None
    for d in grid:
        expected = reference_cost(d, bandwidth, library)
        if math.isinf(expected):
            with pytest.raises(InfeasibleError):
                best_point_to_point(d, bandwidth, library)
            if stage is not None:
                with pytest.raises(InfeasibleError):
                    stage(d)
            continue
        plan = best_point_to_point(d, bandwidth, library)
        assert stage is not None and stage(d) == plan.cost
        assert plan.cost == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert (plan.repeater is not None) == (plan.segments > 1)
        assert (plan.mux is not None) == (plan.branches > 1)


def check_verdict(library, bandwidth, grid):
    """``is_linear`` iff the stage cost is ``slope · d`` on the grid."""
    try:
        stage = stage_cost(bandwidth, library)
    except InfeasibleError:
        return
    values = {}
    for d in grid:
        try:
            values[d] = stage(d)
        except InfeasibleError:
            assert not stage.is_linear  # a linear stage spans every length
            return
    if stage.is_linear:
        assert stage.slope > 0
        for d, cost in values.items():
            assert abs(cost - stage.slope * d) <= LINEAR_RTOL * stage.slope * d, d
    else:
        ratios = [cost / d for d, cost in values.items() if d > 0]
        assert values[0.0] != 0.0 or max(ratios) - min(ratios) > LINEAR_RTOL * max(ratios)


# ----------------------------------------------------------------------
# libraries
# ----------------------------------------------------------------------


@st.composite
def hand_built_libraries(draw):
    """1-4 link types on a coarse grid of prices, reaches and
    bandwidths (so exact ties are common), and each node kind present
    or missing."""
    library = CommunicationLibrary("drawn")
    for i in range(draw(st.integers(1, 4))):
        cost_fixed = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 5.0]))
        cost_per_unit = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0]))
        reach = draw(st.sampled_from([math.inf, 1.0, 2.5, 10.0, 40.0]))
        if cost_per_unit == 0.0:
            reach = 10.0 if math.isinf(reach) else reach
            cost_fixed = cost_fixed or 1.0
        library.add_link(
            Link(
                f"l{i}",
                bandwidth=draw(st.sampled_from([1.0, 2.0, 5.0, 10.0])),
                max_length=reach,
                cost_fixed=cost_fixed,
                cost_per_unit=cost_per_unit,
            )
        )
    for kind in (NodeKind.REPEATER, NodeKind.MUX, NodeKind.DEMUX):
        cost = draw(st.none() | st.sampled_from([0.0, 0.5, 1.0, 3.0]))
        if cost is not None:
            library.add_node(NodeSpec(kind.value, kind, cost=cost))
    return library


@settings(max_examples=150, deadline=None)
@given(hand_built_libraries(), st.data())
def test_hand_built_libraries_price_with_one_formula(library, data):
    bandwidth = data.draw(st.sampled_from(bandwidths(library) + [0.5, 7.0, 23.0]))
    grid = distances(library)
    check_one_formula(library, bandwidth, grid)
    check_verdict(library, bandwidth, grid)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 199), st.data())
def test_random_libraries_price_with_one_formula(seed, data):
    library = random_library(seed=seed)
    bandwidth = data.draw(
        st.sampled_from(bandwidths(library)) | st.floats(1.0, 1500.0), label="bandwidth"
    )
    grid = distances(library)
    check_one_formula(library, bandwidth, grid)
    check_verdict(library, bandwidth, grid)


def test_fixture_libraries_price_with_one_formula(simple_library, per_unit_library):
    for library in (simple_library, per_unit_library):
        grid = distances(library)
        for bandwidth in bandwidths(library) + [1.0, 25.0, 150.0]:
            check_one_formula(library, bandwidth, grid)
            check_verdict(library, bandwidth, grid)


def _library(links, repeater=None, mux_demux=None):
    library = CommunicationLibrary("hand")
    for link in links:
        library.add_link(link)
    if repeater is not None:
        library.add_node(NodeSpec("rep", NodeKind.REPEATER, cost=repeater))
    if mux_demux is not None:
        library.add_node(NodeSpec("mux", NodeKind.MUX, cost=mux_demux))
        library.add_node(NodeSpec("demux", NodeKind.DEMUX, cost=mux_demux))
    return library


FIBER = Link("fiber", bandwidth=10.0, cost_per_unit=1.0)

#: (library, bandwidth, linear, length, cost there): one case per
#: clause of the structural test
VERDICTS = {
    # a finite reach joined by free repeaters still costs c·d
    "free-repeater": (
        _library([Link("wire", bandwidth=10.0, max_length=5.0, cost_per_unit=1.0)], 0.0),
        10.0, True, 23.0, 23.0,
    ),
    # a paid repeater every 50 units: cost(500) is 1,009, not 1,000
    "paid-repeater": (
        _library([Link("wire", bandwidth=10.0, max_length=50.0, cost_per_unit=2.0)], 1.0),
        10.0, False, 500.0, 1009.0,
    ),
    # a cheaper unbounded link behind a paid mux/demux pair wins far out
    "duplication-overhead": (
        _library([FIBER, Link("thin", bandwidth=5.0, cost_per_unit=0.25)], 0.0, 3.0),
        10.0, False, 1000.0, 506.0,
    ),
    # a cheaper short link that ties c·d exactly at its reach: linear
    "tie-at-reach": (
        _library([FIBER, Link("hop", bandwidth=10.0, max_length=4.0, cost_fixed=2.0,
                              cost_per_unit=0.5)]),
        10.0, True, 4.0, 4.0,
    ),
    # two duplicated cheap chains: dearer than the fiber within one
    # reach (2·2.5 + 6 = 11 > 10), cheaper once paid repeaters join
    # segments (2·(5 + 0.5) + 6 = 17 < 20)
    "per-extra-reach": (
        _library([FIBER, Link("cheap", bandwidth=5.0, max_length=10.0, cost_per_unit=0.25)],
                 0.5, 3.0),
        10.0, False, 20.0, 17.0,
    ),
}


@pytest.mark.parametrize("case", list(VERDICTS))
def test_hand_built_verdicts(case):
    library, bandwidth, linear, length, cost = VERDICTS[case]
    stage = stage_cost(bandwidth, library)
    assert stage.is_linear is linear
    assert stage(length) == cost
    check_verdict(library, bandwidth, distances(library))


# ----------------------------------------------------------------------
# the sampling probe's false positives
# ----------------------------------------------------------------------

#: (random_library seed, bandwidth, length, cost there, cost the
#: probe's linear model predicted)
PROBE_MISSES = [
    (16, 142.0166643668253, 10.0, 14.93, 35.46),
    (3, 355.9789493875534, 1000.0, 5162.56, 5863.40),
]


@pytest.mark.parametrize("seed, bandwidth, length, cost, probed", PROBE_MISSES)
def test_duplicated_cheap_links_undercut_the_direct_link(seed, bandwidth, length, cost, probed):
    """Duplicated cheap links behind a paid mux/demux pair cost more
    than the direct link at the probe's short lengths and less beyond,
    so the stage cost is not linear."""
    stage = stage_cost(bandwidth, random_library(seed=seed))
    assert not stage.is_linear
    assert stage(length) == pytest.approx(cost, abs=0.01)
    assert stage(1.0) * length == pytest.approx(probed, abs=0.01)


def test_merge_over_a_probe_miss_is_not_placed_as_linear():
    """Two arcs of half the bandwidth each ride a linear feeder cost, but
    their trunk carries the nonlinear one, so the merge is placed on
    the exact cost (the general path), not by the linear solver."""
    seed, bandwidth = PROBE_MISSES[0][:2]
    library = random_library(seed=seed)
    assert stage_cost(bandwidth / 2, library).is_linear
    graph = ConstraintGraph(norm=EUCLIDEAN, name="probe-miss")
    for name, x, y in (("u1", 0, 0), ("u2", 0, 3), ("v1", 40, 0), ("v2", 40, 3)):
        graph.add_port(name, Point(x, y))
    graph.add_channel("a1", "u1", "v1", bandwidth=bandwidth / 2)
    graph.add_channel("a2", "u2", "v2", bandwidth=bandwidth / 2)
    plan = build_merging_plan(graph, ["a1", "a2"], library)
    assert plan is not None
    assert plan.placement_method != "weiszfeld"
