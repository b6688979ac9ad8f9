"""Merge/split-point placement — the paper's "simple nonlinear
optimization problem".

For every candidate K-way merging the exact structure (mux and demux
positions) and hence the cost is obtained by minimizing

    F(s, t) = Σ_i f_i(||u_i - s||) + g(||s - t||) + Σ_i h_i(||t - v_i||)

over the merge point ``s`` and split point ``t``, where ``f_i``, ``g``
and ``h_i`` are the point-to-point cost functions of the feeder,
trunk and distributor stages (each the library's cheapest way to carry
that stage's bandwidth over that distance).

Two regimes:

- **Linear costs** (per-unit-priced, unbounded-length links — the WAN
  example): F is jointly convex in (s, t), and we solve it with the
  joint two-facility Weiszfeld iteration (Miehle 1958): each step
  reweights every anchor and the trunk and solves the 2×2 linear
  system for (s, t) together, after trying a damped Newton step.  F's
  kinks — s on a source, t on a sink, s = t — are settled by exact
  optimality tests instead of being crawled onto, and a run stops on a
  certified optimality gap.
- **General costs** (fixed-cost links, segmentation steps — the SoC
  example): F is piecewise-constant/nonconvex; we run multi-start
  Nelder–Mead (scipy) seeded at the anchor points and centroids, using
  the exact cost for evaluation.

Degenerate anchors are honoured: when every source coincides the merge
point is pinned there (no feeders), and symmetrically for the split
point — this is exactly the paper's Example 1, where a4, a5, a6 all
terminate on node D and the demux degenerates into D itself.  The free
point is then a single-facility Fermat–Weber problem, solved by the same
certified descent.  Linearity is the stage cost's own verdict
(:func:`repro.core.point_to_point.stage_cost`), read off the library's
link structures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from ..obs import current_tracer
from .geometry import EUCLIDEAN, Norm, Point, centroid

__all__ = [
    "StageCost",
    "linear_stage",
    "PlacementResult",
    "PlacementProblem",
    "weiszfeld",
    "optimize_two_points",
    "optimize_two_points_batch",
]

#: iteration cap of one Weiszfeld run (joint or single-facility).
_WEISZFELD_MAX_ITER = 2_000
#: a run stops once its certified optimality gap is below this fraction
#: of the objective.  F is convex and its optimum lies in the anchors'
#: hull, so F(x) - F* <= ||γ|| · ||x - x*|| <= ||γ|| · √m · diam for any
#: subgradient γ at the iterate x of m facilities.
_GAP_RTOL = 1e-10
#: joint iterations between the exact kink tests.
_KINK_EVERY = 2
#: relative slack of the exact anchor and collapse optimality tests.
_KINK_RTOL = 1e-12
#: damping μ of the Newton steps, from Newton (0) to Weiszfeld (1):
#: where it starts, and its floor.
_DAMP_START = 1e-3
_DAMP_MIN = 1e-12
#: relative change of an objective value that rounding can produce.
_COST_ULPS = 1e-15

#: an anchor as ``(x, y, weight)``.
_Anchor = Tuple[float, float, float]


@dataclass(frozen=True)
class StageCost:
    """Cost of one pipeline stage as a function of its length.

    ``fn(d)`` is the exact cost; ``slope`` is the linear coefficient
    when ``is_linear`` (then ``fn(d) == slope * d`` for all d >= 0).
    ``pricer(d)``, when given, is ``(fn(d), segments)`` with the number
    of links in series of the structure that costs ``fn(d)``.
    """

    fn: Callable[[float], float]
    is_linear: bool
    slope: float = 0.0
    pricer: Optional[Callable[[float], Tuple[float, int]]] = None

    def __call__(self, d: float) -> float:
        return self.fn(d)

    def price(self, d: float) -> Tuple[float, int]:
        """``(fn(d), segments)``; one segment without a ``pricer``."""
        if self.pricer is None:
            return self.fn(d), 1
        return self.pricer(d)


def linear_stage(slope: float) -> StageCost:
    """A purely per-unit-priced stage."""
    return StageCost(fn=lambda d: slope * d, is_linear=True, slope=slope)


@dataclass(frozen=True)
class PlacementResult:
    """Optimized positions and the exact objective value there."""

    merge_point: Point
    split_point: Point
    cost: float
    iterations: int
    method: str
    #: :meth:`StageCost.price` of every stage at the returned points:
    #: feeders, trunk, distributors.
    stage_prices: Tuple[Tuple[float, int], ...] = ()


def _diameter(anchors: Sequence[_Anchor]) -> float:
    """Diagonal of the anchors' bounding box: at least the hull diameter."""
    xs = [a[0] for a in anchors]
    ys = [a[1] for a in anchors]
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def _near(diam: float) -> float:
    """Distance under which a point counts as sitting on an anchor."""
    return 1e-15 * max(1.0, diam)


def _pull(
    anchors: Sequence[_Anchor], x: float, y: float, near: float
) -> Tuple[float, float, float]:
    """``(here, px, py)`` at ``(x, y)``: the weight of the anchors sitting
    there and the pull ``Σ w (a - x) / |a - x|`` of the others (minus
    their gradient)."""
    here = px = py = 0.0
    for ax, ay, aw in anchors:
        dx = ax - x
        dy = ay - y
        d = math.sqrt(dx * dx + dy * dy)
        if d <= near:
            here += aw
        else:
            px += aw * dx / d
            py += aw * dy / d
    return here, px, py


def _optimal_anchor(anchors: Sequence[_Anchor]) -> Optional[int]:
    """Index of the anchor that minimizes ``Σ w |a - x|``, if any does.

    Anchor ``a_i`` is the optimum iff the pull of the other anchors
    does not exceed the (coincident-summed) weight at ``a_i`` — the
    Fermat–Weber subgradient condition.  Weiszfeld converges only
    sublinearly onto anchor optima, so testing them up front is both
    faster and exact.
    """
    for i, (ax, ay, _) in enumerate(anchors):
        far = 0.0
        for bx, by, _ in anchors:
            d = math.hypot(bx - ax, by - ay)
            if d > far:
                far = d
        here, px, py = _pull(anchors, ax, ay, 1e-15 * max(1.0, far))
        if math.hypot(px, py) <= here * (1 + _KINK_RTOL):
            return i
    return None


# A descent state is a plain tuple: ``(cost, |pull|², *point, ...)``
# followed by what its step needs.  ``*_terms(data, point)`` evaluates
# the objective there (value, pull and Hessian); ``*_step(state, μ)``
# returns the trial point of damping μ, or None when that step's system
# is singular.


def _single_terms(anchors: Sequence[_Anchor], z: Tuple[float, float]) -> tuple:
    """State of ``Σ w |a - x|`` at ``z = (x, y)``: ``(cost, |pull|², x,
    y, den, px, py, hxx, hxy, hyy)`` with the Weiszfeld weight sum
    ``den = Σ w / |a - x|``, the pull (minus the gradient) and the
    Hessian.  An anchor on ``z`` is skipped; its subgradient ball is
    centred on the rest's gradient."""
    x, y = z
    cost = den = px = py = hxx = hxy = hyy = 0.0
    for ax, ay, aw in anchors:
        dx = ax - x
        dy = ay - y
        d2 = dx * dx + dy * dy
        if d2 == 0.0:
            continue
        d = math.sqrt(d2)
        c = aw / d
        cost += aw * d
        den += c
        px += c * dx
        py += c * dy
        c /= d2
        hxx += c * dy * dy
        hxy -= c * dx * dy
        hyy += c * dx * dx
    return cost, px * px + py * py, x, y, den, px, py, hxx, hxy, hyy


def _single_step(state: tuple, mu: float) -> Optional[Tuple[float, float]]:
    """The trial point ``z + Δ`` for ``((1 - μ) H + μ · den · I) Δ =
    pull``: Newton at μ = 0, the Weiszfeld step at μ = 1."""
    _, _, x, y, den, px, py, hxx, hxy, hyy = state
    axx = (1.0 - mu) * hxx + mu * den
    axy = (1.0 - mu) * hxy
    ayy = (1.0 - mu) * hyy + mu * den
    det = axx * ayy - axy * axy
    if not det > 0.0:
        return None
    return x + (ayy * px - axy * py) / det, y + (axx * py - axy * px) / det


def _joint_terms(
    data: Tuple[Sequence[_Anchor], Sequence[_Anchor], float],
    z: Tuple[float, float, float, float],
) -> Optional[tuple]:
    """State of F at ``z = (s, t)`` for ``data = (src, snk, w)``, or None
    at s = t, where the trunk term has no gradient.  Each side's sums are
    :func:`_single_terms`' at its facility, accumulated inline."""
    src, snk, w = data
    sx, sy, tx, ty = z
    dx = tx - sx
    dy = ty - sy
    r2 = dx * dx + dy * dy
    if r2 == 0.0:
        return None
    s_cost = a = psx = psy = sxx = sxy = syy = 0.0
    for ax, ay, aw in src:
        ex = ax - sx
        ey = ay - sy
        d2 = ex * ex + ey * ey
        if d2 == 0.0:
            continue
        d = math.sqrt(d2)
        c = aw / d
        s_cost += aw * d
        a += c
        psx += c * ex
        psy += c * ey
        c /= d2
        sxx += c * ey * ey
        sxy -= c * ex * ey
        syy += c * ex * ex
    t_cost = b = ptx = pty = txx = txy = tyy = 0.0
    for ax, ay, aw in snk:
        ex = ax - tx
        ey = ay - ty
        d2 = ex * ex + ey * ey
        if d2 == 0.0:
            continue
        d = math.sqrt(d2)
        c = aw / d
        t_cost += aw * d
        b += c
        ptx += c * ex
        pty += c * ey
        c /= d2
        txx += c * ey * ey
        txy -= c * ex * ey
        tyy += c * ex * ex
    r = math.sqrt(r2)
    wr = w / r
    k = wr / r2
    lsx = psx + wr * dx
    lsy = psy + wr * dy
    ltx = ptx - wr * dx
    lty = pty - wr * dy
    return (
        s_cost + t_cost + w * r, lsx * lsx + lsy * lsy + ltx * ltx + lty * lty,
        sx, sy, tx, ty, a, b, sxx, sxy, syy, txx, txy, tyy, k, wr, dx, dy,
        lsx, lsy, ltx, lty,
    )


def _joint_step(state: tuple, mu: float) -> Optional[Tuple[float, float, float, float]]:
    """The trial point ``z + Δ`` for ``((1 - μ) H + μ M) Δ = pull``, with
    F's Hessian ``H`` and the Weiszfeld majorizer's ``M = [[A + W, -W],
    [-W, B + W]] ⊗ I``: Newton at μ = 0, the joint Weiszfeld step at
    μ = 1.  The trunk's Hessian is ``k n nᵀ`` with ``n ⊥ t - s``, so the
    system is ``[[P, -C], [-C, Q]]`` with ``C = (1 - μ) k n nᵀ + μ W
    I``; eliminating t leaves the 2×2 Schur complement ``P - C Q⁻¹ C``."""
    (
        _, _, sx, sy, tx, ty, a, b, sxx, sxy, syy, txx, txy, tyy, k, wr, dx, dy,
        lsx, lsy, ltx, lty,
    ) = state
    nu = 1.0 - mu
    cxx = nu * k * dy * dy + mu * wr
    cxy = -nu * k * dx * dy
    cyy = nu * k * dx * dx + mu * wr
    qxx = nu * txx + mu * b + cxx
    qxy = nu * txy + cxy
    qyy = nu * tyy + mu * b + cyy
    det = qxx * qyy - qxy * qxy
    if not det > 0.0:
        return None
    # X = Q⁻¹ C and u = Q⁻¹ L_t
    xxx = (qyy * cxx - qxy * cxy) / det
    xxy = (qyy * cxy - qxy * cyy) / det
    xyx = (qxx * cxy - qxy * cxx) / det
    xyy = (qxx * cyy - qxy * cxy) / det
    ux = (qyy * ltx - qxy * lty) / det
    uy = (qxx * lty - qxy * ltx) / det
    # (P - C X) Δs = L_s + C u
    pxx = nu * sxx + mu * a + cxx - (cxx * xxx + cxy * xyx)
    pxy = nu * sxy + cxy - (cxx * xxy + cxy * xyy)
    pyy = nu * syy + mu * a + cyy - (cxy * xxy + cyy * xyy)
    rx = lsx + cxx * ux + cxy * uy
    ry = lsy + cxy * ux + cyy * uy
    det = pxx * pyy - pxy * pxy
    if not det > 0.0:
        return None
    dsx = (pyy * rx - pxy * ry) / det
    dsy = (pxx * ry - pxy * rx) / det
    return (
        sx + dsx, sy + dsy,
        tx + (ux + xxx * dsx + xxy * dsy), ty + (uy + xyx * dsx + xyy * dsy),
    )


def _better(cost: float, grad2: float, old_cost: float, old_grad2: float) -> bool:
    """Whether a damped Newton trial improves on the iterate: it lowers
    the objective, or — once the objective no longer resolves the
    difference — ties it within rounding and lowers the gradient."""
    if cost < old_cost:
        return True
    return cost <= old_cost * (1 + _COST_ULPS) and grad2 < old_grad2


def _descend(
    terms: Callable[[object, tuple], Optional[tuple]],
    step: Callable[[tuple, float], Optional[tuple]],
    data: object,
    z: tuple,
    lim: float,
    max_iter: int,
    damp: float,
    state: Optional[tuple],
) -> Tuple[tuple, int, bool, float, Optional[tuple], int]:
    """Minimize a Weiszfeld-majorized objective from ``z``.

    ``state`` is ``terms(data, z)`` when the caller knows it (None:
    evaluate it).  Each iteration tries ``step(state, μ)`` and keeps it
    if :func:`_better`, else raises μ tenfold; at μ = 1 it is the
    Weiszfeld step, the majorizer's minimizer, which never ascends and
    is kept.  Small μ is damped Newton, which crosses the near-flat
    valleys of nearly collinear anchors where Weiszfeld alone crawls.
    Stops once the certified gap bound ``||pull|| / lim`` is within the
    objective, or at ``z`` where the state is None.  Returns ``(z,
    steps, certified, μ, state at z, evaluations of terms)``.
    """
    evaluations = 0
    if state is None:
        state = terms(data, z)
        evaluations = 1
    for it in range(max_iter):
        if state is None:
            return z, it, False, damp, None, evaluations
        cost = state[0]
        norm2 = state[1]
        if norm2 <= (lim * cost) ** 2:
            return z, it, True, damp, state, evaluations
        while True:
            trial_z = step(state, damp)
            if trial_z is None:
                if damp == 1.0:
                    return z, it, False, damp, state, evaluations  # nothing pulls
                damp = 1.0
                continue
            trial = terms(data, trial_z)
            evaluations += 1
            if damp == 1.0 or (trial is not None and _better(trial[0], trial[1], cost, norm2)):
                damp = max(damp / 10, _DAMP_MIN)
                break
            damp = min(damp * 10, 1.0)
        z = trial_z
        state = trial
    return z, max_iter, False, damp, state, evaluations


def _fermat_weber(
    anchors: Sequence[_Anchor], x: float, y: float
) -> Tuple[float, float, int, int]:
    """Weighted Fermat–Weber point of ``anchors`` (positive weights),
    iterated from ``(x, y)`` unless an anchor is optimal.  Returns ``(x,
    y, iterations, evaluations)``."""
    i = _optimal_anchor(anchors)
    if i is not None:
        return anchors[i][0], anchors[i][1], 0, 0
    (x, y), iterations, _, _, _, evaluations = _descend(
        _single_terms, _single_step, anchors, (x, y), _GAP_RTOL / _diameter(anchors),
        _WEISZFELD_MAX_ITER, _DAMP_START, None,
    )
    return x, y, iterations, evaluations


def _weiszfeld(
    pts: Sequence[Tuple[Point, float]], start: Optional[Tuple[float, float]]
) -> Tuple[Point, int, int]:
    """:func:`weiszfeld` of the positively weighted ``(anchor, weight)``
    pairs ``pts`` from ``start`` (the weighted centroid when None):
    ``(point, iterations, evaluations)``."""
    if not pts:
        raise ValueError("weiszfeld needs at least one positively weighted anchor")
    if len(pts) == 1:
        return pts[0][0], 0, 0
    if start is None:
        total = sum(w for _, w in pts)
        start = (sum(p.x * w for p, w in pts) / total, sum(p.y * w for p, w in pts) / total)
    ox, oy = pts[0][0]
    exact = {(p.x - ox, p.y - oy): p for p, _ in pts}
    x, y, iterations, evaluations = _fermat_weber(
        [(p.x - ox, p.y - oy, w) for p, w in pts], start[0] - ox, start[1] - oy
    )
    return exact.get((x, y)) or Point(x + ox, y + oy), iterations, evaluations


def weiszfeld(
    anchors: Sequence[Point],
    weights: Sequence[float],
    start: Optional[Point] = None,
) -> Tuple[Point, int]:
    """Weighted Fermat–Weber point: argmin_s Σ w_i ||x_i - s||_2.

    Runs :func:`_fermat_weber` (the exact anchor-optimality test, then
    the damped Newton / Weiszfeld descent to a certified gap) from
    ``start``, the weighted centroid by default, in coordinates relative
    to the first anchor, so precision follows the anchors' spread rather
    than their distance from the origin; an answer on an anchor returns
    that anchor exactly.  Returns the point and the number of iterations
    used.  Zero-weight anchors are ignored; a single effective anchor
    returns that anchor directly.
    """
    point, iterations, _ = _weiszfeld(
        [(p, w) for p, w in zip(anchors, weights) if w > 0],
        None if start is None else (start.x, start.y),
    )
    return point, iterations


def _discs_meet(discs: Sequence[Tuple[float, float, float]], slack: float) -> bool:
    """Whether closed discs ``(cx, cy, r)`` share a point.

    If they do, their intersection contains a disc centre or a point
    where two of the circles cross, so those are the only candidates.
    """
    candidates = [(cx, cy) for cx, cy, _ in discs]
    for (x1, y1, r1), (x2, y2, r2) in combinations(discs, 2):
        dx = x2 - x1
        dy = y2 - y1
        dist = math.hypot(dx, dy)
        if dist == 0.0 or dist > r1 + r2 + slack or dist < abs(r1 - r2) - slack:
            continue
        along = (r1 * r1 - r2 * r2 + dist * dist) / (2 * dist)
        half = math.sqrt(max(r1 * r1 - along * along, 0.0))
        mx = x1 + along * dx / dist
        my = y1 + along * dy / dist
        candidates.append((mx - half * dy / dist, my + half * dx / dist))
        candidates.append((mx + half * dy / dist, my - half * dx / dist))
    return any(
        all(math.hypot(x - cx, y - cy) <= r + slack for cx, cy, r in discs)
        for x, y in candidates
    )


def _collapse(
    src: List[_Anchor], snk: List[_Anchor], w: float, x: float, y: float
) -> Tuple[float, float, int, int, bool]:
    """Test whether F is minimized with s = t.

    On the diagonal F is the Fermat–Weber objective of all 2k anchors,
    so the only candidate is its minimizer x*.  There, (x*, x*) is
    optimal iff some y with ``||y|| <= w`` balances both sides: the
    sources' subgradient must contain ``-y`` and the sinks' ``y``.  Off
    the anchors this is "the sources' pull is at most the trunk
    weight".  Returns ``(x*, y*, iterations, evaluations, optimal)``.
    """
    anchors = src + snk
    x, y, iterations, evaluations = _fermat_weber(anchors, x, y)
    near = _near(_diameter(anchors))
    here_s, psx, psy = _pull(src, x, y, near)
    here_t, ptx, pty = _pull(snk, x, y, near)
    limit = w * (1 + _KINK_RTOL)
    if here_s == 0.0:
        return x, y, iterations, evaluations, math.hypot(psx, psy) <= limit
    if here_t == 0.0:
        return x, y, iterations, evaluations, math.hypot(ptx, pty) <= limit
    slack = _KINK_RTOL * (w + here_s + here_t)
    ok = _discs_meet([(0.0, 0.0, w), (psx, psy, here_s), (-ptx, -pty, here_t)], slack)
    return x, y, iterations, evaluations, ok


def _qualifies(
    side: Sequence[_Anchor], w: float, ax: float, ay: float, ox: float, oy: float,
    near: float, close: float,
) -> bool:
    """Whether the anchor ``(ax, ay)`` minimizes its side given the other
    facility at ``(ox, oy)``, which must not be ``close`` to it (that is
    a collapse)."""
    r = math.hypot(ox - ax, oy - ay)
    if r <= close:
        return False
    here, px, py = _pull(side, ax, ay, near)
    return math.hypot(px + w * (ox - ax) / r, py + w * (oy - ay) / r) <= here * (1 + _KINK_RTOL)


def _pin(
    side: Sequence[_Anchor], other: List[_Anchor], w: float,
    fx: float, fy: float, ox: float, oy: float, near: float, close: float,
) -> Optional[Tuple[float, float, float, float, int, int, bool]]:
    """Try to pin the facility at ``(fx, fy)`` on its nearest anchor
    (the first of the nearest).

    The anchor must qualify (:func:`_qualifies`) against the other
    facility at ``(ox, oy)``.  The other facility is then re-solved
    with the pinned one as an anchor of weight ``w``.  Returns None, or
    ``(ax, ay, ox, oy, iterations, evaluations, holds)`` where
    ``holds`` says the pin still qualifies against the re-solved
    facility — then the pair is optimal, as F's only coupling term is
    smooth there.
    """
    ax, ay, _ = side[0]
    best = (ax - fx) ** 2 + (ay - fy) ** 2
    for bx, by, _ in side:
        d2 = (bx - fx) ** 2 + (by - fy) ** 2
        if d2 < best:
            best, ax, ay = d2, bx, by
    if not _qualifies(side, w, ax, ay, ox, oy, near, close):
        return None
    ox, oy, iterations, evaluations = _fermat_weber(other + [(ax, ay, w)], ox, oy)
    holds = _qualifies(side, w, ax, ay, ox, oy, near, close)
    return ax, ay, ox, oy, iterations, evaluations, holds


def _wants_collapse(
    anchors: Sequence[_Anchor], ox: float, oy: float, w: float, near: float
) -> bool:
    """Whether a facility tied to ``anchors`` would rather sit on the
    other facility at ``(ox, oy)``: the block-optimality of s = t."""
    here, px, py = _pull(anchors, ox, oy, near)
    return math.hypot(px, py) <= (w + here) * (1 + _KINK_RTOL)


def _joint_weiszfeld(
    src: List[_Anchor], snk: List[_Anchor], w: float,
    sx: float, sy: float, tx: float, ty: float,
) -> Tuple[float, float, float, float, int, int]:
    """Minimize ``Σ a_i |u_i - s| + w |s - t| + Σ b_j |t - v_j|`` jointly.

    ``src``/``snk`` hold the positively weighted anchors.  The
    Weiszfeld step reweights every term at the current (s, t) and
    solves the 2×2-coupled system of the quadratic majorizer for both
    points together (:func:`_descend`, which tries a damped Newton step
    first).  Every ``_KINK_EVERY`` steps the exact kink tests run: once
    either facility would rather sit on the other, :func:`_collapse`
    decides s = t for good; a facility whose nearest anchor minimizes
    its side is pinned there (:func:`_pin`).  The descent's state
    carries from one interval to the next and is dropped when a pin
    moves (s, t); a split starts from s = t, where there is none.  The
    run stops when the certified gap closes.  Returns ``(sx, sy, tx,
    ty, iterations, evaluations)``.
    """
    diam = _diameter(src + snk)
    near = _near(diam)
    # facilities this close are converging onto one kink: the collapse
    # test, not a pin, decides it
    close = 1e-9 * diam
    lim = _GAP_RTOL / (math.sqrt(2.0) * diam)
    data = (src, snk, w)
    z = (sx, sy, tx, ty)
    state = None
    damp = _DAMP_START
    collapse_tested = False
    # doubles after every pin that fails to hold, so the descent gets
    # time to leave a nearly optimal anchor before it is tried again
    interval = _KINK_EVERY
    iterations = evaluations = 0
    while iterations < _WEISZFELD_MAX_ITER:
        z, used, certified, damp, state, evals = _descend(
            _joint_terms, _joint_step, data, z, lim, interval, damp, state
        )
        iterations += max(used, 1)
        evaluations += evals
        if certified:
            break
        sx, sy, tx, ty = z
        if not collapse_tested and (
            math.hypot(tx - sx, ty - sy) <= close
            or _wants_collapse(src, tx, ty, w, near)
            or _wants_collapse(snk, sx, sy, w, near)
        ):
            collapse_tested = True
            x, y, extra, evals, ok = _collapse(src, snk, w, (sx + tx) / 2, (sy + ty) / 2)
            iterations += extra
            evaluations += evals
            if ok:
                return x, y, x, y, iterations, evaluations
        if sx == tx and sy == ty:
            # s = t but no collapse optimum: split, each side stepping
            # towards its own anchors alone (F has no state at s = t,
            # so none carries over)
            _, _, _, _, a_den, psx, psy, _, _, _ = _single_terms(src, (sx, sy))
            _, _, _, _, b_den, ptx, pty, _, _, _ = _single_terms(snk, (tx, ty))
            if a_den > 0.0:
                sx, sy = sx + psx / a_den, sy + psy / a_den
            if b_den > 0.0:
                tx, ty = tx + ptx / b_den, ty + pty / b_den
            z = (sx, sy, tx, ty)
            continue
        # a pin that fails to hold leaves the other facility re-solved,
        # maybe on an anchor of its own: try pinning that one next
        for on_s in (True, False):
            sx, sy, tx, ty = z
            if on_s:
                pinned = _pin(src, snk, w, sx, sy, tx, ty, near, close)
            else:
                pinned = _pin(snk, src, w, tx, ty, sx, sy, near, close)
            if pinned is None:
                continue
            ax, ay, ox, oy, extra, evals, holds = pinned
            iterations += extra
            evaluations += evals
            z = (ax, ay, ox, oy) if on_s else (ox, oy, ax, ay)
            state = None
            if holds:
                return z[0], z[1], z[2], z[3], iterations, evaluations
            interval *= 2
    return z[0], z[1], z[2], z[3], iterations, evaluations


def _exact_cost(
    norm: Norm,
    sources: Sequence[Point],
    sinks: Sequence[Point],
    feeder_costs: Sequence[StageCost],
    trunk_cost: StageCost,
    distributor_costs: Sequence[StageCost],
    s: Point,
    t: Point,
) -> Tuple[float, Tuple[Tuple[float, int], ...]]:
    """F(s, t) by the stages' exact costs, summed trunk, feeders,
    distributors, and every stage's :meth:`~StageCost.price`: feeders,
    trunk, distributors."""
    distance = norm.distance
    trunk = trunk_cost.price(distance(s, t))
    feeders = [fc.price(distance(u, s)) for u, fc in zip(sources, feeder_costs)]
    distributors = [hc.price(distance(t, v)) for v, hc in zip(sinks, distributor_costs)]
    total = trunk[0]
    for cost, _ in feeders:
        total += cost
    for cost, _ in distributors:
        total += cost
    return total, (*feeders, trunk, *distributors)


def _all_same(points: Sequence[Point]) -> Optional[Point]:
    first = points[0]
    for i in range(1, len(points)):
        if not first.is_close(points[i]):
            return None
    return first


def _linear_placement(
    sources: Sequence[Point],
    sinks: Sequence[Point],
    feeder_costs: Sequence[StageCost],
    trunk_cost: StageCost,
    distributor_costs: Sequence[StageCost],
    pinned_s: Optional[Point],
    pinned_t: Optional[Point],
) -> Tuple[Point, Point, int, int]:
    """(s, t, iterations, evaluations) minimizing the linear objective,
    the free points started at their sides' centroids.

    With one point pinned the other is the Fermat–Weber point of its
    side's anchors plus the pinned point, weighted by the trunk
    (:func:`weiszfeld`).
    """
    w = trunk_cost.slope
    if pinned_s is not None or pinned_t is not None:
        if pinned_s is not None:
            pinned, side, costs = pinned_s, sinks, distributor_costs
        else:
            pinned, side, costs = pinned_t, sources, feeder_costs
        pts = [(p, c.slope) for p, c in zip(side, costs) if c.slope > 0]
        if w > 0:
            pts.append((pinned, w))
        n = len(side)
        free, iterations, evaluations = _weiszfeld(
            pts, (sum(p.x for p in side) / n, sum(p.y for p in side) / n)
        )
        if pinned_s is not None:
            return pinned_s, free, iterations, evaluations
        return free, pinned_t, iterations, evaluations
    # Solve in coordinates relative to one anchor, so precision follows
    # the anchors' spread rather than their distance from the origin;
    # an answer on an anchor maps back to that anchor exactly.
    anchors = [p for p, c in zip(sources, feeder_costs) if c.slope > 0]
    anchors += [p for p, c in zip(sinks, distributor_costs) if c.slope > 0]
    if not anchors:
        t = centroid(sinks)
        return t, t, 0, 0
    ox, oy = anchors[0]
    exact = {(p.x - ox, p.y - oy): p for p in anchors}
    if len(exact) == 1:
        return anchors[0], anchors[0], 0, 0  # every anchor on one point
    src = [(p.x - ox, p.y - oy, c.slope) for p, c in zip(sources, feeder_costs) if c.slope > 0]
    snk = [(p.x - ox, p.y - oy, c.slope) for p, c in zip(sinks, distributor_costs) if c.slope > 0]
    n = len(sources)
    m = len(sinks)
    sx, sy, tx, ty, iterations, evaluations = _joint_weiszfeld(
        src, snk, w,
        sum(p.x for p in sources) / n - ox, sum(p.y for p in sources) / n - oy,
        sum(p.x for p in sinks) / m - ox, sum(p.y for p in sinks) / m - oy,
    )
    s = exact.get((sx, sy)) or Point(sx + ox, sy + oy)
    t = exact.get((tx, ty)) or Point(tx + ox, ty + oy)
    return s, t, iterations, evaluations


def optimize_two_points(
    sources: Sequence[Point],
    sinks: Sequence[Point],
    feeder_costs: Sequence[StageCost],
    trunk_cost: StageCost,
    distributor_costs: Sequence[StageCost],
    norm: Norm = EUCLIDEAN,
    polish: bool = True,
) -> PlacementResult:
    """Minimize the merged-implementation cost over (merge, split) points.

    Dispatches on the stage-cost structure: the fully linear Euclidean
    case runs the joint Weiszfeld iteration (convex, certified by exact
    kink tests or the optimality gap); everything else places with a
    linear surrogate and, when ``polish`` is true (default), refines
    with Nelder–Mead on the exact cost.  ``polish=False`` skips the
    refinement — much faster on floor-style cost surfaces, at a small
    cost-quality risk — and never affects the linear path.  The
    returned ``cost`` is always the *exact* objective at the returned
    points, and ``stage_prices`` each stage's price there, so a caller
    never prices a stage again.  The Weiszfeld iterations and objective
    evaluations of the linear solve feed the ``placement.iterations``
    and ``placement.evaluations`` counters of the ambient tracer.
    """
    if not sources or not sinks:
        raise ValueError("need at least one source and one sink")
    if len(sources) != len(feeder_costs) or len(sinks) != len(distributor_costs):
        raise ValueError("one stage-cost per source/sink required")

    stages = (norm, sources, sinks, feeder_costs, trunk_cost, distributor_costs)
    pinned_s = _all_same(sources)
    pinned_t = _all_same(sinks)
    if pinned_s is not None and pinned_t is not None:
        return _priced(stages, pinned_s, pinned_t, 0, "degenerate")

    linear = (
        norm.name == "euclidean"
        and trunk_cost.is_linear
        and all(c.is_linear for c in feeder_costs)
        and all(c.is_linear for c in distributor_costs)
    )
    if linear:
        surrogate = (feeder_costs, trunk_cost, distributor_costs)
    else:
        # General costs: place with a linear surrogate (slope = average
        # cost density at the instance's own length scale), then polish
        # with Nelder-Mead from that point and a couple of centroid seeds.
        scale = _typical_scale(list(sources) + list(sinks), norm)
        surrogate = (
            [_linearize(c, scale) for c in feeder_costs],
            _linearize(trunk_cost, scale),
            [_linearize(c, scale) for c in distributor_costs],
        )
    s, t, iterations, evaluations = _linear_placement(
        sources, sinks, *surrogate, pinned_s, pinned_t
    )
    tracer = current_tracer()
    tracer.count("placement.iterations", iterations)
    tracer.count("placement.evaluations", evaluations)
    if linear:
        return _priced(stages, s, t, iterations, "weiszfeld")
    if not polish:
        # exact evaluation at the surrogate optimum, no refinement
        return _priced(stages, s, t, iterations, "surrogate")

    distance = norm.distance

    def F(s: Point, t: Point) -> float:
        # _exact_cost's sum, without building the stage prices
        total = trunk_cost(distance(s, t))
        for u, fc in zip(sources, feeder_costs):
            total += fc(distance(u, s))
        for v, hc in zip(sinks, distributor_costs):
            total += hc(distance(t, v))
        return total

    s, t, evals = _nelder_mead(sources, sinks, F, pinned_s, pinned_t, extra_seeds=[(s, t)])
    return _priced(stages, s, t, evals, "nelder-mead")


def _priced(
    stages: tuple, s: Point, t: Point, iterations: int, method: str
) -> PlacementResult:
    """The result at ``(s, t)``: F there by :func:`_exact_cost` and
    every stage's price."""
    cost, prices = _exact_cost(*stages, s, t)
    return PlacementResult(s, t, cost, iterations, method, prices)


def _typical_scale(points: Sequence[Point], norm: Norm) -> float:
    """A representative inter-anchor distance for surrogate slopes."""
    if len(points) < 2:
        return 1.0
    total = 0.0
    count = 0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            total += norm.distance(points[i], points[j])
            count += 1
    mean = total / count
    return mean if mean > 0 else 1.0


def _linearize(cost: StageCost, scale: float) -> StageCost:
    """Linear surrogate of a general stage cost: slope = cost(scale)/scale."""
    if cost.is_linear:
        return cost
    slope = cost(scale) / scale if scale > 0 else 0.0
    if slope <= 0:
        slope = 1e-12
    return linear_stage(slope)


@dataclass(frozen=True)
class PlacementProblem:
    """One :func:`optimize_two_points` call, as data — the unit of
    :func:`optimize_two_points_batch`."""

    sources: Tuple[Point, ...]
    sinks: Tuple[Point, ...]
    feeder_costs: Tuple[StageCost, ...]
    trunk_cost: StageCost
    distributor_costs: Tuple[StageCost, ...]
    norm: Norm = EUCLIDEAN
    polish: bool = True


def optimize_two_points_batch(
    problems: Sequence[PlacementProblem],
) -> List[PlacementResult]:
    """:func:`optimize_two_points` for every problem, in order."""
    return [
        optimize_two_points(
            p.sources, p.sinks, p.feeder_costs, p.trunk_cost, p.distributor_costs,
            p.norm, p.polish,
        )
        for p in problems
    ]


def _nelder_mead(
    sources: Sequence[Point],
    sinks: Sequence[Point],
    F: Callable[[Point, Point], float],
    pinned_s: Optional[Point],
    pinned_t: Optional[Point],
    extra_seeds: Optional[Sequence[Tuple[Point, Point]]] = None,
) -> Tuple[Point, Point, int]:
    """Multi-start Nelder–Mead over the free coordinates: the best
    ``(s, t)`` by ``F`` and the evaluations spent.

    Seeds: the caller-provided warm starts (e.g. the linear-surrogate
    optimum) plus side and global centroids — enough to escape the
    plateaus of floor-style cost functions at the paper's scales while
    keeping the start count small.
    """
    seed_pairs: List[Tuple[Point, Point]] = [
        (
            pinned_s if pinned_s is not None else centroid(list(sources)),
            pinned_t if pinned_t is not None else centroid(list(sinks)),
        )
    ]
    for pair in extra_seeds or []:
        s, t = pair
        seed_pairs.insert(0, (pinned_s or s, pinned_t or t))

    best: Optional[Tuple[float, Point, Point]] = None
    evals = 0

    def pack(s: Point, t: Point) -> np.ndarray:
        coords: List[float] = []
        if pinned_s is None:
            coords += [s.x, s.y]
        if pinned_t is None:
            coords += [t.x, t.y]
        return np.array(coords)

    def unpack(x: np.ndarray) -> Tuple[Point, Point]:
        i = 0
        if pinned_s is None:
            s = Point(x[i], x[i + 1])
            i += 2
        else:
            s = pinned_s
        t = Point(x[i], x[i + 1]) if pinned_t is None else pinned_t
        return s, t

    def fun(x: np.ndarray) -> float:
        s, t = unpack(x)
        return F(s, t)

    for s0, t0 in seed_pairs:
        x0 = pack(s0, t0)
        if x0.size == 0:  # both pinned — handled by caller, defensive here
            cand = (F(s0, t0), s0, t0)
        else:
            res = optimize.minimize(
                fun,
                x0,
                method="Nelder-Mead",
                options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 600},
            )
            evals += int(res.nfev)
            s1, t1 = unpack(res.x)
            cand = (F(s1, t1), s1, t1)
        if best is None or cand[0] < best[0]:
            best = cand

    assert best is not None
    return best[1], best[2], evals
