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
  example): F is jointly convex in (s, t), and we solve it with an
  alternating Weiszfeld iteration (each half-step is a weighted
  Fermat–Weber problem) — fast and accurate to ~1e-9.
- **General costs** (fixed-cost links, segmentation steps — the SoC
  example): F is piecewise-constant/nonconvex; we run multi-start
  Nelder–Mead (scipy) seeded at the anchor points and centroids, using
  the exact cost for evaluation.

Degenerate anchors are honoured: when every source coincides the merge
point is pinned there (no feeders), and symmetrically for the split
point — this is exactly the paper's Example 1, where a4, a5, a6 all
terminate on node D and the demux degenerates into D itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

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

#: convergence tolerance for Weiszfeld iterations, relative to the
#: anchor-coordinate spread (so km-scale and mm-scale instances behave
#: identically).  Position error maps at worst quadratically into cost
#: near an interior optimum, so 1e-9 · spread is far below any cost
#: tolerance the synthesis cares about.
_WEISZFELD_RTOL = 1e-9
_WEISZFELD_MAX_ITER = 2_000
#: smoothing added under square roots to avoid the Weiszfeld singularity
#: when an iterate lands exactly on an anchor.
_EPS = 1e-12
#: below this many in-flight tasks a fused lockstep iteration stops
#: paying for itself (it costs roughly eight scalar problem-iterations)
#: and :class:`_LockstepPump` finishes the stragglers on the scalar loop.
_BATCH_MIN_ACTIVE = 8
#: lockstep iterations between convergence sweeps.  Rows are mutually
#: independent, so a row that converges mid-window can keep iterating
#: harmlessly until the sweep — its final position is restored from the
#: window history — and the steady-state loop body carries no
#: convergence test, no compaction, and no index arrays at all.  On the
#: profiled workloads a finish event lands only every ~100 iterations,
#: so a long window amortizes the sweep without meaningful overshoot.
_WINDOW = 48


@dataclass(frozen=True)
class StageCost:
    """Cost of one pipeline stage as a function of its length.

    ``fn(d)`` is the exact cost; ``slope`` is the linear coefficient
    when ``is_linear`` (then ``fn(d) == slope * d`` for all d >= 0).
    """

    fn: Callable[[float], float]
    is_linear: bool
    slope: float = 0.0

    def __call__(self, d: float) -> float:
        return self.fn(d)


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


def _weiszfeld_setup(
    anchors: Sequence[Point],
    weights: Sequence[float],
    start: Optional[Point],
) -> Tuple[Optional[Point], Optional[tuple]]:
    """Shared Weiszfeld preamble: filter, shortcuts, scaling.

    Returns ``(point, None)`` when the problem is solved outright (one
    effective anchor, or an anchor satisfies the exact Fermat–Weber
    optimality condition) or ``(None, task)`` with the arguments of
    :func:`_weiszfeld_run` (all but ``max_iter``).  Common to the single
    and batched paths, so both see identical shortcut decisions.
    """
    pts = [p for p, w in zip(anchors, weights) if w > 0]
    ws = [w for w in weights if w > 0]
    if not pts:
        raise ValueError("weiszfeld needs at least one positively weighted anchor")
    if len(pts) == 1:
        return pts[0], None

    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    w = np.array(ws, dtype=float)

    anchor = _optimal_anchor(xs, ys, w)
    if anchor is not None:
        return anchor, None

    if start is None:
        cx = float(np.average(xs, weights=w))
        cy = float(np.average(ys, weights=w))
    else:
        cx, cy = start.x, start.y

    spread = max(xs.max() - xs.min(), ys.max() - ys.min(), 1.0)
    tol = _WEISZFELD_RTOL * spread
    smoothing = (_EPS * spread) ** 2
    # Anchor counts are tiny (one per merged arc plus the coupled
    # facility), so the task ships plain float lists: the scalar loop
    # iterates them directly, the lockstep pump pads them into a batch.
    return None, (xs.tolist(), ys.tolist(), w.tolist(), cx, cy, tol, smoothing)


def _weiszfeld_run(
    axs: Sequence[float],
    ays: Sequence[float],
    aws: Sequence[float],
    cx: float,
    cy: float,
    tol: float,
    smoothing: float,
    max_iter: int,
    _sqrt=math.sqrt,
) -> Tuple[float, float, int]:
    """The modified-Weiszfeld iterate loop from ``(cx, cy)``.

    Returns ``(x, y, iterations)``.  Anchor counts are tiny, so plain
    floats beat numpy dispatch by ~10x per problem; this loop is also
    the reference :class:`_LockstepPump` reproduces bit for bit.
    """
    anchors = list(zip(axs, ays, aws))
    iterations = 0
    for iterations in range(1, max_iter + 1):
        num_x = num_y = den = 0.0
        for ax, ay, aw in anchors:
            # dx * dx, not dx ** 2: libm's pow is not always correctly
            # rounded, and the lockstep pump squares by multiplication
            dx = ax - cx
            dy = ay - cy
            d2 = dx * dx + dy * dy
            if d2 == 0.0:
                # An anchor coinciding with the current iterate exerts no
                # directional pull (its gradient term is undefined); with
                # only the smoothing in the denominator its huge coef
                # would pin the iterate at the anchor — skip it instead,
                # per the standard modified-Weiszfeld step.
                continue
            coef = aw / _sqrt(d2 + smoothing)
            num_x += coef * ax
            num_y += coef * ay
            den += coef
        if den == 0.0:
            # every anchor coincides with the iterate: nothing pulls
            break
        nx = num_x / den
        ny = num_y / den
        moved = max(abs(nx - cx), abs(ny - cy))
        cx, cy = nx, ny
        if moved < tol:
            break
    return cx, cy, iterations


def weiszfeld(
    anchors: Sequence[Point],
    weights: Sequence[float],
    start: Optional[Point] = None,
) -> Tuple[Point, int]:
    """Weighted Fermat–Weber point: argmin_s Σ w_i ||x_i - s||_2.

    Classic Weiszfeld iteration with ε-smoothing; returns the point and
    the number of iterations used.  Zero-weight anchors are ignored; a
    single effective anchor returns that anchor directly.
    """
    point, task = _weiszfeld_setup(anchors, weights, start)
    if point is not None:
        return point, 0
    cx, cy, iterations = _weiszfeld_run(*task, _WEISZFELD_MAX_ITER)
    return Point(cx, cy), iterations


def _optimal_anchor(xs: np.ndarray, ys: np.ndarray, w: np.ndarray) -> Optional[Point]:
    """Check the Fermat–Weber anchor-optimality condition.

    Anchor ``a_i`` is the optimum iff the pull of the other anchors,
    ``R_i = || Σ_{j: a_j ≠ a_i} w_j (a_j - a_i)/||a_j - a_i|| ||``, does
    not exceed the (coincident-summed) weight at ``a_i``.  Weiszfeld
    converges only sublinearly onto anchor optima, so detecting them
    up front is a large practical speedup (and exact).
    """
    n = xs.size
    # All pairwise rows at once; every entry is the same elementwise
    # expression the per-row formulation computes (no reductions are
    # moved, so the masked sums below keep their exact rounding).
    DX = xs[None, :] - xs[:, None]
    DY = ys[None, :] - ys[:, None]
    DIST = np.sqrt(DX * DX + DY * DY)
    thr = 1e-15 * np.maximum(1.0, DIST.max(axis=1))
    for i in range(n):
        dx = DX[i]
        dy = DY[i]
        dist = DIST[i]
        here = dist <= thr[i]
        weight_here = float(w[here].sum())
        away = ~here
        if not away.any():
            return Point(float(xs[i]), float(ys[i]))
        px = float(np.sum(w[away] * dx[away] / dist[away]))
        py = float(np.sum(w[away] * dy[away] / dist[away]))
        if math.hypot(px, py) <= weight_here * (1 + 1e-12):
            return Point(float(xs[i]), float(ys[i]))
    return None


def _objective(
    norm: Norm,
    sources: Sequence[Point],
    sinks: Sequence[Point],
    feeder_costs: Sequence[StageCost],
    trunk_cost: StageCost,
    distributor_costs: Sequence[StageCost],
) -> Callable[[Point, Point], float]:
    def F(s: Point, t: Point) -> float:
        total = trunk_cost(norm.distance(s, t))
        for u, fc in zip(sources, feeder_costs):
            total += fc(norm.distance(u, s))
        for v, hc in zip(sinks, distributor_costs):
            total += hc(norm.distance(t, v))
        return total

    return F


def _all_same(points: Sequence[Point]) -> Optional[Point]:
    first = points[0]
    for p in points[1:]:
        if not first.is_close(p):
            return None
    return first


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
    case runs alternating Weiszfeld (convex, certified by a final exact
    evaluation); everything else places with a linear surrogate and,
    when ``polish`` is true (default), refines with Nelder–Mead on the
    exact cost.  ``polish=False`` skips the refinement — much faster on
    floor-style cost surfaces, at a small cost-quality risk — and never
    affects the linear path.  The returned ``cost`` is always the
    *exact* objective at the returned points.
    """
    if not sources or not sinks:
        raise ValueError("need at least one source and one sink")
    if len(sources) != len(feeder_costs) or len(sinks) != len(distributor_costs):
        raise ValueError("one stage-cost per source/sink required")

    F = _objective(norm, sources, sinks, feeder_costs, trunk_cost, distributor_costs)

    pinned_s = _all_same(list(sources))
    pinned_t = _all_same(list(sinks))
    if pinned_s is not None and pinned_t is not None:
        return PlacementResult(pinned_s, pinned_t, F(pinned_s, pinned_t), 0, "degenerate")

    all_linear = (
        trunk_cost.is_linear
        and all(c.is_linear for c in feeder_costs)
        and all(c.is_linear for c in distributor_costs)
    )
    if all_linear and norm.name == "euclidean":
        return _alternating_weiszfeld(
            sources, sinks, feeder_costs, trunk_cost, distributor_costs, F, pinned_s, pinned_t
        )

    # General costs: place with a linear surrogate (slope = average cost
    # density at the instance's own length scale), then polish with
    # Nelder-Mead from that point and a couple of centroid seeds.
    scale = _typical_scale(list(sources) + list(sinks), norm)
    surrogate = _alternating_weiszfeld(
        sources,
        sinks,
        [_linearize(c, scale) for c in feeder_costs],
        _linearize(trunk_cost, scale),
        [_linearize(c, scale) for c in distributor_costs],
        F,
        pinned_s,
        pinned_t,
    )
    if not polish:
        # exact evaluation at the surrogate optimum, no refinement
        return PlacementResult(
            surrogate.merge_point,
            surrogate.split_point,
            F(surrogate.merge_point, surrogate.split_point),
            surrogate.iterations,
            "surrogate",
        )
    return _nelder_mead(
        sources,
        sinks,
        F,
        norm,
        pinned_s,
        pinned_t,
        extra_seeds=[(surrogate.merge_point, surrogate.split_point)],
    )


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
        slope = _EPS
    return linear_stage(slope)


def _alternating_weiszfeld(
    sources: Sequence[Point],
    sinks: Sequence[Point],
    feeder_costs: Sequence[StageCost],
    trunk_cost: StageCost,
    distributor_costs: Sequence[StageCost],
    F: Callable[[Point, Point], float],
    pinned_s: Optional[Point],
    pinned_t: Optional[Point],
) -> PlacementResult:
    """Block-coordinate descent on the jointly convex linear objective.

    Each half-step is a weighted Fermat–Weber problem: optimizing ``s``
    for fixed ``t`` sees anchors ``u_i`` (weights = feeder slopes) plus
    ``t`` (weight = trunk slope), and symmetrically for ``t``.
    """
    s = pinned_s if pinned_s is not None else centroid(list(sources))
    t = pinned_t if pinned_t is not None else centroid(list(sinks))
    total_iters = 0
    prev = F(s, t)
    for _ in range(60):
        if pinned_s is None:
            anchors = list(sources) + [t]
            weights = [c.slope for c in feeder_costs] + [trunk_cost.slope]
            s, it1 = weiszfeld(anchors, weights, start=s)
            total_iters += it1
        if pinned_t is None:
            anchors = list(sinks) + [s]
            weights = [c.slope for c in distributor_costs] + [trunk_cost.slope]
            t, it2 = weiszfeld(anchors, weights, start=t)
            total_iters += it2
        cur = F(s, t)
        if prev - cur < 1e-12 * max(1.0, abs(prev)):
            break
        prev = cur
    return PlacementResult(s, t, F(s, t), total_iters, "weiszfeld")


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
    """Solve many independent placement problems, batching where it pays.

    Result ``i`` is **bit-identical** to
    ``optimize_two_points(*problems[i])``: problems on the fully-linear
    Euclidean path run their alternating-Weiszfeld rounds in *lockstep*
    (their Fermat–Weber half-steps iterate together in one
    :class:`_LockstepPump` — the per-problem iterate map is unchanged,
    so the trajectories are the solo ones); every other
    problem (nonlinear costs, non-Euclidean norms, degenerate pinned
    pairs) falls through to the serial solver unchanged.
    """
    results: List[Optional[PlacementResult]] = [None] * len(problems)
    lockstep: List[Tuple[int, tuple]] = []
    for i, p in enumerate(problems):
        if not p.sources or not p.sinks:
            raise ValueError("need at least one source and one sink")
        if len(p.sources) != len(p.feeder_costs) or len(p.sinks) != len(p.distributor_costs):
            raise ValueError("one stage-cost per source/sink required")
        pinned_s = _all_same(list(p.sources))
        pinned_t = _all_same(list(p.sinks))
        all_linear = (
            p.trunk_cost.is_linear
            and all(c.is_linear for c in p.feeder_costs)
            and all(c.is_linear for c in p.distributor_costs)
        )
        if (
            all_linear
            and p.norm.name == "euclidean"
            and not (pinned_s is not None and pinned_t is not None)
        ):
            F = _objective(
                p.norm, p.sources, p.sinks, p.feeder_costs, p.trunk_cost,
                p.distributor_costs,
            )
            lockstep.append((i, (p, F, pinned_s, pinned_t)))
        else:
            results[i] = optimize_two_points(
                p.sources, p.sinks, p.feeder_costs, p.trunk_cost,
                p.distributor_costs, norm=p.norm, polish=p.polish,
            )

    if lockstep:
        solved = _alternating_weiszfeld_lockstep([item for _, item in lockstep])
        for (i, _), res in zip(lockstep, solved):
            results[i] = res
    return results  # type: ignore[return-value]


def _sequential_sum_last(x: np.ndarray) -> np.ndarray:
    """Sum of a (..., k) array over its last axis, left to right — the
    scalar loop's order (numpy's own reduction switches to pairwise
    summation at 8 elements and rounds differently)."""
    acc = x[..., 0].copy()
    for i in range(1, x.shape[-1]):
        acc += x[..., i]
    return acc


class _LockstepPump:
    """Windowed lockstep Weiszfeld over a *mutable* working set.

    A single placement problem is too small for numpy (array dispatch
    costs more than the ~5-anchor scalar loop), so the win comes from
    fusing one iteration across many independent problems.
    :meth:`inject` enqueues a :func:`_weiszfeld_setup` task under a
    caller-chosen key; :meth:`pump` runs `_WINDOW`-sized blocks of fused
    iterations over everything in flight and returns ``(key, x, y,
    iterations)`` for at least one finished task unless nothing is in
    flight.  Result order carries no information — callers key off the
    returned keys.  Per-row state: padded anchors (zero weight, exact
    ``+0.0`` contributions), current iterate, tolerance, smoothing, and
    the remaining per-task iteration budget.

    Bit-identity with :func:`_weiszfeld_run`: every row applies the
    scalar per-iteration map to its own lane only, with additions in
    anchor order — window size, co-batched rows, and injection order
    are execution details that cannot change any task's trajectory.  A
    row that converges mid-window keeps iterating harmlessly until the
    sweep, which finds its *first* finish event and restores the
    position recorded at that exact step; once fewer than
    `_BATCH_MIN_ACTIVE` rows remain they are finished by the scalar
    loop, continuing from the same state.
    """

    def __init__(self, max_iter: int) -> None:
        self._max_iter = max_iter
        self._queue: List[Tuple[Hashable, tuple]] = []
        self._n = 0
        self._kmax = 0
        self._keys: List[Hashable] = []

    @property
    def in_flight(self) -> bool:
        return bool(self._queue) or self._n > 0

    def inject(self, key: Hashable, task: tuple) -> None:
        self._queue.append((key, task))

    def _absorb(self) -> None:
        """Fold queued tasks into the working arrays."""
        if not self._queue:
            return
        tasks = self._queue
        self._queue = []
        p = len(tasks)
        kmax = max(max(len(t[0]) for _, t in tasks), self._kmax)
        # plane 0/1: anchor x/y; plane 2: constant 1.0, so one fused
        # ``coef · A3`` reduction yields num_x, num_y *and* den in a
        # single pass (``coef * 1.0`` is bitwise ``coef``, and padding
        # columns carry an exact-0.0 coef, so den rounds identically to
        # the separate sum).
        A3 = np.zeros((p, 3, kmax))
        A3[:, 2, :] = 1.0
        W = np.zeros((p, kmax))
        pos = np.empty((p, 2))
        tl = np.empty(p)
        sm = np.empty((p, 1))
        for r, (_, (txs, tys, tws, cx, cy, tol, smoothing)) in enumerate(tasks):
            k = len(txs)
            A3[r, 0, :k] = txs
            A3[r, 1, :k] = tys
            W[r, :k] = tws
            pos[r, 0] = cx
            pos[r, 1] = cy
            tl[r] = tol
            sm[r, 0] = smoothing
        rem = np.full(p, self._max_iter, dtype=np.int64)
        used = np.zeros(p, dtype=np.int64)
        if self._n:
            oldA, oldW = self._A3, self._W
            if kmax > self._kmax:
                # widen existing rows with zero-weight padding (exact
                # +0.0 accumulation terms — unobservable)
                wideA = np.zeros((self._n, 3, kmax))
                wideA[:, 2, :] = 1.0
                wideA[:, :, : self._kmax] = oldA
                wideW = np.zeros((self._n, kmax))
                wideW[:, : self._kmax] = oldW
                oldA, oldW = wideA, wideW
            self._A3 = np.concatenate([oldA, A3])
            self._W = np.concatenate([oldW, W])
            self._pos = np.concatenate([self._pos, pos])
            self._tl = np.concatenate([self._tl, tl])
            self._sm = np.concatenate([self._sm, sm])
            self._rem = np.concatenate([self._rem, rem])
            self._used = np.concatenate([self._used, used])
        else:
            self._A3, self._W, self._pos = A3, W, pos
            self._tl, self._sm = tl, sm
            self._rem, self._used = rem, used
        self._keys.extend(key for key, _ in tasks)
        self._kmax = kmax
        self._n += p

    def _drain_scalar(self) -> List[Tuple[object, float, float, int]]:
        """Finish every remaining row on the scalar loop, continuing
        from its current iterate and budget."""
        out = []
        for r in range(self._n):
            x, y, extra = _weiszfeld_run(
                self._A3[r, 0].tolist(), self._A3[r, 1].tolist(),
                self._W[r].tolist(), float(self._pos[r, 0]),
                float(self._pos[r, 1]), float(self._tl[r]),
                float(self._sm[r, 0]), int(self._rem[r]),
            )
            out.append((self._keys[r], x, y, int(self._used[r]) + extra))
        self._n = 0
        self._kmax = 0
        self._keys = []
        return out

    def pump(self) -> List[Tuple[object, float, float, int]]:
        self._absorb()
        results: List[Tuple[object, float, float, int]] = []
        with np.errstate(divide="ignore", invalid="ignore"):
            while self._n:
                if self._n < _BATCH_MIN_ACTIVE:
                    results.extend(self._drain_scalar())
                    break
                results.extend(self._window())
                if results:
                    break
        return results

    def _window(self) -> List[Tuple[object, float, float, int]]:
        """One block of fused lockstep iterations + one finish sweep."""
        n, kmax = self._n, self._kmax
        A3, W, tl, sm = self._A3, self._W, self._tl, self._sm
        pos = self._pos
        span = min(_WINDOW, int(self._rem.min()))
        base = pos
        A2 = A3[:, :2, :]
        # Window history and scratch, preallocated: every ufunc below
        # writes into these (``out=``), so the hot loop allocates
        # nothing.  ``traj[j]``/``sums[j]``/``d2h[j]`` are each step's
        # own rows — no aliasing across steps.  The hot loop only
        # *advances* the iterates; step sizes, den == 0 events, and
        # coincident-anchor hits are all recovered from the recorded
        # history after the loop.  ``traj`` carries a third channel
        # (den/den — exactly 1.0 for live rows) so the whole ``nsum``
        # row divides in one contiguous op.
        traj = np.empty((span, n, 3))
        sums = np.empty((span, n, 3))
        d2h = np.empty((span, n, kmax))
        diff = np.empty((n, 2, kmax))
        coef = np.empty((n, kmax))
        prod = np.empty((n, 3, kmax))
        fast = kmax < 8
        for masked in (False, True):
            cur = pos
            for j in range(span):
                np.subtract(A2, cur[:, :, None], out=diff)
                np.multiply(diff, diff, out=diff)
                d2 = d2h[j]
                # binary add of the two planes: exactly dx*dx + dy*dy
                np.add(diff[:, 0], diff[:, 1], out=d2)
                np.add(d2, sm, out=coef)
                np.sqrt(coef, out=coef)
                np.divide(W, coef, out=coef)
                if masked:
                    # a d2 == 0.0 entry is a skipped coincident anchor
                    # (or zero-weight padding with the iterate on the
                    # origin): its coef must be exact 0.0, not
                    # w/sqrt(smoothing).
                    np.copyto(coef, 0.0, where=d2 == 0.0)
                np.multiply(coef[:, None, :], A3, out=prod)
                nsum = sums[j]
                if fast:
                    # one fused pass over the three planes: num_x,
                    # num_y, den
                    np.add.reduce(prod, axis=2, out=nsum)
                else:
                    nsum[:] = _sequential_sum_last(prod)
                # den == 0.0 rows (every anchor coincides) go NaN here
                # and are unwound at the sweep below — the scalar loop
                # stops *before* this update.
                np.divide(nsum, nsum[:, 2:], out=traj[j])
                cur = traj[j, :, :2]
            if bool((d2h > 0.0).all()):
                # No step of any row touched a coincident anchor (the
                # overwhelmingly common case): the unmasked trajectories
                # are exact and the masked pass is skipped.  A d2 of 0.0
                # — or the NaNs it cascades into — fails the > 0.0 test,
                # triggering the one masked redo from the same start.
                break

        out: List[Tuple[object, float, float, int]] = []
        # Chebyshev step sizes for the whole window at once (the hot
        # loop records positions only): steps[j] = |traj[j] - traj[j-1]|
        # elementwise — identical doubles to a per-step computation.
        # The third channel contributes |1.0 - 1.0| = 0.0 (NaN on dead
        # rows), which never changes a maximum of absolute values.
        steps = np.empty((span, n, 3))
        np.subtract(traj[0, :, :2], base, out=steps[0, :, :2])
        steps[0, :, 2] = 0.0
        if span > 1:
            np.subtract(traj[1:], traj[:-1], out=steps[1:])
        np.abs(steps, out=steps)
        movs = np.maximum.reduce(steps, axis=2)
        fin = movs < tl         # NaN rows compare False
        dzero = sums[:, :, 2] == 0.0
        has_m = fin.any(axis=0)
        has_d = dzero.any(axis=0)
        finished = has_m | has_d
        used = self._used
        if finished.any():
            # First finish event per row; restore that row's state *at
            # its own event* from the window history (its later
            # in-window iterates touched nothing but its own lane).
            rows = np.arange(n)
            jm = fin.argmax(axis=0)
            jd = dzero.argmax(axis=0)
            move_fin = has_m & (~has_d | (jm < jd))
            for r in rows[move_fin]:
                out.append((
                    self._keys[r], float(traj[jm[r], r, 0]),
                    float(traj[jm[r], r, 1]), int(used[r] + jm[r] + 1),
                ))
            for r in rows[finished & ~move_fin]:
                # the den == 0 iteration is counted but does not move
                # the iterate: restore the *previous* position
                j = jd[r]
                px, py = (traj[j - 1, r, :2] if j > 0 else base[r])
                out.append((self._keys[r], float(px), float(py),
                            int(used[r] + j + 1)))
        alive = ~finished
        pos = traj[span - 1, :, :2]
        used = used + span
        exhausted = alive & (self._rem - span == 0)
        if exhausted.any():
            for r in np.arange(n)[exhausted]:
                out.append((self._keys[r], float(pos[r, 0]),
                            float(pos[r, 1]), int(used[r])))
            alive &= ~exhausted
        self._A3 = A3[alive]
        self._W = W[alive]
        self._pos = pos[alive]
        self._tl = tl[alive]
        self._sm = sm[alive]
        self._rem = self._rem[alive] - span
        self._used = used[alive]
        self._keys = [k for k, a in zip(self._keys, alive) if a]
        self._n = int(alive.sum())
        if self._n == 0:
            self._kmax = 0
        return out


def _alternating_weiszfeld_lockstep(
    items: Sequence[tuple],
) -> List[PlacementResult]:
    """Run many alternating-Weiszfeld descents through one lockstep pump.

    ``items`` are ``(problem, F, pinned_s, pinned_t)`` tuples, all on
    the fully-linear Euclidean path.  Each problem is an independent
    state machine (s half-step → t half-step → round convergence
    check); whenever a half-step needs the iterate loop, its task goes
    into a shared :class:`_LockstepPump` and the *next* half-step is
    submitted the moment the previous one finishes.  Problems therefore
    never wait for each other at round boundaries — the pump keeps one
    wide batch busy instead of draining a thinning batch per round —
    while each problem runs the exact serial sequence of half-steps on
    the exact serial iterates: what any single problem computes never
    changes, only which problems happen to iterate together.
    """
    m = len(items)
    s: List[Point] = []
    t: List[Point] = []
    prev: List[float] = []
    iters = [0] * m
    rounds = [0] * m
    for p, F, pinned_s, pinned_t in items:
        s.append(pinned_s if pinned_s is not None else centroid(list(p.sources)))
        t.append(pinned_t if pinned_t is not None else centroid(list(p.sinks)))
        prev.append(F(s[-1], t[-1]))

    pump = _LockstepPump(_WEISZFELD_MAX_ITER)

    def drive(i: int, phase: str) -> None:
        """Advance problem ``i`` until it submits a pump task or its
        descent converges.  ``phase`` is the next thing to do: "s"/"t"
        half-step or the end-of-round convergence "check"."""
        p, F, pinned_s, pinned_t = items[i]
        while True:
            if phase == "s":
                phase = "t"
                if pinned_s is None:
                    anchors = list(p.sources) + [t[i]]
                    weights = [c.slope for c in p.feeder_costs] + [p.trunk_cost.slope]
                    point, task = _weiszfeld_setup(anchors, weights, s[i])
                    if point is None:
                        pump.inject((i, "s"), task)
                        return
                    s[i] = point
            elif phase == "t":
                phase = "check"
                if pinned_t is None:
                    anchors = list(p.sinks) + [s[i]]
                    weights = [c.slope for c in p.distributor_costs] + [p.trunk_cost.slope]
                    point, task = _weiszfeld_setup(anchors, weights, t[i])
                    if point is None:
                        pump.inject((i, "t"), task)
                        return
                    t[i] = point
            else:  # end of round: the serial convergence test
                rounds[i] += 1
                cur = F(s[i], t[i])
                if prev[i] - cur < 1e-12 * max(1.0, abs(prev[i])) or rounds[i] >= 60:
                    return
                prev[i] = cur
                phase = "s"

    for i in range(m):
        drive(i, "s")
    while pump.in_flight:
        for (i, side), x, y, it in pump.pump():
            iters[i] += it
            if side == "s":
                s[i] = Point(x, y)
                drive(i, "t")
            else:
                t[i] = Point(x, y)
                drive(i, "check")

    return [
        PlacementResult(s[i], t[i], items[i][1](s[i], t[i]), iters[i], "weiszfeld")
        for i in range(m)
    ]


def _nelder_mead(
    sources: Sequence[Point],
    sinks: Sequence[Point],
    F: Callable[[Point, Point], float],
    norm: Norm,
    pinned_s: Optional[Point],
    pinned_t: Optional[Point],
    extra_seeds: Optional[Sequence[Tuple[Point, Point]]] = None,
) -> PlacementResult:
    """Multi-start Nelder–Mead over the free coordinates.

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
    return PlacementResult(best[1], best[2], best[0], evals, "nelder-mead")
