"""Per-layer tracing from outside the program.

Each layer of the synthesis pipeline is named after its module and
reached through the public entry points its *caller* looks up, e.g.
``repro.core.candidates.build_merging_plans_batch``.  While a
:class:`LayerTrace` is active those names are replaced by wrappers that
record one span per call (layer name, start, end, parent) in memory and
read work counts from the public return values.  Nothing inside
``src/`` is changed or imported specially.

A layer's self time is the total duration of its spans minus the part
covered by their child spans.  The whole traced pass is one root span
whose self time is ``untraced_s``: the time no wrapped layer claims.  So
``Σ layer self times + untraced_s`` equals the traced wall time exactly.

:data:`LAYERS` is also the reference table of which end-to-end metric a
layer should move on which workload, and where it should stay flat.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: a counter reads ``(args, result)`` of one call and returns the
#: counts to add.
Counter = Callable[[tuple, Any], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``module`` plus ``attr`` (``Class.method`` allowed).

    ``span`` False wraps the call only to read counts from its result;
    it then adds no span and claims no time.
    """

    module: str
    attr: str
    counter: Optional[Counter] = None
    span: bool = True

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attr}"


@dataclass(frozen=True)
class Layer:
    """A pipeline layer: its wrapped names, metrics and predictions."""

    name: str
    module: str
    targets: Tuple[Target, ...]
    #: ``(metric name, unit, better)`` triples.
    metrics: Tuple[Tuple[str, str, str], ...]
    #: the metric that holds this layer's summed self time.
    self_metric: str
    #: workloads on which the layer must be called (else: missing).
    works_on: Tuple[str, ...]
    moves: Tuple[str, ...] = ()
    moves_on: Tuple[str, ...] = ()
    flat_on: Tuple[str, ...] = ()


def _add(key: str, fn: Callable[[tuple, Any], float]) -> Counter:
    return lambda args, result: {key: float(fn(args, result))}


def _cover_nodes(prefix: str) -> Counter:
    def count(args, result):
        return {f"{prefix}.calls": 1.0, f"{prefix}.nodes": float(result.stats.get("nodes", 0))}

    return count


def _generation(args, result) -> Dict[str, float]:
    stats = result.stats
    return {
        "pruning.subsets": float(stats.subsets_enumerated),
        "pruning.survivors": float(sum(stats.pruning_survivors_by_k.values())),
    }


def _decomposition(args, result) -> Dict[str, float]:
    return {"decompose.clusters": float(result.decomposition.n_clusters)}


ALL_WORKLOADS = ("decompose300", "batch-warm")

LAYERS: Tuple[Layer, ...] = (
    Layer(
        "placement", "repro.core.placement (called from repro.core.merging)",
        (
            Target("repro.core.merging", "optimize_two_points_batch",
                   _add("placement.solves", lambda a, r: len(a[0]))),
            Target("repro.core.merging", "optimize_two_points",
                   _add("placement.solves", lambda a, r: 1)),
        ),
        (("placement.solves", "count", "lower"), ("placement.self_s", "s", "lower")),
        "placement.self_s", ("decompose300",),
        moves=("wall_s", "synth_s.p50"), moves_on=("decompose300",),
        flat_on=("batch-warm",),
    ),
    Layer(
        "merging", "repro.core.merging",
        (
            Target("repro.core.candidates", "build_merging_plans_batch",
                   _add("merging.plans", lambda a, r: len(r))),
            Target("repro.core.decompose", "build_merging_plan",
                   _add("merging.plans", lambda a, r: 1)),
        ),
        (("merging.plans", "count", "lower"), ("merging.self_s", "s", "lower")),
        "merging.self_s", ALL_WORKLOADS,
        moves=("wall_s",), moves_on=("decompose300",), flat_on=("batch-warm",),
    ),
    Layer(
        "pruning", "repro.core.pruning",
        (
            Target("repro.core.candidates", "lemma_3_2_not_mergeable_batch"),
            Target("repro.core.candidates", "theorem_3_2_not_mergeable_batch"),
            Target("repro.core.synthesis", "generate_candidates", _generation, span=False),
            Target("repro.core.decompose", "generate_candidates", _generation, span=False),
        ),
        (
            ("pruning.subsets", "count", "lower"),
            ("pruning.survivor_ratio", "1", "lower"),
            ("pruning.self_s", "s", "lower"),
        ),
        "pruning.self_s", ALL_WORKLOADS,
        moves=("placement.solves", "wall_s"), moves_on=("decompose300",), flat_on=ALL_WORKLOADS,
    ),
    Layer(
        "gamma_delta", "repro.core.matrices",
        (
            Target("repro.core.candidates", "IncrementalArcMatrices"),
            Target("repro.core.decompose", "compute_matrices"),
        ),
        (("gamma_delta.self_s", "s", "lower"),),
        "gamma_delta.self_s", ALL_WORKLOADS,
        moves=("wall_s",), moves_on=("decompose300",), flat_on=("batch-warm",),
    ),
    Layer(
        "partition", "repro.core.decompose",
        (
            Target("repro.core.decompose", "certified_partition"),
            Target("repro.core.decompose", "synthesize_decomposed", _decomposition, span=False),
        ),
        (("partition.self_s", "s", "lower"), ("decompose.clusters", "count", "higher")),
        "partition.self_s", ("decompose300",),
        moves=("wall_s",), moves_on=("decompose300",), flat_on=("batch-warm",),
    ),
    Layer(
        "covering.build", "repro.core.synthesis",
        (
            Target("repro.core.synthesis", "build_covering_problem",
                   _add("covering.columns", lambda a, r: r.n_columns)),
            Target("repro.core.decompose", "build_covering_problem",
                   _add("covering.columns", lambda a, r: r.n_columns)),
        ),
        (("covering.columns", "count", "lower"), ("covering.build_s", "s", "lower")),
        "covering.build_s", ALL_WORKLOADS,
        moves=("wall_s",), moves_on=("decompose300",),
    ),
    Layer(
        "ilp", "repro.covering.ilp",
        (
            Target("repro.core.synthesis", "solve_ilp", _cover_nodes("ilp")),
            Target("repro.core.decompose", "solve_ilp", _cover_nodes("ilp")),
        ),
        (
            ("ilp.calls", "count", "lower"),
            ("ilp.nodes", "count", "lower"),
            ("ilp.self_s", "s", "lower"),
        ),
        "ilp.self_s", ("decompose300",),
        moves=("wall_s",), moves_on=("decompose300",), flat_on=("batch-warm",),
    ),
    Layer(
        "bnb", "repro.covering.bnb",
        (
            Target("repro.core.synthesis", "solve_cover", _cover_nodes("bnb")),
            Target("repro.core.decompose", "solve_cover", _cover_nodes("bnb")),
        ),
        (
            ("bnb.calls", "count", "lower"),
            ("bnb.nodes", "count", "lower"),
            ("bnb.self_s", "s", "lower"),
        ),
        "bnb.self_s", ("batch-warm",),
        moves=("wall_s", "synth_s.p50", "synth_s.p90"), moves_on=("batch-warm",),
        flat_on=("decompose300",),
    ),
    Layer(
        "bnb.lp_bound", "repro.covering.bounds",
        (
            Target("repro.covering.bounds", "lp_lower_bound",
                   _add("bnb.lp_bounds", lambda a, r: 1)),
        ),
        (("bnb.lp_bounds", "count", "lower"), ("bnb.lp_bound_s", "s", "lower")),
        "bnb.lp_bound_s", ("batch-warm",),
        moves=("wall_s", "synth_s.p50", "synth_s.p90"), moves_on=("batch-warm",),
        flat_on=("decompose300",),
    ),
    Layer(
        "materialize", "repro.core.synthesis",
        (
            Target("repro.core.synthesis", "materialize_selection"),
            Target("repro.core.decompose", "materialize_selection"),
        ),
        (("materialize.self_s", "s", "lower"),),
        "materialize.self_s", ALL_WORKLOADS,
        moves=("wall_s",), moves_on=("batch-warm",),
    ),
    Layer(
        "validate", "repro.core.validation",
        (
            Target("repro.core.synthesis", "validate"),
            Target("repro.core.decompose", "validate"),
        ),
        (("validate.self_s", "s", "lower"),),
        "validate.self_s", ALL_WORKLOADS,
        moves=("wall_s",), moves_on=("batch-warm",),
    ),
    Layer(
        "cache", "repro.core.cache",
        (Target("repro.core.cache", "PersistentCache.lookup"),),
        (
            ("cache.hits", "count", "higher"),
            ("cache.misses", "count", "lower"),
            ("cache.entries_loaded", "count", "lower"),
            ("cache.corrupt_discarded", "count", "lower"),
            ("cache.lookup_s", "s", "lower"),
        ),
        "cache.lookup_s", ("batch-warm",),
        moves=("wall_s", "synth_s.p50"), moves_on=("batch-warm",),
        flat_on=("decompose300",),
    ),
    Layer(
        "batch", "repro.batch.runner, repro.batch.scheduler, repro.batch.stream",
        (Target("repro.batch.stream", "ResultStream.emit"),),
        (
            ("batch.solve_s", "s", "lower"),
            ("batch.pool_wait_s", "s", "lower"),
            ("batch.emit_s", "s", "lower"),
            ("batch.worker_recoveries", "count", "lower"),
        ),
        "batch.emit_s", ("batch-warm",),
        moves=("wall_s",), moves_on=("batch-warm",), flat_on=("decompose300",),
    ),
)

#: metrics of the traced run that belong to no single layer.
RESIDUAL_METRICS = (
    ("traced_wall_s", "s", "lower"),
    ("untraced_s", "s", "lower"),
    ("trace_overhead", "1", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in table order."""
    return [m for layer in LAYERS for m in layer.metrics] + list(RESIDUAL_METRICS)


def _resolve(target: Target) -> Tuple[Any, str, Any]:
    """``(owner, attribute, current value)``; raises when the name is gone."""
    owner: Any = importlib.import_module(target.module)
    parts = target.attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


@dataclass
class _Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class LayerTrace:
    """Context manager: wrap every layer target, record spans and counts.

    Single-threaded and in-process only: a wrapper cannot see into pool
    workers, so traced passes run serially.
    """

    spans: List[_Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    absent: List[str] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)
    _restore: List[Tuple[Any, str, Any]] = field(default_factory=list)

    def __enter__(self) -> "LayerTrace":
        for layer in LAYERS:
            for target in layer.targets:
                try:
                    owner, attr, original = _resolve(target)
                except (ImportError, AttributeError):
                    self.absent.append(target.qualname)
                    continue
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer.name, target, original))
        self.spans.append(_Span("untraced", time.perf_counter()))
        self._stack.append(0)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.spans[0].end = time.perf_counter()
        self._stack.clear()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, layer: str, target: Target, fn: Callable) -> Callable:
        spans, stack, counts, calls = self.spans, self._stack, self.counts, self.calls

        def wrapper(*args, **kwargs):
            calls[layer] = calls.get(layer, 0) + 1
            if target.span:
                index = len(spans)
                spans.append(_Span(layer, time.perf_counter(), parent=stack[-1]))
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index].end = time.perf_counter()
            else:
                result = fn(*args, **kwargs)
            if target.counter is not None:
                for key, value in target.counter(args, result).items():
                    counts[key] = counts.get(key, 0.0) + value
            return result

        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Summed self time per layer name (``untraced`` is the root)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans[1:]:
            child_time[span.parent] += span.end - span.start
        out: Dict[str, float] = {}
        for span, inner in zip(self.spans, child_time):
            out[span.layer] = out.get(span.layer, 0.0) + (span.end - span.start - inner)
        return out

    @property
    def wall_s(self) -> float:
        return self.spans[0].end - self.spans[0].start

    def missing(self, workload: str) -> Dict[str, str]:
        """Layer -> reason, for layers whose names are gone or that did
        no work on a workload where they must."""
        out = {}
        for layer in LAYERS:
            gone = [t.qualname for t in layer.targets if t.qualname in self.absent]
            if gone:
                out[layer.name] = f"no such name: {', '.join(gone)}"
            elif workload in layer.works_on and not self.calls.get(layer.name):
                out[layer.name] = f"never called on {workload}"
        return out


def layer_metrics(
    trace: LayerTrace, workload: str, extra: Dict[str, float]
) -> Dict[str, Optional[float]]:
    """The traced pass's per-layer values; ``None`` marks a missing layer.

    ``extra`` supplies values read outside the trace: batch summaries
    and ``trace_overhead``.
    """
    self_s = trace.self_times()
    counts = dict(trace.counts, **extra)
    subsets = counts.get("pruning.subsets", 0.0)
    counts["pruning.survivor_ratio"] = (
        counts.get("pruning.survivors", 0.0) / subsets if subsets else 0.0
    )
    missing = trace.missing(workload)
    values: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        for name, _unit, _better in layer.metrics:
            if layer.name in missing:
                values[name] = None
            elif name == layer.self_metric:
                values[name] = self_s.get(layer.name, 0.0)
            else:
                values[name] = counts.get(name, 0.0)
    values["traced_wall_s"] = trace.wall_s
    values["untraced_s"] = self_s["untraced"]
    values["trace_overhead"] = extra["trace_overhead"]
    return values
