"""The closed synthesize → simulate → tighten loop (ROADMAP item 3a).

The paper's cost model is static: a channel is sustained iff some
selected candidate carries its ``b(a)``.  The NoC line this displaced
(Ogras & Marculescu, arxiv 0710.4707) instead *validates dynamically*
and feeds observations back into the next synthesis round.  This
module closes that loop with the machinery the repo already has:

1. synthesize the current (possibly tightened) constraint graph;
2. replay the *real* workload — the nominal demands scaled by the
   target overload margin — on the implementation with the fluid
   simulator (:func:`repro.sim.simulate`; the packet simulator is the
   cross-check engine);
3. every starved channel, and every channel whose queue outgrew the
   bound, gets its provisioning requirement tightened (bandwidth
   multiplier on the constraint arc);
4. re-synthesize via the incremental/ECO machinery and repeat.

Convergence means the simulated architecture sustains every demand at
the margin with bounded queues.  The per-arc multipliers accumulate
geometrically (``1+margin`` per flagging), so the loop terminates
either by converging or by tightening an arc past the library's reach
(reported honestly as a failure, never hidden).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..core.constraint_graph import ConstraintGraph
from ..core.exceptions import InfeasibleError, SynthesisError
from ..core.incremental import IncrementalSynthesizer
from ..core.library import CommunicationLibrary
from ..core.synthesis import (
    SynthesisOptions,
    SynthesisResult,
    resolve_strategy,
    synthesize,
)
from ..obs.tracer import NULL_TRACER, Tracer, current_tracer, tracing
from ..sim.fluid import simulate
from ..sim.packets import PacketSimResult, simulate_packets
from ..sim.traffic import TrafficSpec

__all__ = ["LoopOptions", "IterationRecord", "TuneResult", "tune"]

#: floor on the per-flagging tightening factor, so ``margin=0`` runs
#: still make progress when simulation flags a channel.
_MIN_TIGHTEN = 0.05

#: packets emitted by the slowest channel in a derived packet run —
#: enough for a stable steady-state measurement, few enough that even
#: a 16x bandwidth spread stays at thousands of events.
_PACKETS_PER_SLOW_CHANNEL = 120.0


@dataclass(frozen=True)
class LoopOptions:
    """Knobs of the closed loop (:func:`tune`)."""

    #: target overload headroom: the workload is simulated at
    #: ``(1 + margin)`` times the nominal rates, and flagged arcs are
    #: tightened by the same factor per flagging.
    margin: float = 0.2
    #: iteration cap; hitting it reports ``converged=False`` honestly.
    max_iterations: int = 8
    #: verdict engine: ``"fluid"`` (default; exact for "can the rates
    #: be sustained?") or ``"packets"`` (store-and-forward DES).
    sim: str = "fluid"
    #: fluid horizon (time units) and step.
    duration: float = 200.0
    dt: float = 1.0
    #: a channel whose peak queue exceeds this fraction of
    #: ``demand x duration`` is congested even if its throughput held.
    queue_bound_fraction: float = 0.1
    #: packet-run horizon and packet size; ``None`` derives both from
    #: the *nominal* workload (margin-independent, so latencies are
    #: comparable across a sweep).
    packet_duration: Optional[float] = None
    packet_bits: Optional[float] = None
    #: propagation delay per unit link length in the packet runs.
    distance_delay: float = 0.0
    #: run the other engine on the converged design and record whether
    #: the sustained verdicts agree.
    cross_check: bool = True

    def validated(self) -> "LoopOptions":
        if not (self.margin >= 0.0):
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.sim not in ("fluid", "packets"):
            raise ValueError(f"sim must be 'fluid' or 'packets', got {self.sim!r}")
        if self.duration <= 0 or self.dt <= 0:
            raise ValueError("duration and dt must be positive")
        if not (0.0 < self.queue_bound_fraction):
            raise ValueError("queue_bound_fraction must be positive")
        return self


@dataclass(frozen=True)
class IterationRecord:
    """What one loop iteration synthesized and observed."""

    index: int
    cost: float
    starved: Tuple[str, ...]
    over_queue: Tuple[str, ...]

    @property
    def flagged(self) -> Tuple[str, ...]:
        """Arcs tightened after this iteration, sorted."""
        return tuple(sorted(set(self.starved) | set(self.over_queue)))

    @property
    def sustained(self) -> bool:
        return not self.starved and not self.over_queue

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "cost": self.cost,
            "starved": list(self.starved),
            "over_queue": list(self.over_queue),
        }


@dataclass
class TuneResult:
    """Outcome of one closed-loop run at a fixed margin."""

    converged: bool
    margin: float
    iterations: List[IterationRecord]
    #: per-arc bandwidth multipliers at exit (arcs never flagged are
    #: absent).  Feed back via ``initial_margins`` to re-enter the loop
    #: where it left off (idempotence: a converged design re-enters and
    #: exits in one iteration).
    margins: Dict[str, float]
    result: SynthesisResult
    #: the tightened constraint graph the final design was synthesized
    #: for — exportable as a regular instance.
    graph: ConstraintGraph
    cost: float
    #: worst per-channel mean latency of the packet run on the final
    #: design, at the margin workload.
    latency: float
    #: packet-level cross-check of the final design (None when
    #: ``cross_check=False``).
    cross_check: Optional[PacketSimResult] = None
    #: did the cross-check engine agree the final design sustains?
    cross_check_agrees: Optional[bool] = None
    #: honest reason when the loop stopped without converging.
    failure: Optional[str] = None

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary — deliberately no wall-clock fields, so
        two identical runs serialize byte-identically."""
        return {
            "converged": self.converged,
            "margin": self.margin,
            "iterations": [r.to_dict() for r in self.iterations],
            "margins": {k: self.margins[k] for k in sorted(self.margins)},
            "cost": self.cost,
            "latency": self.latency,
            "cross_check_agrees": self.cross_check_agrees,
            "failure": self.failure,
        }


def _derived_packet_params(
    nominal: TrafficSpec, loop: LoopOptions
) -> Tuple[float, float]:
    """(duration, packet_bits) for packet runs, margin-independent."""
    duration = loop.packet_duration if loop.packet_duration is not None else 1.0
    if loop.packet_bits is not None:
        return duration, loop.packet_bits
    return duration, nominal.min_rate() * duration / _PACKETS_PER_SLOW_CHANNEL


def _congested_channels(sim_result, loop: LoopOptions) -> List[str]:
    """Channels whose queues outgrew the bound despite sustained
    throughput (fluid engine only)."""
    bound_factor = loop.queue_bound_fraction * sim_result.duration
    return sorted(
        name
        for name, c in sim_result.channels.items()
        if c.satisfied and c.peak_backlog > bound_factor * c.demand
    )


def _in_flight_channels(pkt: PacketSimResult) -> List[str]:
    """Packet-engine congestion proxy: more packets in flight at the
    end than a full pipeline plus a small burst explains."""
    return sorted(
        name
        for name, c in pkt.channels.items()
        if c.satisfied and c.in_flight > c.hops + 4
    )


def tune(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    options: Optional[SynthesisOptions] = None,
    loop: Optional[LoopOptions] = None,
    initial_margins: Optional[Mapping[str, float]] = None,
    trace: Union[bool, Tracer] = False,
) -> TuneResult:
    """Run the closed loop at ``loop.margin`` until the simulated
    architecture sustains the margin workload with bounded queues.

    ``options.demand_margin`` must be 0 (the loop owns the tightening;
    a uniform pre-scale on top would double-count) — a nonzero value
    raises :class:`~repro.core.exceptions.SynthesisError`.
    """
    loop = (loop or LoopOptions()).validated()
    options = options or SynthesisOptions()
    if options.demand_margin:
        raise SynthesisError(
            "tune() owns demand tightening; set SynthesisOptions.demand_margin=0 "
            f"(got {options.demand_margin})"
        )
    if trace is True:
        tracer: Optional[Tracer] = Tracer(label=f"tune:{graph.name}")
    elif trace is False or trace is None:
        ambient = current_tracer()
        tracer = ambient if ambient is not NULL_TRACER else None
    else:
        tracer = trace

    if tracer is None:
        return _tune_traced(graph, library, options, loop, initial_margins)
    with tracing(tracer):
        result = _tune_traced(graph, library, options, loop, initial_margins)
    result.result.trace = tracer
    return result


def _tightened(graph: ConstraintGraph, margins: Mapping[str, float]) -> ConstraintGraph:
    if not margins:
        return graph
    return graph.with_bandwidths(
        {name: graph.arc(name).bandwidth * mult for name, mult in margins.items()}
    )


def _tune_traced(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    options: SynthesisOptions,
    loop: LoopOptions,
    initial_margins: Optional[Mapping[str, float]],
) -> TuneResult:
    tracer = current_tracer()
    target_scale = 1.0 + loop.margin
    tighten_factor = 1.0 + max(loop.margin, _MIN_TIGHTEN)
    nominal_spec = TrafficSpec.from_graph(graph)
    workload = nominal_spec.scaled(target_scale)
    pkt_duration, pkt_bits = _derived_packet_params(nominal_spec, loop)

    margins: Dict[str, float] = dict(initial_margins or {})
    for name in margins:
        graph.arc(name)  # raises ModelError on a stranger
    tightened = _tightened(graph, margins)

    # the ECO path only pays off for the exact strategy (decompose
    # replans from scratch anyway, and runs its own pipeline)
    use_incremental = (
        resolve_strategy(options.strategy, len(graph)) == "exact"
        and options.checkpoint_path is None
    )
    inc = (
        IncrementalSynthesizer(tightened, library, options)
        if use_incremental
        else None
    )

    records: List[IterationRecord] = []
    converged = False
    failure: Optional[str] = None
    result: Optional[SynthesisResult] = None

    with tracer.span(
        "loop.tune", graph=graph.name, margin=loop.margin, sim=loop.sim
    ) as root_span:
        for index in range(1, loop.max_iterations + 1):
            with tracer.span("loop.iteration", index=index):
                tracer.count("loop.iterations")
                with tracer.span("loop.resynthesize"):
                    try:
                        result = inc.solve() if inc else synthesize(
                            tightened, library, options
                        )
                    except InfeasibleError as exc:
                        failure = f"tightened instance became infeasible: {exc}"
                        break
                with tracer.span("loop.simulate", engine=loop.sim):
                    if loop.sim == "fluid":
                        verdict = simulate(
                            result.implementation,
                            tightened,
                            duration=loop.duration,
                            dt=loop.dt,
                            traffic=workload,
                        )
                        starved = verdict.starved_channels()
                        over_queue = _congested_channels(verdict, loop)
                    else:
                        verdict = simulate_packets(
                            result.implementation,
                            tightened,
                            duration=pkt_duration,
                            packet_bits=pkt_bits,
                            distance_delay=loop.distance_delay,
                            traffic=workload,
                        )
                        starved = verdict.starved_channels()
                        over_queue = _in_flight_channels(verdict)
                record = IterationRecord(
                    index=index,
                    cost=result.total_cost,
                    starved=tuple(starved),
                    over_queue=tuple(over_queue),
                )
                records.append(record)
                if record.sustained:
                    converged = True
                    tracer.count("loop.converged")
                    break
                tracer.count("loop.tightenings", len(record.flagged))
                for name in record.flagged:
                    current = margins.get(name, 1.0)
                    margins[name] = (
                        current * tighten_factor
                        if current > 1.0
                        else tighten_factor
                    )
                try:
                    if inc is not None:
                        for name in record.flagged:
                            inc.change_bandwidth(
                                name, graph.arc(name).bandwidth * margins[name]
                            )
                        tightened = inc.graph
                    else:
                        tightened = _tightened(graph, margins)
                except InfeasibleError as exc:
                    failure = f"tightening exceeded the library's reach: {exc}"
                    break
        if result is None:
            # first synthesis already infeasible: surface it as-is
            raise InfeasibleError(failure or "synthesis failed before simulating")
        if not converged and failure is None:
            failure = f"no convergence within {loop.max_iterations} iterations"

        with tracer.span("loop.final_packets"):
            pkt = simulate_packets(
                result.implementation,
                tightened,
                duration=pkt_duration,
                packet_bits=pkt_bits,
                distance_delay=loop.distance_delay,
                traffic=workload,
            )
        cross: Optional[PacketSimResult] = None
        agrees: Optional[bool] = None
        if loop.cross_check:
            if loop.sim == "fluid":
                cross = pkt
                agrees = pkt.all_satisfied == converged
            else:
                fluid_final = simulate(
                    result.implementation,
                    tightened,
                    duration=loop.duration,
                    dt=loop.dt,
                    traffic=workload,
                )
                agrees = fluid_final.all_satisfied == converged
                cross = pkt
        root_span.set("converged", converged)
        root_span.set("iterations", len(records))
        tracer.gauge("loop.margin", loop.margin)

    return TuneResult(
        converged=converged,
        margin=loop.margin,
        iterations=records,
        margins=margins,
        result=result,
        graph=tightened,
        cost=result.total_cost,
        latency=pkt.worst_mean_latency(),
        cross_check=cross,
        cross_check_agrees=agrees,
        failure=failure,
    )
