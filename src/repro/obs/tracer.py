"""The span tracer: hierarchical timing, counters and gauges.

One :class:`Tracer` collects everything observable about one synthesis
run:

- **spans** — nested wall + CPU time intervals opened with
  :meth:`Tracer.span` (a context manager) or the explicit
  :meth:`Tracer.begin` / :meth:`Tracer.end` pair.  Nesting is enforced:
  every exit must match the innermost open span of its thread, so a
  recorded trace is always well-formed.
- **counters** — named monotone accumulators (:meth:`Tracer.count`).
  Counters are *deterministic by contract*: every run on the same
  input accumulates identical totals, fresh or resumed from a
  checkpoint journal.  Statistics that are inherently process-local or
  timing-dependent — memo hit rates, LP wall time, pool recoveries —
  go through :meth:`Tracer.count_local` instead and are reported
  separately, outside the determinism guarantee.
- **gauges** — last-value-wins measurements (:meth:`Tracer.gauge`).

The *ambient* tracer (:func:`current_tracer` / :func:`tracing`) lets
deep call sites — pruning predicates, covering solvers, cache lookups —
report without threading a tracer argument through every signature.
The default is :data:`NULL_TRACER`, whose methods are no-ops, so
instrumentation costs one method call when tracing is disabled.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "ObsError",
    "SpanRecord",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TracerLike",
    "current_tracer",
    "tracing",
]


class ObsError(RuntimeError):
    """Misuse of the tracing API (mismatched span exits, bad values)."""


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.  Frozen and picklable.

    Timestamps are absolute ``time.perf_counter_ns()`` readings.
    ``args`` is a sorted tuple of ``(key, value)`` pairs for
    deterministic serialization.
    """

    name: str
    start_ns: int
    wall_ns: int
    cpu_ns: int
    pid: int
    tid: int
    depth: int
    args: Tuple[Tuple[str, Any], ...] = ()

    @property
    def wall_s(self) -> float:
        """Wall-clock duration in seconds."""
        return self.wall_ns / 1e9

    @property
    def cpu_s(self) -> float:
        """CPU (thread) time consumed in seconds."""
        return self.cpu_ns / 1e9


class Span:
    """An *open* span — the handle yielded by :meth:`Tracer.span`.

    ``set`` attaches result arguments discovered while the span runs
    (e.g. how many survivors an enumeration pass kept).
    """

    __slots__ = ("name", "_tracer", "_args", "_start_ns", "_cpu0_ns", "_depth")

    def __init__(self, name: str, tracer: "Tracer", args: Dict[str, Any], depth: int) -> None:
        self.name = name
        self._tracer = tracer
        self._args = args
        self._depth = depth
        self._start_ns = time.perf_counter_ns()
        self._cpu0_ns = time.thread_time_ns()

    def set(self, key: str, value: Any) -> None:
        """Attach/overwrite one result argument on the open span."""
        self._args[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._tracer.end(self)
        return False


class _NullSpan:
    """The do-nothing span handle of :class:`NullTracer`."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Live observability state for one run.  Thread-safe.

    Span stacks are per-thread (each thread nests independently);
    counter/gauge/record updates take one lock.  ``label`` names the
    tracer in exports.
    """

    enabled = True

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.pid = os.getpid()
        self.epoch_ns = time.perf_counter_ns()
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._counters: Dict[str, Union[int, float]] = {}
        self._local_counters: Dict[str, Union[int, float]] = {}
        self._gauges: Dict[str, float] = {}
        self._stacks = threading.local()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "spans", None)
        if stack is None:
            stack = []
            self._stacks.spans = stack
        return stack

    def begin(self, name: str, **args: Any) -> Span:
        """Open a span nested under the thread's innermost open span."""
        stack = self._stack()
        span = Span(name, self, dict(args), depth=len(stack))
        stack.append(span)
        return span

    def end(self, span: Union[Span, str]) -> SpanRecord:
        """Close the innermost open span; it must match ``span``.

        Accepts the :class:`Span` handle itself or its name.  A
        mismatch — ending a span that is not the innermost open one, or
        ending with nothing open — raises :class:`ObsError`, which is
        what keeps recorded traces well-formed by construction.
        """
        stack = self._stack()
        if not stack:
            raise ObsError(f"end({span if isinstance(span, str) else span.name!r}) with no open span")
        top = stack[-1]
        if isinstance(span, str):
            if top.name != span:
                raise ObsError(
                    f"span exit {span!r} does not match the innermost open span {top.name!r}"
                )
        elif span is not top:
            raise ObsError(
                f"span exit {span.name!r} does not match the innermost open span {top.name!r}"
            )
        stack.pop()
        now_ns = time.perf_counter_ns()
        record = SpanRecord(
            name=top.name,
            start_ns=top._start_ns,
            wall_ns=now_ns - top._start_ns,
            cpu_ns=time.thread_time_ns() - top._cpu0_ns,
            pid=self.pid,
            tid=threading.get_ident(),
            depth=top._depth,
            args=tuple(sorted(top._args.items())),
        )
        with self._lock:
            self._records.append(record)
        return record

    def span(self, name: str, **args: Any) -> Span:
        """Context manager form: ``with tracer.span("step") as s: ...``."""
        return self.begin(name, **args)

    def open_spans(self) -> List[str]:
        """Names of the current thread's open spans, outermost first."""
        return [s.name for s in self._stack()]

    # ------------------------------------------------------------------
    # counters and gauges
    # ------------------------------------------------------------------
    def count(self, name: str, value: Union[int, float] = 1) -> None:
        """Add ``value`` (>= 0) to the deterministic counter ``name``.

        Counters are monotone: a negative increment raises
        :class:`ObsError`.  Only put quantities here that are identical
        across every run of the same input — search nodes, pruning
        verdicts, plans built.  Timing- or process-dependent statistics
        belong in :meth:`count_local`.
        """
        if value < 0:
            raise ObsError(f"counter {name!r}: negative increment {value} (counters are monotone)")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def count_local(self, name: str, value: Union[int, float] = 1) -> None:
        """Add ``value`` (>= 0) to the *process-local* counter ``name``.

        Same monotonicity contract as :meth:`count`, but these totals
        are excluded from the determinism guarantee: cache hit rates,
        solver wall-time accumulators and pool recoveries legitimately
        vary with cache state, process layout and machine load.
        """
        if value < 0:
            raise ObsError(f"counter {name!r}: negative increment {value} (counters are monotone)")
        with self._lock:
            self._local_counters[name] = self._local_counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time measurement (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    # ------------------------------------------------------------------
    # reads (copies, taken under the lock)
    # ------------------------------------------------------------------
    @property
    def counters(self) -> Dict[str, Union[int, float]]:
        """Deterministic counter totals."""
        with self._lock:
            return dict(self._counters)

    @property
    def local_counters(self) -> Dict[str, Union[int, float]]:
        """Process-local counter totals."""
        with self._lock:
            return dict(self._local_counters)

    @property
    def gauges(self) -> Dict[str, float]:
        """Last value of every gauge."""
        with self._lock:
            return dict(self._gauges)

    @property
    def records(self) -> List[SpanRecord]:
        """All finished spans, in the order they closed."""
        with self._lock:
            return list(self._records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(label={self.label!r}, spans={len(self._records)}, "
            f"counters={len(self._counters)})"
        )


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    A single shared instance (:data:`NULL_TRACER`) is the ambient
    default, so un-traced runs pay one attribute lookup and one no-op
    call per instrumentation point — nothing is allocated or locked.
    """

    enabled = False
    label = ""

    def begin(self, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def end(self, span: Union[Span, str, _NullSpan]) -> None:
        return None

    def span(self, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def open_spans(self) -> List[str]:
        return []

    def count(self, name: str, value: Union[int, float] = 1) -> None:
        pass

    def count_local(self, name: str, value: Union[int, float] = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    counters: Dict[str, Union[int, float]] = {}
    local_counters: Dict[str, Union[int, float]] = {}
    gauges: Dict[str, float] = {}
    records: List[SpanRecord] = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: the shared disabled tracer — the ambient default.
NULL_TRACER = NullTracer()

TracerLike = Union[Tracer, NullTracer]

_CURRENT: ContextVar[TracerLike] = ContextVar("repro_obs_tracer", default=NULL_TRACER)


def current_tracer() -> TracerLike:
    """The ambient tracer (:data:`NULL_TRACER` unless inside :func:`tracing`)."""
    return _CURRENT.get()


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Activate ``tracer`` (a fresh one if None) as the ambient tracer.

    Every instrumentation point in the pipeline reports to the ambient
    tracer, so wrapping any entry point — :func:`repro.synthesize`,
    :func:`repro.generate_candidates`, a covering solver — in this
    context makes it observable without signature changes::

        with tracing() as t:
            solve_cover(problem)
        print(t.counters["covering.bnb.nodes"])
    """
    active = tracer if tracer is not None else Tracer()
    token = _CURRENT.set(active)
    try:
        yield active
    finally:
        _CURRENT.reset(token)
