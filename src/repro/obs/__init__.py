"""repro.obs — structured observability for the synthesis pipeline.

A hierarchical span tracer (wall + CPU time, nestable, thread-safe)
plus named counters and gauges, threaded through candidate
generation, the covering solvers and the supervised runtime; exporters for a human-readable text
summary, JSON metrics, and the Chrome trace-event format
(Perfetto / ``chrome://tracing``).

Quickstart::

    from repro import synthesize
    from repro.domains import wan_example
    from repro.obs import format_trace_summary, write_chrome_trace

    graph, library = wan_example()
    result = synthesize(graph, library, trace=True)
    print(format_trace_summary(result.trace))
    write_chrome_trace("trace.json", result.trace)

Design contract:

- **zero-cost when disabled** — the ambient default is
  :data:`NULL_TRACER`; every instrumentation point is one no-op call;
- **deterministic counters** — every run on the same input, fresh or
  resumed from a journal, accumulates identical :attr:`Tracer.counters`
  totals; process-local statistics (memo hit rates, LP wall time, pool
  recoveries) live in :attr:`Tracer.local_counters` instead;
- **well-formed spans** — every span exit must match the innermost
  open span of its thread, enforced at runtime.
"""

from .chrome import validate_chrome_trace  # noqa: F401
from .export import (  # noqa: F401
    format_trace_summary,
    metrics_dict,
    span_aggregates,
    to_chrome_trace,
    write_chrome_trace,
)
from .tracer import (  # noqa: F401
    NULL_TRACER,
    NullTracer,
    ObsError,
    Span,
    SpanRecord,
    Tracer,
    TracerLike,
    current_tracer,
    tracing,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "ObsError",
    "Span",
    "SpanRecord",
    "Tracer",
    "TracerLike",
    "current_tracer",
    "tracing",
    "format_trace_summary",
    "metrics_dict",
    "span_aggregates",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]
