"""Exporters: CLI text summary, JSON metrics, Chrome trace events.

Three consumers of one :class:`~repro.obs.tracer.Tracer`:

- :func:`format_trace_summary` — the human-readable table behind the
  CLI's ``--trace-summary`` flag: spans aggregated by name with call
  counts and wall/CPU totals, then counters and gauges;
- :func:`metrics_dict` — the JSON-safe metrics block embedded in
  result summaries (:func:`repro.io.synthesis_result_to_dict`);
- :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (JSON Array-in-Object flavor) behind the CLI's
  ``--trace FILE`` flag, loadable in Perfetto or ``chrome://tracing``.
  Spans become complete (``"ph": "X"``) events, final counter totals
  become counter (``"ph": "C"``) events, and process/thread names are
  attached as metadata (``"ph": "M"``) events.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from .tracer import SpanRecord, Tracer

__all__ = [
    "metrics_dict",
    "span_aggregates",
    "format_trace_summary",
    "to_chrome_trace",
    "write_chrome_trace",
]


def span_aggregates(tracer: Tracer) -> List[Dict[str, Any]]:
    """Per-name span statistics: calls, wall/CPU totals, shallowest depth.

    Ordered by first appearance, which matches pipeline order closely
    enough to read top-down.
    """
    order: List[str] = []
    agg: Dict[str, Dict[str, Any]] = {}
    for rec in tracer.records:
        entry = agg.get(rec.name)
        if entry is None:
            order.append(rec.name)
            entry = {"name": rec.name, "count": 0, "wall_s": 0.0, "cpu_s": 0.0, "depth": rec.depth}
            agg[rec.name] = entry
        entry["count"] += 1
        entry["wall_s"] += rec.wall_s
        entry["cpu_s"] += rec.cpu_s
        entry["depth"] = min(entry["depth"], rec.depth)
    return [agg[name] for name in order]


def metrics_dict(tracer: Tracer) -> Dict[str, Any]:
    """JSON-safe metrics block for result summaries.

    ``counters`` carries the deterministic totals (identical across
    runs of the same input); ``local_counters`` the process-local/timing
    statistics (memo hit rates, LP wall time) excluded from that
    guarantee; ``spans`` the per-name aggregates.
    """
    return {
        "counters": dict(sorted(tracer.counters.items())),
        "local_counters": dict(sorted(tracer.local_counters.items())),
        "gauges": dict(sorted(tracer.gauges.items())),
        "spans": span_aggregates(tracer),
    }


def _format_number(value: Union[int, float]) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value)}"


def format_trace_summary(tracer: Tracer, title: str = "trace summary") -> str:
    """The ``--trace-summary`` text block: spans, counters, gauges."""
    lines: List[str] = []
    spans = span_aggregates(tracer)
    total_wall = max((s["wall_s"] for s in spans if s["depth"] == 0), default=0.0)
    lines.append(f"== {title} (wall {total_wall:.3f} s) ==")
    if spans:
        width = max(len("  " * s["depth"] + s["name"]) for s in spans)
        lines.append(f"{'span':<{width}}  {'calls':>7} {'wall ms':>10} {'cpu ms':>10}")
        for s in spans:
            label = "  " * s["depth"] + s["name"]
            lines.append(
                f"{label:<{width}}  {s['count']:>7} {s['wall_s'] * 1e3:>10.2f} "
                f"{s['cpu_s'] * 1e3:>10.2f}"
            )
    for title, values in (
        ("counters:", tracer.counters),
        ("local counters (process/timing dependent):", tracer.local_counters),
        ("gauges:", tracer.gauges),
    ):
        if values:
            lines.append(title)
            for name, value in sorted(values.items()):
                lines.append(f"  {name} = {_format_number(value)}")
    return "\n".join(lines)


def _span_event(rec: SpanRecord, epoch_ns: int) -> Dict[str, Any]:
    # Chrome trace timestamps are microseconds, clamped at 0.
    ts_us = max(0.0, (rec.start_ns - epoch_ns) / 1e3)
    return {
        "name": rec.name,
        "cat": rec.name.split(".", 1)[0],
        "ph": "X",
        "ts": ts_us,
        "dur": rec.wall_ns / 1e3,
        "pid": rec.pid,
        "tid": rec.tid,
        "args": dict(rec.args, cpu_ms=rec.cpu_ns / 1e6),
    }


def to_chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The tracer as a Chrome trace-event JSON object.

    Returns the JSON Array-in-Object flavor: ``{"traceEvents": [...],
    "displayTimeUnit": "ms"}`` — loadable in Perfetto and
    ``chrome://tracing`` and validated by
    :func:`repro.obs.validate_chrome_trace`.
    """
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "ts": 0, "pid": tracer.pid, "tid": 0,
         "args": {"name": tracer.label or "synthesis"}}
    ]

    end_ns = tracer.epoch_ns
    for rec in tracer.records:
        events.append(_span_event(rec, tracer.epoch_ns))
        end_ns = max(end_ns, rec.start_ns + rec.wall_ns)

    # Final counter totals as one counter event per series, stamped at
    # the end of the trace (counters are cumulative run totals).
    final_ts = max(0.0, (end_ns - tracer.epoch_ns) / 1e3)
    for values in (tracer.counters, tracer.local_counters):
        for name, value in sorted(values.items()):
            events.append(
                {"name": name, "ph": "C", "ts": final_ts, "pid": tracer.pid, "tid": 0,
                 "args": {"value": value}}
            )

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Union[str, Path], tracer: Tracer) -> None:
    """Serialize :func:`to_chrome_trace` to ``path`` (atomically)."""
    # Lazy import: repro.io.json_io imports repro.obs for metrics_dict.
    from ..io.atomic import atomic_write

    atomic_write(path, json.dumps(to_chrome_trace(tracer), indent=1, sort_keys=True))
