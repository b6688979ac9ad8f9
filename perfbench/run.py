"""Run one workload of the synthesis benchmark and print its metrics.

    python3 perfbench/run.py --workload decompose300 --seed 42 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off: set-up
is repeated and timed, then passes over the workload's corpus repeat
until they add up to ``--seconds``; ``wall_s`` is their mean, the
timed phase per pass.  ``--trace 1``
runs one untraced pass, one serial untraced pass when the workload
normally runs on a pool, and one serial pass with every layer wrapped
(see ``layers.py``), and reports the per-layer metrics.

Every solve is checked for correctness after its pass, outside the
timed phase (``check.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, generator parameters, sample counts, guards, failures)
is written as JSON under ``.perfbench/records/`` or ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from layers import LayerTrace, layer_metrics, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = "perfbench-record/1"

#: set-up runs per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: ``(name, unit)`` of every end-to-end metric, as in BENCHMARK.json.
E2E = (
    ("wall_s", "s"),
    ("synth_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cost_ratio", "1"),
)

#: structural guards: counts that must hold for a workload to still
#: stress the layer it was chosen for.
GUARDS = {
    "decompose300": (("ilp.calls", ">=", 1),),
    "batch-warm": (("placement.solves", "==", 0), ("cache.misses", "==", 0), ("cache.hits", ">", 0)),
}

_IMPORT_PROBE = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("decompose300", "batch-warm"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "records")
    return parser.parse_args(argv)


def _import_seconds() -> float:
    """Time the program's import in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> Dict[str, Any]:
    import numpy
    import scipy

    try:
        from repro.kernels import current_kernels
    except ImportError:
        backend = "none"
    else:
        backend = current_kernels().name
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "kernel_backend": backend,
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _guards(workload: str, values: Dict[str, Optional[float]]) -> Dict[str, bool]:
    out = {}
    for name, op, bound in GUARDS[workload]:
        if name not in values:
            continue
        value = values[name]
        ok = value is not None and {
            "==": value == bound, ">=": value >= bound, ">": value > bound,
        }[op]
        out[f"{name} {op} {bound}"] = ok
    return out


def _e2e(passes, setup_samples, peak_rss_mb) -> Dict[str, Dict[str, Any]]:
    latencies = [o.latency_s for p in passes for o in p.outcomes if o.error is None]
    solved = [o for o in passes[0].outcomes if o.error is None]
    p2p = sum(o.p2p_cost for o in solved)
    values = {
        "wall_s": (statistics.fmean(p.wall_s for p in passes), len(passes)),
        "synth_s.p50": (statistics.median(latencies) if latencies else None, len(latencies)),
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "cost_ratio": (sum(o.cost for o in solved) / p2p if p2p else None, len(solved)),
    }
    return {
        name: {"value": values[name][0], "unit": unit, "samples": values[name][1]}
        for name, unit in E2E
    }


def _p90(passes) -> Dict[str, Any]:
    """``synth_s.p90`` with its sample count; only where at least ten
    samples lie beyond it."""
    latencies = sorted(o.latency_s for p in passes for o in p.outcomes if o.error is None)
    if len(latencies) < 100:
        return {}
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    beyond = sum(1 for x in latencies if x > p90)
    return {"synth_s.p90": {"value": p90, "unit": "s", "samples": len(latencies), "beyond": beyond}}


def _traced(workload, state) -> Tuple[List[Any], Dict[str, Optional[float]], Dict[str, str]]:
    """The ``--trace 1`` passes and the per-layer metrics they give."""
    untraced = workload.run_pass(state)
    serial = workload.run_pass(state, serial=True) if untraced.jobs > 1 else untraced
    with LayerTrace() as trace:
        traced = workload.run_pass(state, serial=True)
    extra = {"trace_overhead": trace.wall_s / serial.wall_s - 1.0}
    if untraced.summary is not None:
        summary = untraced.summary
        solve_s = sum(r["elapsed_s"] for r in summary.records)
        extra.update({
            "cache.hits": summary.cache.get("hits", 0),
            "cache.misses": summary.cache.get("misses", 0),
            "cache.entries_loaded": summary.cache.get("entries_loaded", 0),
            "cache.corrupt_discarded": summary.cache.get("corrupt_discarded", 0),
            "batch.solve_s": solve_s,
            "batch.pool_wait_s": untraced.wall_s - solve_s / untraced.jobs,
            "batch.worker_recoveries": summary.worker_recoveries,
        })
    passes = [untraced, traced] if serial is untraced else [untraced, serial, traced]
    return passes, layer_metrics(trace, workload.name, extra), trace.missing(workload.name)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, reap_children

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    checks: List[Tuple[int, int, List[str]]] = []
    try:
        builds = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(args.seed, work / f"setup{rep}")
            builds.append(time.perf_counter() - t0)

        layers: Dict[str, Optional[float]] = {}
        missing: Dict[str, str] = {}
        if args.trace:
            passes, layers, missing = _traced(workload, state)
            checks = [workload.check(state, p) for p in passes]
        else:
            passes = []
            while not passes or sum(p.wall_s for p in passes) < args.seconds:
                passes.append(workload.run_pass(state))
                # checked at once, so a pass's results are released
                # before the next pass and memory does not grow with passes
                checks.append(workload.check(state, passes[-1]))
        reap_children()
        peak_rss_mb = _peak_rss_mb()
        setup_samples = [_import_seconds() + b for b in builds]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c[0] for c in checks)
    failed = sum(c[1] for c in checks)
    failures = [line for c in checks for line in c[2]]
    untraced = passes[:1] if args.trace else passes
    e2e = _e2e(untraced, setup_samples, peak_rss_mb)
    e2e.update(_p90(untraced))
    e2e["failed_frac"] = {"value": failed / attempted, "unit": "1", "samples": attempted}
    guard_values = dict(layers)
    if passes[0].summary is not None:
        guard_values["cache.hits"] = passes[0].summary.cache.get("hits", 0)
        guard_values["cache.misses"] = passes[0].summary.cache.get("misses", 0)
    guards = _guards(workload.name, guard_values)
    correct = failed == 0 and all(guards.values())

    record = {
        "schema": SCHEMA,
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_params": workload.describe(),
        "environment": _environment(),
        "passes": [{"wall_s": p.wall_s, "jobs": p.jobs, "instances": len(p.outcomes)} for p in passes],
        "e2e": e2e,
        "layers": {
            name: {"value": layers.get(name), "unit": unit}
            for name, unit, _ in per_layer_metrics()
        } if args.trace else {},
        "missing": missing,
        "guards": guards,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"perfbench {workload.name}  seed={args.seed}  trace={args.trace}  "
          f"passes={len(passes)}  nproc={record['environment']['nproc']}")
    for name, metric in e2e.items():
        print(f"  {name:<24} {_fmt(metric['value'])} {metric['unit']:<5} n={metric['samples']}")
    for name, metric in record["layers"].items():
        print(f"  {name:<24} {_fmt(metric['value'])} {metric['unit']}")
    for layer, reason in missing.items():
        print(f"  MISSING {layer}: {reason}")
    for guard, ok in guards.items():
        print(f"  guard {guard}: {'ok' if ok else 'FAILED'}")
    for line in failures[:5]:
        print(f"  FAILED {line}")
    print(f"  record: {path}")

    if args.trace:
        metrics = record["layers"]
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": unit} for name, unit in E2E}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if all(guards.values()) else 1


def _fmt(value: Optional[float]) -> str:
    return f"{'missing':>14}" if value is None else f"{value:14.6g}"


if __name__ == "__main__":
    sys.exit(main())
