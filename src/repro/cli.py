"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``synthesize INSTANCE.json``
    Run the exact synthesis on a JSON instance (written by
    :func:`repro.io.save_instance` or by hand) and print the report.
    ``--out`` writes a JSON result summary, ``--svg`` the architecture
    drawing, ``--dot`` the Graphviz export.

``demo {wan,mpeg4,lan,soc}``
    Build one of the bundled domain instances; ``--save`` writes it as
    a JSON instance file, otherwise it is synthesized and reported.

``tables``
    Print the paper's Tables 1 and 2 (the WAN example's Γ and Δ).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import Budget, PruningLevel, SynthesisOptions, compute_matrices, synthesize
from .core.synthesis import STRATEGIES
from .analysis import (
    format_delta_table,
    format_gamma_table,
    render_implementation_svg,
    synthesis_report,
)
from .core.exceptions import (
    BatchError,
    BudgetExceeded,
    CheckpointError,
    InfeasibleError,
    InstanceFormatError,
    ValidationError,
)
from .io import (
    atomic_write,
    implementation_to_dot,
    load_instance,
    save_instance,
    synthesis_result_to_dict,
)

__all__ = [
    "main",
    "build_parser",
    "EXIT_INFEASIBLE",
    "EXIT_BUDGET_EXCEEDED",
    "EXIT_VALIDATION_FAILURE",
    "EXIT_BAD_INSTANCE",
    "EXIT_CHECKPOINT_INCOMPATIBLE",
]

_DEMOS = ("wan", "mpeg4", "lan", "soc", "collective")

#: exit-code taxonomy (also in every subcommand's --help epilog):
#: 0 = success, 1 = runtime failure, 2 = infeasible instance (or a
#: usage error, per argparse convention), 3 = budget exceeded before a
#: servable result, 4 = Definition 2.4 validation failure, 5 = malformed
#: instance file, 6 = checkpoint journal incompatible with the instance.
EXIT_INFEASIBLE = 2
EXIT_BUDGET_EXCEEDED = 3
EXIT_VALIDATION_FAILURE = 4
EXIT_BAD_INSTANCE = 5
EXIT_CHECKPOINT_INCOMPATIBLE = 6

_EXIT_CODES_EPILOG = (
    "exit codes: 0 success; 1 unexpected failure; 2 infeasible instance; "
    "3 budget exceeded before any servable result "
    "(see --deadline / --on-budget-exhausted); 4 validation failure; "
    "5 malformed instance file (the diagnostic names the offending "
    "field) or unusable batch invocation (--resume over a missing "
    "results stream, a bad --queue directory); 6 checkpoint journal "
    "incompatible with the instance (see --checkpoint / --resume)"
)


def _nonnegative_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """Deadlines: a zero-second budget is always a usage error — it
    would expire at the first checkpoint and serve nothing — so reject
    it at the parser (exit 2) instead of failing downstream."""
    value = _nonnegative_seconds(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be a positive number of seconds, got 0")
    return value


def _positive_int(text: str) -> int:
    """Counts and sizes (workers, queue limits, merge arity): zero or a
    negative value is a usage error (exit 2), never a silent default."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for --help tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constraint-driven communication synthesis (DAC 2002).",
        epilog=_EXIT_CODES_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    syn = sub.add_parser(
        "synthesize", help="synthesize a JSON instance", epilog=_EXIT_CODES_EPILOG
    )
    syn.add_argument("instance", help="instance file from repro.io.save_instance")
    syn.add_argument("--max-arity", type=_positive_int, default=None, help="cap merge size K")
    syn.add_argument(
        "--pruning",
        choices=[l.value for l in PruningLevel],
        default=PruningLevel.LEMMAS.value,
        help="candidate pruning level (default: lemmas)",
    )
    syn.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="auto",
        help="scaling strategy: 'exact' enumerates all K-way subsets, "
        "'decompose' partitions into certified clusters; 'auto' (default) "
        "picks by instance size and stays exact at paper scale",
    )
    syn.add_argument(
        "--exact",
        action="store_const",
        const="exact",
        dest="strategy",
        help="shorthand for --strategy exact (exhaustive enumeration)",
    )
    syn.add_argument(
        "--demand-margin",
        type=_nonnegative_seconds,
        default=0.0,
        metavar="M",
        help="uniform static headroom: synthesize as if every bandwidth "
        "were (1+M) times larger (default 0; see 'repro tune' for the "
        "feedback-driven selective version)",
    )
    syn.add_argument("--no-validate", action="store_true", help="skip Def. 2.4 validation")
    syn.add_argument(
        "--deadline",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; the run becomes supervised (anytime "
        "fallback chain bnb -> ilp -> greedy) and reports result quality",
    )
    syn.add_argument(
        "--on-budget-exhausted",
        choices=("fail", "degrade"),
        default="degrade",
        help="when the --deadline budget runs out: 'degrade' (default) "
        "serves the best incumbent with a quality tag; 'fail' exits 3",
    )
    syn.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="record completed work units in a crash-tolerant journal at "
        "FILE; if the process is killed, rerunning with --resume picks "
        "up where it left off with an identical result",
    )
    syn.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint: resume from an existing journal "
        "(missing file = fresh start; a journal from a different "
        "instance exits 6; a corrupted tail is discarded with a notice)",
    )
    syn.add_argument(
        "--cache",
        metavar="DIR",
        help="persistent cross-run cache directory: derived results "
        "(point-to-point plans, merging placements) are reused across "
        "runs over the same library (see repro.core.cache)",
    )
    syn.add_argument("--out", help="write a JSON result summary here")
    syn.add_argument("--svg", help="write an SVG drawing of the architecture here")
    syn.add_argument("--dot", help="write a Graphviz DOT export here")
    syn.add_argument("--quiet", action="store_true", help="suppress the text report")
    syn.add_argument(
        "--trace",
        metavar="FILE",
        help="record pipeline spans/counters and write a Chrome trace-event "
        "JSON here (open in Perfetto or chrome://tracing); also embeds a "
        "'metrics' block in the --out summary",
    )
    syn.add_argument(
        "--trace-summary",
        action="store_true",
        help="record pipeline spans/counters and print a text summary "
        "(spans with wall/CPU time, counters, gauges)",
    )

    demo = sub.add_parser("demo", help="build/synthesize a bundled domain instance")
    demo.add_argument("name", choices=_DEMOS)
    demo.add_argument("--save", help="write the instance JSON here instead of synthesizing")
    demo.add_argument("--max-arity", type=_positive_int, default=None)
    demo.add_argument("--trace", metavar="FILE",
                      help="write a Chrome trace-event JSON of the run here")
    demo.add_argument("--trace-summary", action="store_true",
                      help="print a text summary of pipeline spans/counters")

    bat = sub.add_parser(
        "batch",
        help="synthesize a corpus of instances (directory, manifest, or "
        "single file) with a shared persistent cache and a resumable "
        "JSON-lines result stream",
        epilog=_EXIT_CODES_EPILOG,
    )
    bat.add_argument(
        "corpus",
        help="directory of instance JSONs, a JSON manifest listing paths, "
        "or a single instance file",
    )
    bat.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker processes, one instance each (default: in-process serial)",
    )
    bat.add_argument(
        "--cache", metavar="DIR",
        help="shared persistent cache directory; repeated batches over "
        "the same library skip recomputation (see repro.core.cache)",
    )
    bat.add_argument(
        "--deadline-per-instance", type=_positive_seconds, default=None,
        metavar="SECONDS",
        help="wall-clock budget per instance; slow instances degrade "
        "(anytime fallback) instead of stalling the batch",
    )
    bat.add_argument(
        "--results", metavar="FILE", default="batch_results.jsonl",
        help="JSON-lines result stream, one CRC-tagged record per "
        "instance (default: %(default)s)",
    )
    bat.add_argument(
        "--resume", action="store_true",
        help="skip instances already solved in an existing --results "
        "stream (same file bytes, same options); a killed batch "
        "restarted with --resume never re-solves finished instances",
    )
    bat.add_argument(
        "--fsync-results", action="store_true",
        help="fsync every appended result record so records survive "
        "whole-host crash, not just process death (default: off — "
        "flush-only, the single-host throughput posture)",
    )
    bat.add_argument(
        "--queue", metavar="DIR",
        help="run the batch through a multi-host work queue at this "
        "shared directory (NFS or any shared mount): this process "
        "participates as one host (plus --jobs-1 extra local workers) "
        "and any number of `repro batch-worker DIR` hosts may join; "
        "leases, fencing tokens, and CRC streams make host death and "
        "zombie writers safe (see docs/USAGE.md §17)",
    )
    bat.add_argument(
        "--lease-ttl", type=_positive_seconds, default=30.0, metavar="SECONDS",
        help="queue lease liveness horizon: a shard whose holder stops "
        "heartbeating this long is taken over; choose it well above the "
        "fleet's worst clock skew (default: %(default)s)",
    )
    bat.add_argument(
        "--shard-size", type=_positive_int, default=1, metavar="N",
        help="instances per queue shard; smaller shards lose less work "
        "to a takeover, larger ones lease less often (default: %(default)s)",
    )
    bat.add_argument("--summary", metavar="FILE",
                     help="write the aggregate JSON summary here")
    bat.add_argument("--max-arity", type=_positive_int, default=None, help="cap merge size K")
    bat.add_argument(
        "--pruning",
        choices=[l.value for l in PruningLevel],
        default=PruningLevel.LEMMAS.value,
    )
    bat.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="auto",
        help="scaling strategy per instance (see synthesize --strategy; "
        "default: auto)",
    )
    bat.add_argument("--quiet", action="store_true",
                     help="suppress per-instance progress and the summary table")

    wrk = sub.add_parser(
        "batch-worker",
        help="join an enqueued multi-host batch as one worker host: "
        "lease shards from the shared queue directory, solve, stream "
        "CRC-tagged records, and exit when every shard is done "
        "(run `repro batch CORPUS --queue DIR` on any host first)",
        epilog=_EXIT_CODES_EPILOG,
    )
    wrk.add_argument(
        "queue",
        help="the shared queue directory an enqueueing host created",
    )
    wrk.add_argument(
        "--host-id", default=None, metavar="NAME",
        help="this worker's identity in lease/heartbeat/result records "
        "(default: hostname-pid)",
    )
    wrk.add_argument(
        "--max-shards", type=_positive_int, default=None, metavar="N",
        help="exit after completing this many shards (default: work "
        "until the whole queue is done)",
    )
    wrk.add_argument("--quiet", action="store_true",
                     help="suppress per-instance progress")

    srv = sub.add_parser(
        "serve",
        help="run the synthesis service: an HTTP/JSON server with "
        "bounded-queue admission control, per-client fair scheduling, "
        "per-request deadlines that degrade instead of failing, a shared "
        "persistent cache, and graceful drain on SIGTERM/SIGINT "
        "(see docs/USAGE.md §14)",
        epilog="endpoints: GET /v1/health, GET /v1/stats, POST /v1/synthesize. "
        "Overload is shed with 429 + Retry-After; SIGTERM drains gracefully.",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    srv.add_argument("--port", type=int, default=8349,
                     help="TCP port; 0 picks an ephemeral port and prints it "
                     "(default: %(default)s)")
    srv.add_argument("--workers", type=_positive_int, default=2, metavar="N",
                     help="solver worker processes = concurrent solves "
                     "(default: %(default)s)")
    srv.add_argument("--queue-limit", type=_positive_int, default=64, metavar="N",
                     help="admission bound on queued requests; beyond it "
                     "submissions are shed with 429 + Retry-After "
                     "(default: %(default)s)")
    srv.add_argument("--queue-limit-per-client", type=_positive_int, default=None,
                     metavar="N",
                     help="per-client queue bound (default: the global bound)")
    srv.add_argument("--default-deadline", type=_positive_seconds, default=None,
                     metavar="SECONDS",
                     help="budget applied to requests that send no deadline_s")
    srv.add_argument("--max-deadline", type=_positive_seconds, default=None,
                     metavar="SECONDS",
                     help="hard cap on client-requested deadlines")
    srv.add_argument("--cache", metavar="DIR",
                     help="persistent cache directory shared by every worker; "
                     "repeat traffic over a library is served warm")
    srv.add_argument("--results", metavar="FILE",
                     help="append every served record (CRC-tagged JSON line) here")
    srv.add_argument("--spool", metavar="DIR",
                     help="scratch directory for spooled instances "
                     "(default: a private temp dir)")
    srv.add_argument("--drain-grace", type=_nonnegative_seconds, default=30.0,
                     metavar="SECONDS",
                     help="seconds granted to queued + in-flight work after "
                     "SIGTERM/SIGINT before the remainder is failed out "
                     "(default: %(default)s)")

    sub.add_parser("tables", help="print the paper's Tables 1 and 2 (WAN Γ and Δ)")

    lid = sub.add_parser(
        "lid",
        help="latency-insensitive analysis: classify repeaters as buffers "
        "vs relay stations across a clock-reach sweep (paper §5 extension)",
    )
    lid.add_argument("instance", help="instance file (Manhattan/on-chip style)")
    lid.add_argument(
        "--l-clock",
        type=float,
        nargs="+",
        default=[10.0, 5.0, 3.0, 2.0, 1.2],
        help="one-cycle wire reach values to sweep (graph length units)",
    )
    lid.add_argument("--c-buffer", type=float, default=1.0)
    lid.add_argument("--c-relay", type=float, default=8.0)
    lid.add_argument("--max-arity", type=_positive_int, default=4)

    sim = sub.add_parser(
        "simulate",
        help="synthesize an instance, then fluid-simulate the result at "
        "one or more demand scales (dynamic bandwidth validation)",
    )
    sim.add_argument("instance")
    sim.add_argument("--scale", type=float, nargs="+", default=[1.0],
                     help="demand multipliers to probe (default: 1.0)")
    sim.add_argument("--duration", type=float, default=100.0)
    sim.add_argument("--max-arity", type=_positive_int, default=4)

    par = sub.add_parser(
        "pareto",
        help="sweep a latency (hop) budget and print/plot the cost vs "
        "worst-case-hops Pareto frontier",
    )
    par.add_argument("instance")
    par.add_argument("--budgets", type=int, nargs="+", default=[0, 2, 4, 8],
                     help="hop budgets to sweep (an unconstrained point is always added)")
    par.add_argument("--max-arity", type=_positive_int, default=4)
    par.add_argument("--svg", help="write the frontier chart here")

    tun = sub.add_parser(
        "tune",
        help="closed-loop traffic-aware synthesis: synthesize, simulate "
        "the margin workload, tighten congested channels, repeat to "
        "convergence; --margin-sweep emits the cost x simulated-latency "
        "Pareto front (exit 1 when the loop fails to converge)",
        epilog=_EXIT_CODES_EPILOG,
    )
    tun.add_argument("instance", help="instance file from repro.io.save_instance")
    tun.add_argument(
        "--margin",
        type=_nonnegative_seconds,
        default=0.2,
        metavar="M",
        help="overload headroom to sustain: the workload is simulated at "
        "(1+M) times the nominal rates (default 0.2)",
    )
    tun.add_argument(
        "--margin-sweep",
        type=_nonnegative_seconds,
        nargs="+",
        default=None,
        metavar="M",
        help="run the loop once per margin and report the dominance-free "
        "cost x latency front over the converged points",
    )
    tun.add_argument(
        "--sim",
        choices=("fluid", "packets"),
        default="fluid",
        help="verdict engine inside the loop (default fluid; the packet "
        "engine always cross-checks the final design)",
    )
    tun.add_argument("--duration", type=float, default=200.0,
                     help="fluid simulation horizon in time units (default 200)")
    tun.add_argument("--max-iterations", type=int, default=8)
    tun.add_argument("--max-arity", type=_positive_int, default=None, help="cap merge size K")
    tun.add_argument("--strategy", choices=STRATEGIES, default="auto")
    tun.add_argument("--out", help="write the tune/sweep JSON here "
                     "(run-invariant: identical runs are byte-identical)")
    tun.add_argument(
        "--export-instance",
        metavar="FILE",
        help="single-margin mode: write the converged tightened instance "
        "as a JSON instance file (the shippable design point)",
    )
    tun.add_argument("--quiet", action="store_true", help="suppress the text report")
    tun.add_argument("--trace", metavar="FILE",
                     help="write a Chrome trace-event JSON of the loop here")
    tun.add_argument("--trace-summary", action="store_true",
                     help="print a text summary of loop spans/counters")
    return parser


def _demo_instance(name: str):
    from .domains import (
        collective_allgather_example,
        lan_example,
        mpeg4_example,
        soc_example,
        wan_example,
    )
    from .domains.mpeg4 import MPEG4_MAX_ARITY

    builders = {
        "wan": (wan_example, None),
        "mpeg4": (mpeg4_example, MPEG4_MAX_ARITY),
        "lan": (lan_example, 3),
        "soc": (soc_example, 3),
        "collective": (collective_allgather_example, 4),
    }
    builder, default_arity = builders[name]
    graph, library = builder()
    return graph, library, default_arity


def _report_checkpoint_tail(args: argparse.Namespace, graph, library, options) -> None:
    """Print a one-line notice when a resumed journal has a corrupted tail.

    Opening with ``resume`` discards (truncates) the tail, so the
    synthesis that follows resumes over valid records only.  Fingerprint
    mismatches surface here too — before any work is spent.
    """
    from pathlib import Path

    from .runtime.checkpoint import CheckpointJournal, instance_fingerprint

    if not Path(args.checkpoint).exists():
        return
    peek = CheckpointJournal.open(
        args.checkpoint, instance_fingerprint(graph, library, options), resume=True
    )
    try:
        if peek.tail_report is not None:
            # a diagnostic, not part of the report: stderr, even --quiet
            print(f"checkpoint: {peek.tail_report}", file=sys.stderr)
    finally:
        peek.close()


def _cmd_synthesize(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint FILE", file=sys.stderr)
        return 2  # argparse usage-error convention
    graph, library = load_instance(args.instance)
    options = SynthesisOptions(
        pruning=PruningLevel(args.pruning),
        max_arity=args.max_arity,
        validate_result=not args.no_validate,
        on_budget_exhausted=args.on_budget_exhausted,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        strategy=args.strategy,
        demand_margin=args.demand_margin,
    )
    if args.resume:
        _report_checkpoint_tail(args, graph, library, options)
    budget = Budget(deadline_s=args.deadline) if args.deadline is not None else None
    trace = bool(args.trace or args.trace_summary)
    if args.cache:
        from .core.cache import PersistentCache, persistent_cache

        with persistent_cache(PersistentCache(args.cache)) as store:
            result = synthesize(graph, library, options, budget=budget, trace=trace)
        if not args.quiet:
            stats = store.stats
            print(f"cache: {stats.hits} hits, {stats.misses} misses, "
                  f"{stats.writes} writes ({args.cache})")
    else:
        result = synthesize(graph, library, options, budget=budget, trace=trace)
    if not args.quiet:
        print(synthesis_report(result, title=f"Synthesis of {args.instance}"))
        if result.degradation is not None:
            print(f"runtime: {result.degradation.summary()}")
        if result.decomposition is not None:
            d = result.decomposition
            gap = "n/a" if d.gap_bound is None else f"{d.gap_bound:.6g}"
            print(f"strategy: {d.strategy} clusters={d.n_clusters} "
                  f"gap_bound={gap} certified={d.certified}")
    _emit_trace(args, result)
    if args.out:
        atomic_write(
            args.out,
            json.dumps(synthesis_result_to_dict(result), indent=2, sort_keys=True),
        )
        print(f"result summary written to {args.out}")
    if args.svg:
        atomic_write(args.svg, render_implementation_svg(result.implementation))
        print(f"SVG written to {args.svg}")
    if args.dot:
        atomic_write(args.dot, implementation_to_dot(result.implementation))
        print(f"DOT written to {args.dot}")
    return 0


def _emit_trace(args: argparse.Namespace, result) -> None:
    """Honour --trace / --trace-summary on a finished result."""
    if result.trace is None:
        return
    if args.trace_summary:
        from .obs import format_trace_summary

        print(format_trace_summary(result.trace))
    if args.trace:
        from .obs import write_chrome_trace

        write_chrome_trace(args.trace, result.trace)
        print(f"Chrome trace written to {args.trace} (open in Perfetto)")


def _cmd_demo(args: argparse.Namespace) -> int:
    graph, library, default_arity = _demo_instance(args.name)
    if args.save:
        save_instance(args.save, graph, library)
        print(f"instance '{args.name}' written to {args.save}")
        return 0
    max_arity = default_arity if args.max_arity is None else args.max_arity
    options = SynthesisOptions(max_arity=max_arity)
    trace = bool(args.trace or args.trace_summary)
    result = synthesize(graph, library, options, trace=trace)
    print(synthesis_report(result, title=f"Demo: {args.name}"))
    _emit_trace(args, result)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .batch import discover_corpus, run_batch

    corpus = discover_corpus(args.corpus)
    options = SynthesisOptions(
        pruning=PruningLevel(args.pruning),
        max_arity=args.max_arity,
        on_budget_exhausted="degrade",
        strategy=args.strategy,
    )
    if not args.quiet:
        print(f"batch: {len(corpus)} instances from {args.corpus}")
    summary = run_batch(
        corpus,
        options=options,
        jobs=args.jobs,
        cache_dir=args.cache,
        deadline_per_instance=args.deadline_per_instance,
        results_path=args.results,
        resume=args.resume,
        progress=None if args.quiet else sys.stderr,
        fsync_results=args.fsync_results,
        queue_dir=args.queue,
        lease_ttl_s=args.lease_ttl,
        shard_size=args.shard_size,
    )
    if not args.quiet:
        print(f"batch: {summary.completed} completed ({summary.degraded} degraded), "
              f"{summary.failed} failed, {summary.skipped} skipped "
              f"in {summary.elapsed_s:.2f}s")
        if summary.cache:
            print(f"cache: {summary.cache.get('hits', 0)} hits, "
                  f"{summary.cache.get('misses', 0)} misses, "
                  f"{summary.cache.get('writes', 0)} writes")
        if args.queue:
            print(f"queue: {summary.leases_acquired} leases, "
                  f"{summary.leases_expired} expired, "
                  f"{summary.takeovers} takeovers, "
                  f"{summary.fenced_writes} fenced writes")
        print(f"results stream: {args.results}")
    if args.summary:
        atomic_write(args.summary, json.dumps(summary.to_dict(), indent=2, sort_keys=True))
        if not args.quiet:
            print(f"summary written to {args.summary}")
    return 0 if summary.ok else 1


def _cmd_batch_worker(args: argparse.Namespace) -> int:
    from .batch.queue import QueueWorker

    worker = QueueWorker(
        args.queue,
        host_id=args.host_id,
        max_shards=args.max_shards,
        exit_on_death=True,
        progress=None if args.quiet else sys.stderr,
    )
    report = worker.run()
    if not args.quiet:
        print(f"worker {report.host_id}: {report.shards_completed} shards, "
              f"{report.instances_solved} solved, "
              f"{report.instances_inherited} inherited, "
              f"{report.takeovers} takeovers, {report.fenced} fenced")
    return 0


def _cmd_tables(_args: argparse.Namespace) -> int:
    from .domains import wan_constraint_graph

    matrices = compute_matrices(wan_constraint_graph())
    print("Table 1 — Γ(a_i, a_j) = d(a_i) + d(a_j) [km]")
    print(format_gamma_table(matrices))
    print()
    print("Table 2 — Δ(a_i, a_j) = ||p(u)-p(u')|| + ||p(v)-p(v')|| [km]")
    print(format_delta_table(matrices))
    return 0


def _cmd_lid(args: argparse.Namespace) -> int:
    from .domains.lid import classify_repeaters

    graph, library = load_instance(args.instance)
    result = synthesize(
        graph, library, SynthesisOptions(max_arity=args.max_arity, validate_result=False)
    )
    print(f"synthesized {args.instance}: cost {result.total_cost:,.4g}, "
          f"{len(result.implementation.communication_vertices)} communication nodes")
    print()
    print(f"{'l_clock':>9} {'buffers':>8} {'relays':>7} {'violations':>11} {'weighted cost':>14}")
    for l_clock in args.l_clock:
        c = classify_repeaters(result.implementation, l_clock)
        cost = c.buffer_count * args.c_buffer + c.relay_count * args.c_relay
        print(f"{l_clock:>9.2f} {c.buffer_count:>8} {c.relay_count:>7} "
              f"{c.violations:>11} {cost:>14,.1f}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import simulate as run_fluid

    graph, library = load_instance(args.instance)
    result = synthesize(
        graph, library, SynthesisOptions(max_arity=args.max_arity, validate_result=False)
    )
    print(f"synthesized {args.instance}: cost {result.total_cost:,.4g}")
    print()
    print(f"{'scale':>7} {'satisfied':>10} {'starved channels':>40}")
    worst_exit = 0
    for scale in args.scale:
        sim = run_fluid(result.implementation, graph, duration=args.duration, demand_scale=scale)
        starved = sim.starved_channels()
        label = "-" if not starved else ", ".join(starved[:6]) + (
            " ..." if len(starved) > 6 else ""
        )
        print(f"{scale:>7.2f} {str(sim.all_satisfied):>10} {label:>40}")
        if scale <= 1.0 and not sim.all_satisfied:
            worst_exit = 1  # design point must always be sustainable
    return worst_exit


def _cmd_pareto(args: argparse.Namespace) -> int:
    from .analysis import latency_sweep, pareto_front, render_pareto_svg

    graph, library = load_instance(args.instance)
    budgets = list(dict.fromkeys(list(args.budgets) + [None]))
    points = latency_sweep(
        graph, library, budgets=budgets,
        options=SynthesisOptions(max_arity=args.max_arity),
    )
    front = pareto_front(points)
    print(f"{'budget':>7} {'worst hops':>11} {'cost':>12} {'on frontier':>12}")
    for p in points:
        budget = "inf" if p.hop_budget is None else p.hop_budget
        print(f"{budget:>7} {p.worst_hops:>11} {p.cost:>12,.1f} "
              f"{'*' if p in front else '':>12}")
    if args.svg:
        with open(args.svg, "w") as f:
            f.write(render_pareto_svg(points))
        print(f"frontier chart written to {args.svg}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from types import SimpleNamespace

    from .loop import LoopOptions, margin_sweep, sweep_front, sweep_to_json, tune

    graph, library = load_instance(args.instance)
    options = SynthesisOptions(max_arity=args.max_arity, strategy=args.strategy)
    loop = LoopOptions(
        margin=args.margin,
        max_iterations=args.max_iterations,
        sim=args.sim,
        duration=args.duration,
    )
    trace_requested = bool(args.trace or args.trace_summary)
    tracer = None
    if trace_requested:
        from .obs import Tracer

        tracer = Tracer(label=f"tune:{graph.name}")

    if args.margin_sweep:
        if args.export_instance:
            print("error: --export-instance needs a single --margin run "
                  "(a sweep has no single design point)", file=sys.stderr)
            return 2
        points = margin_sweep(
            graph, library, margins=args.margin_sweep,
            options=options, loop=loop, trace=tracer or False,
        )
        front = sweep_front(points)
        if not args.quiet:
            print(f"{'margin':>7} {'cost':>14} {'latency':>12} {'iters':>6} "
                  f"{'converged':>10} {'on front':>9}")
            for p in points:
                print(f"{p.margin:>7g} {p.cost:>14,.1f} {p.latency:>12.6g} "
                      f"{p.iterations:>6} {str(p.converged):>10} "
                      f"{'*' if p in front else '':>9}")
        if args.out:
            atomic_write(
                args.out,
                sweep_to_json(points, front, instance=graph.name, sim=args.sim),
            )
            if not args.quiet:
                print(f"sweep JSON written to {args.out}")
        if tracer is not None:
            _emit_trace(args, SimpleNamespace(trace=tracer))
        return 0 if all(p.converged for p in points) else 1

    result = tune(graph, library, options=options, loop=loop, trace=tracer or False)
    if not args.quiet:
        print(f"{'iter':>4} {'cost':>14} flagged")
        for rec in result.iterations:
            flagged = ", ".join(rec.flagged) or "-"
            print(f"{rec.index:>4} {rec.cost:>14,.1f} {flagged}")
        if result.converged:
            print(f"converged in {result.n_iterations} iteration(s): "
                  f"cost {result.cost:,.1f}, worst mean latency {result.latency:.6g}")
        else:
            print(f"NOT converged: {result.failure}")
        if result.cross_check_agrees is not None:
            verdict = "agrees" if result.cross_check_agrees else "DISAGREES"
            print(f"cross-check ({'packets' if args.sim == 'fluid' else 'fluid'}): "
                  f"{verdict}")
        if result.margins:
            tightened = ", ".join(
                f"{name} x{mult:g}" for name, mult in sorted(result.margins.items())
            )
            print(f"tightened: {tightened}")
    if args.out:
        atomic_write(
            args.out,
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
        )
        if not args.quiet:
            print(f"tune JSON written to {args.out}")
    if args.export_instance:
        save_instance(args.export_instance, result.graph, library)
        if not args.quiet:
            print(f"tightened instance written to {args.export_instance}")
    if tracer is not None:
        _emit_trace(args, SimpleNamespace(trace=tracer))
    return 0 if result.converged else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        queue_limit_per_client=args.queue_limit_per_client,
        default_deadline_s=args.default_deadline,
        max_deadline_s=args.max_deadline,
        cache_dir=args.cache,
        results_path=args.results,
        spool_dir=args.spool,
        drain_grace_s=args.drain_grace,
    )
    serve_forever(config)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Maps the exception taxonomy to distinct exit codes (documented in
    ``--help``): infeasible instances exit 2, exhausted budgets exit 3,
    Definition 2.4 validation failures exit 4, malformed instance files
    exit 5, incompatible checkpoint journals exit 6.  Malformed inputs
    never produce a raw traceback.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "synthesize": _cmd_synthesize,
        "batch": _cmd_batch,
        "batch-worker": _cmd_batch_worker,
        "serve": _cmd_serve,
        "demo": _cmd_demo,
        "tables": _cmd_tables,
        "lid": _cmd_lid,
        "simulate": _cmd_simulate,
        "pareto": _cmd_pareto,
        "tune": _cmd_tune,
    }
    try:
        return handlers[args.command](args)
    except BudgetExceeded as exc:
        # before InfeasibleError/ValidationError: it subclasses CoveringError
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    except InstanceFormatError as exc:
        # before InfeasibleError: both derive from SynthesisError
        print(f"error: invalid instance: {exc}", file=sys.stderr)
        return EXIT_BAD_INSTANCE
    except BatchError as exc:
        # unusable batch invocation (--resume over nothing, a bad queue
        # directory) — an input problem, same family as exit 5
        print(f"error: batch: {exc}", file=sys.stderr)
        return EXIT_BAD_INSTANCE
    except CheckpointError as exc:
        # covers CheckpointIncompatibleError (fingerprint/version
        # mismatch) and unusable journal files alike
        print(f"error: checkpoint: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT_INCOMPATIBLE
    except InfeasibleError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValidationError as exc:
        print(f"error: validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
