"""Compare two sets of benchmark records.

    python3 perfbench/compare.py OLD NEW

``OLD`` and ``NEW`` are directories (or single files) of records that
``run.py`` wrote.  For every workload and end-to-end metric it prints
each side's first quartile, median and third quartile, and a verdict
under the bounds in ``BENCHMARK.json``:

- ``worse``: NEW's median is worse than OLD's by more than the bound;
- ``better``: NEW wins at least nine tenths of the seed-matched pairs
  and the medians differ by more than OLD's spread (q3 - q1);
- ``unresolved``: OLD's spread is wider than the bound, so a change
  inside it cannot be told from noise;
- ``same``: none of these.

Then, per workload, the median of every per-layer metric of the traced
runs on both sides and the difference, so a change can show where its
saving appears; ``-`` marks a side without a value (no traced run, or
the layer was reported missing).  Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "perfbench-record/1"


def load(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        doc = json.loads(file.read_text())
        if isinstance(doc, dict) and doc.get("schema") == SCHEMA:
            records.append(doc)
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old: Dict[int, float], new: Dict[int, float], better: str, bound: float) -> str:
    """Compare seed -> value maps of one metric (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - old) > 0 is worse
    oq1, omed, oq3 = quartiles(list(old.values()))
    _, nmed, _ = quartiles(list(new.values()))
    if sign * (nmed - omed) > bound * abs(omed):
        return "worse"
    pairs = [(old[s], new[s]) for s in old.keys() & new.keys()]
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (omed - nmed) > oq3 - oq1:
        return "better"
    if oq3 - oq1 > bound * abs(omed):
        return "unresolved"
    return "same"


def _by_seed(records: List[dict], trace: int, section: str) -> Dict[str, Dict[str, Dict[int, float]]]:
    """workload -> metric -> seed -> value."""
    out: Dict[str, Dict[str, Dict[int, float]]] = {}
    for rec in records:
        if rec["trace"] != trace:
            continue
        for name, metric in rec[section].items():
            if metric["value"] is not None:
                out.setdefault(rec["workload"], {}).setdefault(name, {})[rec["seed"]] = metric["value"]
    return out


def _median(values: Optional[Dict[int, float]]) -> Optional[float]:
    return statistics.median(values.values()) if values else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark records.")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    old_records, new_records = load(args.old), load(args.new)

    old_e2e, new_e2e = _by_seed(old_records, 0, "e2e"), _by_seed(new_records, 0, "e2e")
    worse = False
    print(f"{'workload':<14} {'metric':<12} {'old q1/med/q3':>32} {'new q1/med/q3':>32} "
          f"{'pairs':>5}  verdict")
    for workload in sorted(old_e2e.keys() & new_e2e.keys()):
        for metric in spec["end_to_end"]:
            old = old_e2e[workload].get(metric["name"])
            new = new_e2e[workload].get(metric["name"])
            if not old or not new:
                continue
            result = verdict(old, new, metric["better"], metric["bound"])
            worse = worse or result == "worse"
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(list(v.values())))
            print(f"{workload:<14} {metric['name']:<12} {fmt(old):>32} {fmt(new):>32} "
                  f"{len(old.keys() & new.keys()):>5}  {result}")

    old_layers, new_layers = _by_seed(old_records, 1, "layers"), _by_seed(new_records, 1, "layers")
    for workload in sorted(old_layers.keys() | new_layers.keys()):
        print(f"\nper-layer medians, {workload} (traced runs)")
        print(f"  {'metric':<26} {'old':>12} {'new':>12} {'delta':>12}")
        names = old_layers.get(workload, {}).keys() | new_layers.get(workload, {}).keys()
        for name in sorted(names):
            o = _median(old_layers.get(workload, {}).get(name))
            n = _median(new_layers.get(workload, {}).get(name))
            if not o and not n:
                continue
            delta = f"{n - o:+12.4g}" if o is not None and n is not None else f"{'':>12}"
            show = lambda v: f"{v:12.4g}" if v is not None else f"{'-':>12}"
            print(f"  {name:<26} {show(o)} {show(n)} {delta}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
