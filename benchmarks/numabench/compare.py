#!/usr/bin/env python3
"""Compare two numabench result files.

    python benchmarks/numabench/compare.py A.json B.json
    python benchmarks/numabench/compare.py --layers A_layers.json B_layers.json

The first form compares untraced results (``run.py --out``): one row per
workload giving, for each end-to-end metric of ``BENCHMARK.json``, the
change of B's median against A's and a verdict, then the medians and
quartiles behind it.  A verdict is ``better``, ``worse``, ``within bound``
or ``unresolved``: a metric is unresolved when either side's quartile
spread, as a share of its median, is wider than the metric's bound --
unless every B run beats every A run.  The exit status is 1 when any
verdict is ``worse``.  Sets whose host-drift probe (``host_calib_s``, a
fixed pure-Python loop timed before each repeat) differs by more than 10%
are flagged: their wall-time verdicts compare hosts as much as commits.

``--layers`` prints per-layer deltas between two traced files
(``run.py --trace``).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: host-drift probe difference beyond which a pair of sets is flagged
DRIFT_LIMIT = 0.10


def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _rel(num: float, base: float) -> float:
    if base == 0:
        return 0.0 if num == 0 else math.inf
    return num / abs(base)


def verdict(a, b, better: str, bound: float) -> tuple:
    """(verdict, relative change of B's median, positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    change = sign * _rel(b_med - a_med, a_med)
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better", change
    spread = max(_rel(a_q3 - a_q1, a_med), _rel(b_q3 - b_q1, b_med))
    if spread > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within bound", change


def _load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compare(a: dict, b: dict, out=sys.stdout) -> bool:
    """Print the comparison; True when no verdict is ``worse``."""
    defs = _load(BENCHMARK)["end_to_end"]
    names = [d["name"] for d in defs]
    rows, details, drifts = [], [], []
    clean = True
    for wl in a["workloads"]:
        if wl not in b["workloads"]:
            continue
        wa, wb = a["workloads"][wl], b["workloads"][wl]
        cells = []
        for d in defs:
            ma, mb = wa["metrics"].get(d["name"]), wb["metrics"].get(d["name"])
            if ma is None or mb is None:
                cells.append("-")
                continue
            v, change = verdict(ma["samples"], mb["samples"], d["better"], d["bound"])
            clean &= v != "worse"
            cells.append(f"{100 * change:+.1f}% {v}")
            sides = []
            for side, met in (("A", ma), ("B", mb)):
                q1, med, q3 = quartiles(met["samples"])
                sides.append(f"{side} {med:.6g} [{q1:.6g}, {q3:.6g}] n={len(met['samples'])}")
            details.append(f"  {wl:<22}{d['name']:<20}{'   '.join(sides)}  {d['unit']}")
        rows.append((wl, cells))
        ca, cb = wa.get("host_calib_s"), wb.get("host_calib_s")
        if ca and cb:
            drift = statistics.median(cb) / statistics.median(ca) - 1.0
            if abs(drift) > DRIFT_LIMIT:
                drifts.append(f"  {wl}: host probe B/A {drift:+.1%} -- wall times compare hosts")
    width = max([len(n) for n in names] + [22]) + 2
    print(f"{'workload':<22}" + "".join(f"{n:>{width}}" for n in names), file=out)
    for wl, cells in rows:
        print(f"{wl:<22}" + "".join(f"{c:>{width}}" for c in cells), file=out)
    print("\nmedians [q1, q3]:", file=out)
    for line in details:
        print(line, file=out)
    if drifts:
        print("\nhost drift:", file=out)
        for line in drifts:
            print(line, file=out)
    return clean


def compare_layers(a: dict, b: dict, out=sys.stdout) -> None:
    """Per-layer metric deltas between two traced result files."""
    for wl, wa in a["workloads"].items():
        wb = b["workloads"].get(wl)
        if wb is None:
            continue
        print(f"== {wl}", file=out)
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            if mb is None:
                continue
            va, vb = ma["value"], mb["value"]
            rel = f"{100 * _rel(vb - va, va):+.1f}%" if va else ""
            print(f"  {name:<32}{va:>14.6g}{vb:>14.6g}{vb - va:>+14.6g}  {rel:>8} {ma['unit']}",
                  file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--layers", action="store_true",
                    help="compare two traced (per-layer) result files")
    args = ap.parse_args(argv)
    a, b = _load(args.a), _load(args.b)
    if args.layers:
        compare_layers(a, b)
        return 0
    return 0 if compare(a, b) else 1


if __name__ == "__main__":
    sys.exit(main())
