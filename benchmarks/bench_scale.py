"""Scaling benchmark: simulator throughput from P=4 to the full machine.

Sweeps the active-processor count across the 64-processor prototype for
two workloads — the synthetic hot-spot (densest event traffic the
simulator generates) and the SPLASH-style blocked LU kernel (real data
flow, barriers, and hit-run batching) — and records, per point and per
execution backend (interpreted classes vs the elaborated specialized
core, see :mod:`repro.elab`), the event count, final simulated time,
wall-clock time and events/second.  The sweep asserts the two backends
replay the exact same event stream at every point and records the
``elab_speedup`` ratio.  Results land in ``BENCH_scale.json`` at the
repo root; a slim per-point digest is also appended to the longitudinal
``BENCH_history.jsonl`` ledger (:mod:`repro.perf.ledger`).

Reading the numbers
-------------------

*Events/second* measures the event loop; *wall time* measures the user
experience.  They diverge on purpose: hit-run batching (see
:mod:`repro.cpu.ops`) collapses long strings of cache hits into
closed-form time advances, which **removes** events outright — LU wall
time drops ~5x while its events/s barely moves, because the events that
remain are the genuinely hard ones (misses, coherence, ring hops).
Compare wall time for "how fast is the simulator", events/s for "how
fast is the event core".

Per point the active scheduler is recorded: auto-selection picks the C
binary heap below :data:`repro.sim.sched.AUTO_CALENDAR_MIN_CPUS` active
processors and the O(1) calendar queue at or above it (override with
``NUMACHINE_SCHED=heap|calendar``; results are bit-identical either
way).  Timing is best-of-N with median/stdev recorded so a reader can
judge host noise, exactly as in ``bench_engine_throughput.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py                # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --ops 60 \\
        --lu-n 16 --lu-block 4 --repeats 2 --out BENCH_scale.ci.json \\
        --check BENCH_scale.json                                   # CI guard

``--check BASELINE`` compares the just-measured hot-spot P=16 interp
events/second against the committed baseline file (exit non-zero on a
regression beyond ``--tolerance``, default 15%) and enforces that the
elaborated backend stays at least ``--min-ratio`` times faster than the
interpreted one — the CI perf guard.  Both verdicts are advisory when
the current host differs from the one the baseline was recorded on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from repro import Machine, MachineConfig
from repro.perf import ledger
from repro.sim.engine import ticks_to_ns
from repro.workloads.lu import LUContiguous
from repro.workloads.synthetic import HotSpot

RESULT_FILE = Path(__file__).resolve().parents[1] / "BENCH_scale.json"

#: active-processor counts swept on the 64-processor prototype
DEFAULT_POINTS = (4, 16, 32, 64)

#: every point is measured under both execution backends
BACKENDS = ("interp", "elab")

#: guard point and default slack for --check
CHECK_WORKLOAD = "hotspot"
CHECK_NPROCS = 16
DEFAULT_TOLERANCE = 0.15

#: the elab/interp ratio is gated at full machine size: contention (and
#: with it the NACK-retry churn the specialized core targets) only builds
#: up at scale, so smaller points measure mostly common engine cost and
#: their ratio is noise
RATIO_NPROCS = 64

#: minimum elab/interp events-per-second ratio --check enforces at the
#: ratio point on the recorded host (advisory on any other host).  The
#: measured speedup on an idle host is ~1.3-1.7x at the hot-spot P=64
#: point; the floor sits well below that so shared-runner load does not
#: flake the gate while a real specialization regression (ratio -> 1.0)
#: still fails it.
DEFAULT_MIN_RATIO = 1.1

def measure_point(
    workload_factory,
    nprocs: int,
    repeats: int,
    backend: str = "interp",
) -> dict:
    """Best-of-``repeats`` timing for one (workload, nprocs, backend)
    point."""
    walls = []
    events = now = sched = None
    for _ in range(max(1, repeats)):
        machine = Machine(MachineConfig.prototype(), backend=backend)
        workload_factory().run(machine, nprocs=nprocs)
        assert machine.backend == backend, (machine.backend, backend)
        meter = machine.throughput()
        if events is None:
            events, now, sched = (
                meter["events_run"],
                machine.engine.now,
                meter["scheduler"],
            )
        else:
            # determinism: every repeat must replay the exact same events
            assert meter["events_run"] == events, (meter["events_run"], events)
            assert machine.engine.now == now, (machine.engine.now, now)
        walls.append(meter["wall_time_s"])
    best = min(walls)
    median = statistics.median(walls)
    return {
        "nprocs": nprocs,
        "backend": backend,
        "scheduler": sched,
        "events_run": events,
        "final_now_ticks": now,
        "sim_time_ns": ticks_to_ns(now),
        "wall_time_s": best,
        "wall_time_median_s": median,
        "wall_time_stdev_s": statistics.stdev(walls) if len(walls) > 1 else 0.0,
        "events_per_sec": events / best if best > 0 else 0.0,
        "events_per_sec_median": events / median if median > 0 else 0.0,
    }


def host_fingerprint() -> dict:
    """What the wall-clock numbers were measured on.  Events/second is a
    property of the host as much as of the code; comparing rates across
    different machines (laptop baseline vs CI runner) says nothing about
    regressions, so --check refuses to fail across a fingerprint change."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def run_sweep(
    points=DEFAULT_POINTS,
    ops: int = 400,
    words: int = 64,
    lu_n: int = 64,
    lu_block: int = 8,
    repeats: int = 3,
) -> dict:
    workloads = {
        "hotspot": (
            f"HotSpot(words={words}, ops={ops})",
            lambda: HotSpot(words=words, ops=ops),
        ),
        "lu_contig": (
            f"LUContiguous(n={lu_n}, block={lu_block})",
            lambda: LUContiguous(n=lu_n, block=lu_block),
        ),
    }
    result = {"schema": 4, "machine": "prototype (64p, 4 stations x 4 rings)",
              "repeats": max(1, repeats), "host": host_fingerprint(),
              "workloads": {}}
    for name, (desc, factory) in workloads.items():
        sweep = {"workload": desc, "points": {}}
        for p in points:
            cell = {}
            for backend in BACKENDS:
                point = measure_point(factory, p, repeats, backend=backend)
                cell[backend] = point
                print(
                    f"{name:10s} P={p:<3d} {backend:7s} {point['scheduler']:8s} "
                    f"{point['events_run']:>8d} events  "
                    f"wall {point['wall_time_s']:.3f}s  "
                    f"{point['events_per_sec']:>12,.0f} ev/s",
                    file=sys.stderr,
                )
            # the backends must replay the exact same event stream
            for key in ("events_run", "final_now_ticks"):
                assert cell["interp"][key] == cell["elab"][key], (
                    name, p, key, cell["interp"][key], cell["elab"][key],
                )
            cell["elab_speedup"] = (
                cell["elab"]["events_per_sec"] / cell["interp"]["events_per_sec"]
                if cell["interp"]["events_per_sec"] > 0 else 0.0
            )
            sweep["points"][str(p)] = cell
        result["workloads"][name] = sweep
    return result


def ledger_summary(result: dict) -> dict:
    """Slim per-point digest of a sweep for the BENCH_history.jsonl
    ledger: rates and speedups only, no repeat statistics."""
    out = {"machine": result.get("machine"), "repeats": result.get("repeats"),
           "workloads": {}}
    for name, sweep in result.get("workloads", {}).items():
        points = {}
        for p, cell in sweep.get("points", {}).items():
            points[p] = {
                backend: {
                    "events_per_sec": cell[backend]["events_per_sec"],
                    "wall_time_s": cell[backend]["wall_time_s"],
                    "events_run": cell[backend]["events_run"],
                    "scheduler": cell[backend]["scheduler"],
                }
                for backend in BACKENDS
                if backend in cell
            }
            if "elab_speedup" in cell:
                points[p]["elab_speedup"] = cell["elab_speedup"]
        out["workloads"][name] = points
    return out


def check_regression(
    result: dict,
    baseline_path: Path,
    tolerance: float,
    min_ratio: float = DEFAULT_MIN_RATIO,
) -> int:
    """CI guard at the hot-spot P=16 point: interp events/s must not
    regress > ``tolerance`` vs the committed baseline, and the elab
    backend must stay at least ``min_ratio`` times faster than interp.
    Wall-clock verdicts are advisory on any host other than the one the
    baseline was recorded on.  Returns a process exit code."""
    try:
        baseline = json.loads(baseline_path.read_text())
    except FileNotFoundError:
        print(f"check: baseline {baseline_path} missing, skipping", file=sys.stderr)
        return 0
    try:
        base = baseline["workloads"][CHECK_WORKLOAD]["points"][str(CHECK_NPROCS)]
        cur = result["workloads"][CHECK_WORKLOAD]["points"][str(CHECK_NPROCS)]
    except KeyError as exc:
        print(f"check: baseline missing key {exc}, skipping", file=sys.stderr)
        return 0
    if "interp" not in base:
        print("check: baseline predates the backend axis (schema 1), "
              "skipping", file=sys.stderr)
        return 0
    same_host = baseline.get("host") == result.get("host")
    failures = []

    base_rate = base["interp"]["events_per_sec"]
    cur_rate = cur["interp"]["events_per_sec"]
    floor = base_rate * (1.0 - tolerance)
    verdict = "OK" if cur_rate >= floor else "REGRESSION"
    print(
        f"check: hotspot P={CHECK_NPROCS} interp: {cur_rate:,.0f} ev/s vs "
        f"baseline {base_rate:,.0f} (floor {floor:,.0f}, tolerance "
        f"{tolerance:.0%}) -> {verdict}",
        file=sys.stderr,
    )
    if verdict != "OK":
        failures.append("interp rate regression")

    ratio_cell = (
        result["workloads"][CHECK_WORKLOAD]["points"].get(str(RATIO_NPROCS))
    )
    if ratio_cell is None:
        print(f"check: P={RATIO_NPROCS} not measured, skipping ratio gate",
              file=sys.stderr)
    else:
        ratio = ratio_cell.get("elab_speedup", 0.0)
        verdict = "OK" if ratio >= min_ratio else "BELOW FLOOR"
        print(
            f"check: hotspot P={RATIO_NPROCS} elab speedup: {ratio:.2f}x "
            f"(floor {min_ratio:.2f}x) -> {verdict}",
            file=sys.stderr,
        )
        if verdict != "OK":
            failures.append("elab/interp speedup below floor")


    if failures and not same_host:
        # wall-clock rates are host properties; a slowdown measured on a
        # different machine than the baseline is noise, not a regression
        print(
            f"check: WARNING — host differs from baseline "
            f"({result.get('host')} vs {baseline.get('host')}); "
            f"treating as advisory only: {', '.join(failures)}",
            file=sys.stderr,
        )
        failures = []
    if not failures:
        return 0
    print(f"check: FAILED — {', '.join(failures)}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", default=",".join(map(str, DEFAULT_POINTS)),
                    help="comma-separated active-processor counts")
    ap.add_argument("--ops", type=int, default=400, help="hot-spot ops per cpu")
    ap.add_argument("--words", type=int, default=64, help="hot-spot shared words")
    ap.add_argument("--lu-n", type=int, default=64, help="LU matrix dimension")
    ap.add_argument("--lu-block", type=int, default=8, help="LU block size")
    ap.add_argument("--repeats", type=int, default=3, help="timing repeats")
    ap.add_argument("--out", type=Path, default=RESULT_FILE,
                    help="result JSON path")
    ap.add_argument("--check", type=Path, metavar="BASELINE",
                    help="compare hot-spot P=16 events/s against this "
                    "baseline JSON; exit 1 on >tolerance regression")
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help="allowed fractional regression for --check")
    ap.add_argument("--min-ratio", type=float, default=DEFAULT_MIN_RATIO,
                    help="minimum elab/interp events-per-second ratio for "
                    "--check (advisory off the recorded host)")
    ap.add_argument("--pre", type=Path, metavar="PRE_JSON",
                    help="embed this JSON under 'baseline_pre' (same-host "
                    "measurements of the pre-optimization core)")
    args = ap.parse_args(argv)

    points = tuple(int(p) for p in args.points.split(","))
    result = run_sweep(points=points, ops=args.ops, words=args.words,
                       lu_n=args.lu_n, lu_block=args.lu_block,
                       repeats=args.repeats)
    if args.pre:
        result["baseline_pre"] = json.loads(args.pre.read_text())
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    ledger.append_entry("scale_sweep", ledger_summary(result))
    if args.check:
        return check_regression(result, args.check, args.tolerance,
                                args.min_ratio)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
