#!/usr/bin/env python3
"""numabench: the NUMAchine simulator's end-to-end and per-layer benchmark.

    PYTHONPATH=src python benchmarks/numabench/run.py --seed 0 --out out/numabench.json
    python3 benchmarks/numabench/run.py --workload hotspot_p64 --seed 3 --seconds 20
    python3 benchmarks/numabench/run.py --trace          # per-layer pass
    python3 benchmarks/numabench/run.py --update-expected

Run from anywhere; paths resolve against this file.  Every pass runs in a
fresh process (``child.py``) with an empty cache directory, one at a time
-- the traced pool probe, with two workers, is the only concurrency -- and
untraced repeats go round-robin over the workloads, so phases of host load
fall on every workload alike.  Metric names, units and bounds come from
``BENCHMARK.json`` at the repository root.

Untraced (``--trace 0``, the default) prints every end-to-end metric per
workload: the lower quartile of its samples as the value, with median,
upper quartile and sample count.  ``--trace 1`` runs the
separate traced pass and prints the per-layer metrics; it also writes one
Perfetto file per workload next to ``--out``.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; with several workloads the metric keys are
``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare import quartiles
from layers import HANDLER_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"

#: workload -> untraced repeats when no ``--seconds`` budget is given
WORKLOADS = {
    "paper_grid": 3,
    "hotspot_p64": 10,
    "lu_p64": 10,
    "checked_prodcons_p16": 10,
}
#: fresh-process set-ups behind each ``setup_s`` value
MIN_SETUPS = 9
#: untraced reference repeats in the traced pass (single-run workloads)
TRACE_REFS = 3
#: backend / checker probe runs of the traced pass, one per round
PROBE_FLAVORS = ("elab", "interp", "checker")
PROBE_ROUNDS = 3
#: workers of the traced pool probe
POOL_WORKERS = 2
#: iterations of the host-drift probe loop
CALIB_LOOP = 200_000
#: a child still running after this long has failed (the longest, the
#: traced grid pass, takes well under a minute)
CHILD_TIMEOUT_S = 150.0


def summarize(values, unit: str) -> dict:
    """An end-to-end metric over one invocation's samples.

    The reported ``value`` is the lower quartile: on a shared host,
    contention only ever adds time, so the lower quartile follows the
    simulator's own speed more steadily than the median does (README.md
    gives the measured spreads of both).  Median and upper quartile ride
    along for ``compare.py``.
    """
    q1, med, q3 = quartiles(values)
    return {"value": q1, "unit": unit, "median": med, "q1": q1, "q3": q3,
            "n": len(values), "samples": list(values)}


def host_calib() -> float:
    """Seconds for a fixed pure-Python loop: recorded beside each repeat to
    show host drift between result sets; never used to scale a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOP):
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# fresh-process passes
# ----------------------------------------------------------------------
def _child_env(cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("NUMACHINE_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        NUMACHINE_CACHE_DIR=str(cache_dir),
        NUMACHINE_JOBS="1",
    )
    return env


def _crashed(task: dict, detail: str) -> dict:
    return {"checks": [_check(f"{task['workload']} {task['kind']} process", False,
                              detail[-2000:])]}


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a child and any workers it started (its own session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_children(tasks: list, tmp: Path) -> list:
    """Start every task at once in its own process and cache directory and
    return their results in order; a process that dies, hangs or prints no
    result yields one failed check."""
    started = []
    try:
        for task in tasks:
            cache = Path(tempfile.mkdtemp(prefix="cache-", dir=tmp))
            task = dict(task, t_spawn=time.perf_counter())
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), json.dumps(task)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=_child_env(cache), cwd=ROOT, start_new_session=True,
            )
            started.append((proc, task, cache))
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        results = []
        for proc, task, cache in started:
            try:
                out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                _kill_group(proc)
                results.append(_crashed(task, f"no result after {CHILD_TIMEOUT_S:.0f} s"))
                continue
            lines = out.strip().splitlines()
            try:
                results.append(json.loads(lines[-1]))
            except (IndexError, ValueError):
                results.append(_crashed(task, f"exit {proc.returncode}: {err}"))
        return results
    finally:
        for proc, _task, cache in started:
            if proc.poll() is None:
                _kill_group(proc)
            shutil.rmtree(cache, ignore_errors=True)


def run_child(task: dict, tmp: Path) -> dict:
    return run_children([task], tmp)[0]


def _task(kind: str, workload: str, seed: int, **extra) -> dict:
    return {"kind": kind, "workload": workload, "seed": seed, **extra}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _agreement(name: str, prints: list) -> dict:
    ok = all(p == prints[0] for p in prints)
    return _check(name, ok, "" if ok else f"{len(prints)} passes differ")


# ----------------------------------------------------------------------
# untraced pass: end-to-end metrics
# ----------------------------------------------------------------------
class Tally:
    """Samples and checks of one workload's untraced passes."""

    SAMPLED = ("wall_s", "setup_s", "peak_rss_mb", "table1_max_err_pct")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples = {m: [] for m in self.SAMPLED}
        self.engine_s = []
        self.calib = []
        self.checks = []
        self.prints = []
        self.repeats = 0
        self.spent = 0.0

    def wants_repeat(self, seconds) -> bool:
        if seconds is None:
            return self.repeats < WORKLOADS[self.name]
        return self.repeats == 0 or self.spent * (1 + 1 / self.repeats) <= seconds

    def add(self, res: dict) -> None:
        self.checks += res["checks"]
        for m in self.SAMPLED:
            if m in res:
                self.samples[m].append(res[m])
        if "engine_s" in res:
            self.engine_s.append(res["engine_s"])
        if "fingerprint" in res:
            self.prints.append(res["fingerprint"])

    def report(self, defs: list) -> dict:
        checks = self.checks + [_agreement(f"{self.name} repeats agree", self.prints)]
        failed = [c for c in checks if not c["ok"]]
        return {
            "metrics": {d["name"]: summarize(self.samples[d["name"]], d["unit"]) for d in defs},
            "engine_s": summarize(self.engine_s, "s"),
            "host_calib_s": self.calib,
            "attempted": len(checks),
            "failed": len(failed),
            "failed_frac": len(failed) / len(checks),
            "failures": failed,
        }


def untraced(workloads: list, seed: int, seconds, defs: list, tmp: Path) -> dict:
    tallies = {w: Tally(w) for w in workloads}
    pending = list(workloads)
    while pending:
        for w in list(pending):
            tally = tallies[w]
            if not tally.wants_repeat(seconds):
                pending.remove(w)
                continue
            tally.calib.append(host_calib())
            t0 = time.perf_counter()
            res = run_child(_task("timed", w, seed), tmp)
            tally.spent += time.perf_counter() - t0
            tally.repeats += 1
            tally.add(res)
            _log(f"{w} repeat {tally.repeats}: wall {res.get('wall_s', float('nan')):.3f} s")
    for w in workloads:
        tally = tallies[w]
        for _ in range(MIN_SETUPS - len(tally.samples["setup_s"])):
            tally.add(run_child(_task("setup", w, seed), tmp))
    return {w: tallies[w].report(defs) for w in workloads}


# ----------------------------------------------------------------------
# traced pass: per-layer metrics
# ----------------------------------------------------------------------
def traced(name: str, seed: int, defs: list, tmp: Path, out_dir: Path) -> dict:
    grid = name == "paper_grid"
    refs = [
        run_child(_task("timed", name, seed, warm=(i == 0)), tmp)
        for i in range(1 if grid else TRACE_REFS)
    ]
    extra = [
        run_child(_task("setup", name, seed), tmp)
        for _ in range(MIN_SETUPS - sum("setup_s" in r for r in refs))
    ]
    setups = [r for r in refs + extra if "setup_s" in r]
    perfetto = out_dir / f"numabench_{name}.perfetto.json"
    tr = run_child(_task("traced", name, seed, perfetto=str(perfetto)), tmp)
    # interleaved rounds: each ratio or difference pairs runs made moments
    # apart, so host drift between rounds cancels
    rounds = [
        {f: run_child(_task("probe", name, seed, flavor=f), tmp) for f in PROBE_FLAVORS}
        for _ in range(PROBE_ROUNDS)
    ]
    probes = [p for r in rounds for p in r.values()]
    if grid:
        pool = run_child(_task("pool", name, seed, jobs=POOL_WORKERS), tmp)
        batch = [pool]
    else:
        batch = run_children([_task("probe", name, seed, flavor="elab")] * POOL_WORKERS, tmp)
    passes = refs + extra + [tr] + probes + batch
    checks = [c for r in passes for c in r["checks"]]
    checks.append(_agreement(f"{name} repeats agree", [r.get("fingerprint") for r in refs]))
    checks.append(_agreement(
        f"{name} backends and checker agree", [p.get("fingerprint") for p in probes]
    ))
    lay = tr["layers"]
    checks.append(_check(f"{name} layer map covers every handler",
                         lay["unmapped"]["events"] == 0))
    checks.append(_check(f"{name} layer events sum to engine events",
                         sum(v["events"] for v in lay.values()) == tr["events_run"]))

    ref_engine = statistics.median(r["engine_s"] for r in refs)
    m = {
        "sim.events": tr["events_run"],
        "sim.self_s": ref_engine - sum(v["self_s"] for v in lay.values()),
        "unmapped.events": lay["unmapped"]["events"],
    }
    for layer in HANDLER_LAYERS:
        m[f"{layer}.events"] = lay[layer]["events"]
        m[f"{layer}.self_s"] = lay[layer]["self_s"]
    m.update(tr["metrics"])
    for metric, span in (("system.build_s", "system"), ("workloads.build_s", "workloads"),
                         ("elab.compile_s", "elab")):
        m[metric] = statistics.median(s["spans"][span] for s in setups)
    m["elab.speedup"] = statistics.median(
        r["interp"]["wall_s"] / r["elab"]["wall_s"] for r in rounds
    )
    m["verify.overhead_s"] = statistics.median(
        r["checker"]["wall_s"] - r["interp"]["wall_s"] for r in rounds
    )
    m["perf.engine_s"] = ref_engine
    m["perf.overhead_s"] = statistics.median(r["wall_s"] - r["engine_s"] for r in refs)
    m["perf.warm_s"] = refs[0]["warm_s"]
    if grid:
        m["perf.pool_speedup"] = refs[0]["sweep_s"] / pool["sweep_s"]
    else:
        elab_s = statistics.median(r["elab"]["wall_s"] for r in rounds)
        m["perf.pool_speedup"] = POOL_WORKERS * elab_s / max(r["wall_s"] for r in batch)
    m["obs.trace_overhead_s"] = tr["engine_s"] - ref_engine

    failed = [c for c in checks if not c["ok"]]
    return {
        "metrics": {d["name"]: {"value": m[d["name"]], "unit": d["unit"]} for d in defs},
        "sites": tr["sites"],
        "perfetto": str(perfetto),
        "attempted": len(checks),
        "failed": len(failed),
        "failed_frac": len(failed) / len(checks),
        "failures": failed,
    }


# ----------------------------------------------------------------------
def update_expected(tmp: Path) -> int:
    """Re-pin ``expected.json`` from one seed-0 pass of every workload."""
    expected = {}
    for w in WORKLOADS:
        res = run_child(_task("timed", w, 0, check=False), tmp)
        if "fingerprint" not in res:
            _log(json.dumps(res["checks"], indent=1))
            return 1
        expected[w] = res["fingerprint"]
        expected["table1"] = res["table1"]
    parts = []
    for key in sorted(expected):
        value = expected[key]
        if key == "paper_grid":
            recs = ",\n   ".join(json.dumps(r, sort_keys=True) for r in value["records"])
            body = '{"records": [\n   ' + recs + "\n  ]}"
        else:
            body = json.dumps(value, sort_keys=True)
        parts.append(f" {json.dumps(key)}: {body}")
    EXPECTED.write_text("{\n" + ",\n".join(parts) + "\n}\n")
    _log(f"wrote {EXPECTED}")
    return 0


def _print_table(results: dict, trace: bool) -> None:
    for w, res in results.items():
        print(f"== {w}  (attempted {res['attempted']}, failed {res['failed']}, "
              f"failed_frac {res['failed_frac']:.3g})")
        for name, met in res["metrics"].items():
            line = f"  {name:<32}{met['value']:>14.6g} {met['unit']}"
            if not trace:
                line += (f"   (lower quartile; median {met['median']:.6g}, "
                         f"q3 {met['q3']:.6g}, n={met['n']})")
            print(line)
        for fail in res["failures"]:
            print(f"  FAILED {fail['name']}: {fail['detail'][:500]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for the values the workloads store")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring budget per workload; default: fixed repeats")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: run the traced pass and report per-layer metrics")
    ap.add_argument("--out", type=Path, default=None,
                    help="result JSON (default out/numabench.json, or "
                         "out/numabench_layers.json when tracing)")
    ap.add_argument("--update-expected", action="store_true",
                    help="re-pin expected.json from seed-0 passes and exit")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _log(f"numabench: no simulator sources under {ROOT / 'src'}")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    defs = bench["per_layer" if args.trace else "end_to_end"]
    workloads = args.workload or list(WORKLOADS)
    out = args.out or ROOT / "out" / ("numabench_layers.json" if args.trace else "numabench.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="numabench-", dir=out.parent))
    try:
        if args.update_expected:
            return update_expected(tmp)
        if args.trace:
            results = {w: traced(w, args.seed, defs, tmp, out.parent) for w in workloads}
        else:
            results = untraced(workloads, args.seed, args.seconds, defs, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    doc = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "workloads": results,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    _print_table(results, args.trace)
    if len(workloads) == 1:
        metrics = {
            name: {"value": met["value"], "unit": met["unit"]}
            for name, met in results[workloads[0]]["metrics"].items()
        }
    else:
        metrics = {
            f"{w}/{name}": {"value": met["value"], "unit": met["unit"]}
            for w, res in results.items() for name, met in res["metrics"].items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
