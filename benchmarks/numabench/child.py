"""One fresh-process pass of a numabench workload.

``run.py`` starts this file once per measured pass, each time with an empty
``NUMACHINE_CACHE_DIR`` (so the perf cache and the elab store start cold)
and ``NUMACHINE_JOBS=1``.  The task arrives as one JSON argument; the
result leaves as one JSON line on stdout.  Kinds of pass:

``timed``   untraced: set up, run, check outputs, measure Table 1;
``setup``   set-up only, timed from process start to the first event;
``traced``  the same run with :class:`repro.obs.Profiler` on every engine;
``probe``   an untraced run on one backend, with or without the checker;
``pool``    the paper grid through ``run_sweep`` with several workers.

``t_spawn`` in the task is the parent's ``time.perf_counter()`` just before
it started this process; on Linux that clock is system-wide, so set-up is
timed from process start, interpreter and ``import repro`` included.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback

import layers
import spec
from repro.obs import Profiler
from repro.perf import RunCache, collect_record, run_sweep

#: warm-cache re-reads behind ``perf.warm_s``
WARM_READS = 20


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_read_s(read) -> float:
    """Median seconds of ``WARM_READS`` calls of ``read`` on a warm cache."""
    times = []
    for _ in range(WARM_READS):
        t0 = time.perf_counter()
        read()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fingerprint_checks(task: dict, name: str, fp: dict) -> list:
    """Compare a single-run fingerprint with ``expected.json``."""
    if not task.get("check", True):
        return []
    want = spec.load_expected().get(name)
    if want is None:
        return [_check(f"{name} fingerprint", False, "no entry in expected.json")]
    keys = ["surface_sha256", "parallel_time_ns", "outputs"]
    if "checks" in want and "checks" in fp:
        keys.append("checks")
    bad = [k for k in keys if fp.get(k) != want.get(k)]
    return [_check(f"{name} fingerprint", not bad, f"differs in {bad}" if bad else "")]


def _grid_checks(task: dict, views: list) -> list:
    """Compare grid record views point by point with ``expected.json``."""
    if not task.get("check", True):
        return []
    want = spec.load_expected().get("paper_grid", {}).get("records", [])
    out = []
    for i, (point, view) in enumerate(zip(spec.GRID, views)):
        ok = i < len(want) and view == want[i]
        out.append(_check(f"paper_grid {point[0]}@{point[1]}{'s' if point[2] else ''}", ok))
    return out


def _table1_checks(task: dict, cells: dict) -> list:
    if not task.get("check", True):
        return []
    want = spec.load_expected().get("table1")
    return [_check("table1 cells", cells == want, "" if cells == want else str(cells))]


def _target(task: dict):
    """(workload name, grid point or None) a set-up or probe pass builds."""
    name = task["workload"]
    if name != "paper_grid":
        return name, None
    return name, spec.GRID_PROBE_POINT if task["kind"] == "probe" else spec.GRID_SETUP_POINT


# ----------------------------------------------------------------------
# pass kinds
# ----------------------------------------------------------------------
def timed(task: dict) -> dict:
    if task["workload"] == "paper_grid":
        return _timed_grid(task)
    return _timed_single(task)


def _timed_single(task: dict) -> dict:
    name = task["workload"]
    machine, wl, programs, spans = spec.prepare(name, task["seed"])
    setup_s = time.perf_counter() - task["t_spawn"]
    t0 = time.perf_counter()
    result = machine.run(programs)
    wall = time.perf_counter() - t0
    rss = _peak_rss_mb()
    ptime = machine.parallel_time_ns(result)
    fp = spec.fingerprint(machine, wl, ptime)
    cells = spec.table1()
    out = {
        "wall_s": wall,
        "engine_s": machine.engine.wall_time_s,
        "setup_s": setup_s,
        "spans": spans,
        "peak_rss_mb": rss,
        "table1": cells,
        "table1_max_err_pct": spec.table1_max_err_pct(cells),
        "fingerprint": fp,
        "checks": _fingerprint_checks(task, name, fp) + _table1_checks(task, cells),
    }
    if task.get("warm"):
        record = collect_record(
            machine, workload=name, nprocs=len(programs), parallel_time_ns=ptime
        )
        cache = RunCache()
        key = hashlib.sha256(name.encode()).hexdigest()
        cache.put(key, record)
        out["warm_s"] = _warm_read_s(lambda: cache.get(key))
    return out


def _timed_grid(task: dict) -> dict:
    points = spec.grid_points()
    cache = RunCache()
    t0 = time.perf_counter()
    records = run_sweep(points, jobs=1, cache=cache)
    sweep_s = time.perf_counter() - t0
    cells = spec.table1()
    wall = time.perf_counter() - t0
    rss = _peak_rss_mb()
    views = [spec.record_view(r) for r in records]
    out = {
        "wall_s": wall,
        "sweep_s": sweep_s,
        "engine_s": sum(r.wall_s for r in records),
        "peak_rss_mb": rss,
        "table1": cells,
        "table1_max_err_pct": spec.table1_max_err_pct(cells),
        "fingerprint": {"records": views},
        "checks": _grid_checks(task, views) + _table1_checks(task, cells),
    }
    if task.get("warm"):
        out["warm_s"] = _warm_read_s(lambda: run_sweep(points, jobs=1, cache=cache))
    return out


def setup(task: dict) -> dict:
    name, point = _target(task)
    _machine, _wl, _programs, spans = spec.prepare(name, task["seed"], point=point)
    return {"setup_s": time.perf_counter() - task["t_spawn"], "spans": spans, "checks": []}


def traced(task: dict) -> dict:
    name = task["workload"]
    prof = Profiler(sample_every=1)
    counters, checks, views = [], [], []
    engine_s = 0.0
    events = 0
    for point in spec.GRID if name == "paper_grid" else [None]:
        machine, wl, programs, _spans = spec.prepare(name, task["seed"], point=point)
        prof.install(machine.engine)
        try:
            result = machine.run(programs)
        finally:
            prof.uninstall()
        ptime = machine.parallel_time_ns(result)
        if point is None:
            checks += _fingerprint_checks(task, name, spec.fingerprint(machine, wl, ptime))
        else:
            wname, nprocs, cpus, _cs = point
            record = collect_record(
                machine, workload=wname, nprocs=nprocs, parallel_time_ns=ptime, cpus=cpus
            )
            views.append(spec.record_view(record))
        counters.append(layers.machine_counters(machine, ptime))
        engine_s += machine.engine.wall_time_s
        events += machine.engine.events_run
    if views:
        checks += _grid_checks(task, views)
    summary = prof.summary()
    if task.get("perfetto"):
        prof.write_chrome(task["perfetto"])
    return {
        "engine_s": engine_s,
        "events_run": events,
        "layers": layers.attribute(summary),
        "metrics": layers.combine(counters),
        "sites": [
            {"site": s["site"], "layer": layers.layer_of(s["site"]),
             "events": s["events"], "self_s": s["est_wall_s"]}
            for s in summary["sites"]
        ],
        "checks": checks,
    }


def probe(task: dict) -> dict:
    flavor = task["flavor"]
    name, point = _target(task)
    machine, wl, programs, _spans = spec.prepare(
        name, task["seed"], point=point,
        backend="elab" if flavor == "elab" else "interp",
        hooks="checker" if flavor == "checker" else "none",
    )
    t0 = time.perf_counter()
    result = machine.run(programs)
    wall = time.perf_counter() - t0
    fp = spec.fingerprint(machine, wl, machine.parallel_time_ns(result))
    want_backend = "elab" if flavor == "elab" else "interp"
    checks = [_check(f"{flavor} probe backend", machine.backend == want_backend, machine.backend)]
    if point is None:
        checks += _fingerprint_checks(task, name, fp)
    return {
        "wall_s": wall,
        "engine_s": machine.engine.wall_time_s,
        "fingerprint": {k: fp[k] for k in ("surface_sha256", "parallel_time_ns")},
        "checks": checks,
    }


def pool(task: dict) -> dict:
    t0 = time.perf_counter()
    records = run_sweep(spec.grid_points(), jobs=task["jobs"], cache=RunCache())
    sweep_s = time.perf_counter() - t0
    views = [spec.record_view(r) for r in records]
    return {"sweep_s": sweep_s, "checks": _grid_checks(task, views)}


KINDS = {"timed": timed, "setup": setup, "traced": traced, "probe": probe, "pool": pool}


def main(argv) -> int:
    task = json.loads(argv[1])
    try:
        out = KINDS[task["kind"]](task)
    except Exception:
        # a raising or deadlocking simulation is a failed run, reported to
        # the parent rather than lost with the process
        out = {"checks": [_check(f"{task['kind']} pass", False, traceback.format_exc())]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
