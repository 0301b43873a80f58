"""The simulator self-profiler (repro.obs.profile).

The profiler re-classes the engine, so the contract is exactness: every
event attributed, ``(events_run, now)`` bit-identical to an unprofiled
run, clean install/uninstall, and a Perfetto-loadable export — validated
with the same schema checks the transaction-trace export gets.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import Profiler
from repro.obs.profile import _STATE, _ProfiledEngine
from repro.sim.engine import Engine
from repro.system.config import MachineConfig
from repro.system.machine import Machine
from repro.workloads.synthetic import HotSpot


def _profiled_run(backend: str, sample_every: int = 1, nprocs: int = 8):
    machine = Machine(MachineConfig.prototype(), backend=backend)
    prof = Profiler(sample_every=sample_every).install(machine.engine)
    HotSpot(words=16, ops=20).run(machine, nprocs=nprocs)
    prof.uninstall()
    return machine, prof


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["interp", "elab"])
def test_every_event_attributed_and_run_unperturbed(backend):
    plain = Machine(MachineConfig.prototype(), backend=backend)
    HotSpot(words=16, ops=20).run(plain, nprocs=8)
    machine, prof = _profiled_run(backend)
    # profiling never schedules or reorders: bit-identical run
    assert machine.engine.events_run == plain.engine.events_run
    assert machine.engine.now == plain.engine.now
    summ = prof.summary()
    assert summ["events"] == machine.engine.events_run
    assert summ["sites"], "no pump sites attributed"
    # hottest-first ordering, shares sum to ~1
    est = [s["est_wall_s"] for s in summ["sites"]]
    assert est == sorted(est, reverse=True)
    assert abs(sum(s["share"] for s in summ["sites"]) - 1.0) < 1e-9


def test_elab_backend_shows_generated_site_names():
    machine, prof = _profiled_run("elab")
    assert machine.backend == "elab"
    sites = {s["site"] for s in prof.summary()["sites"]}
    assert any("Elab" in s or s.startswith("_") for s in sites), sites


def test_sample_every_thins_timing_but_not_counts():
    m1, every1 = _profiled_run("interp", sample_every=1)
    m4, every4 = _profiled_run("interp", sample_every=4)
    s1, s4 = every1.summary(), every4.summary()
    assert s1["events"] == s4["events"] == m4.engine.events_run
    assert sum(s["timed"] for s in s1["sites"]) == s1["events"]
    timed4 = sum(s["timed"] for s in s4["sites"])
    assert timed4 == s4["events"] // 4
    del m1


# ----------------------------------------------------------------------
# install / uninstall hygiene
# ----------------------------------------------------------------------
def test_install_uninstall_restores_engine_class():
    machine = Machine(MachineConfig.small(stations_per_ring=2, rings=2, cpus=2))
    engine = machine.engine
    prof = Profiler().install(engine)
    assert type(engine) is _ProfiledEngine
    assert id(engine) in _STATE
    prof.uninstall()
    assert type(engine) is Engine
    assert id(engine) not in _STATE
    prof.uninstall()  # idempotent


def test_double_install_raises():
    m1 = Machine(MachineConfig.small(stations_per_ring=2, rings=2, cpus=2))
    m2 = Machine(MachineConfig.small(stations_per_ring=2, rings=2, cpus=2))
    prof = Profiler().install(m1.engine)
    try:
        with pytest.raises(RuntimeError):
            prof.install(m2.engine)  # one profiler, one engine
        with pytest.raises(RuntimeError):
            Profiler().install(m1.engine)  # one engine, one profiler
    finally:
        prof.uninstall()


def test_context_manager_uninstalls():
    machine = Machine(MachineConfig.small(stations_per_ring=2, rings=2, cpus=2))
    with Profiler().install(machine.engine):
        assert type(machine.engine) is _ProfiledEngine
    assert type(machine.engine) is Engine


# ----------------------------------------------------------------------
# Perfetto export (scripts/check_elab.py-style validation)
# ----------------------------------------------------------------------
def test_chrome_trace_schema(tmp_path):
    _machine, prof = _profiled_run("elab")
    doc = prof.chrome_trace()
    events = doc["traceEvents"]
    assert events
    json.loads(json.dumps(doc))  # round-trips
    tids = set()
    ends = {1: [], 2: []}
    for ev in events:
        assert ev["ph"] in ("X", "M")
        assert ev["pid"] == 3
        assert isinstance(ev["name"], str) and ev["name"]
        if ev["ph"] == "X":
            assert ev["ts"] >= 0 and ev["dur"] > 0
            assert ev["tid"] in (1, 2)
            tids.add(ev["tid"])
            ends[ev["tid"]].append((ev["ts"], ev["ts"] + ev["dur"]))
    assert tids == {1, 2}, "handler and component tracks both present"
    # slices are laid end to end on each track (a one-level flamegraph)
    for track in (1, 2):
        spans = sorted(ends[track])
        for (_a, b), (c, _d) in zip(spans, spans[1:]):
            assert abs(b - c) < 1e-6

    path = tmp_path / "profile.json"
    prof.write_chrome(path)
    assert json.loads(path.read_text())["traceEvents"]
    spath = tmp_path / "summary.json"
    prof.write_summary(spath)
    assert json.loads(spath.read_text())["sites"]

