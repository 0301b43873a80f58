"""The elaborated backend's contract.

The specialized core generated by :mod:`repro.elab.codegen` must be
bit-identical to the interpreted classes on the whole metrics snapshot
(``Machine.obs_snapshot(include_wall=False)``: event count, simulated time,
every counter, accumulator and FIFO statistic, utilizations) for every
machine shape, workload and processor count, and on every trace, checker
count, monitor table and triggered fault.  These tests pin that contract,
the one selection rule (every hook runs on the generated core; only
``backend="interp"`` or a failed elaboration keeps the interpreted
classes), the dispatch tables against the interpreted handler maps, and
the in-memory compile of generated cores.
"""

from __future__ import annotations

import dis
import sys
import traceback
import types
import warnings

import pytest

from repro.cpu.ops import Read, Write
from repro.elab import backend as elab_backend
from repro.elab import codegen
from repro.elab.ir import MachineIR
from repro.fault import FaultEvent, FaultPlan
from repro.interconnect.routing import Geometry
from repro.monitor import Monitor
from repro.obs import Observability, Profiler
from repro.system.config import MachineConfig
from repro.system.machine import Machine
from repro.workloads.lu import LUContiguous
from repro.workloads.synthetic import HotSpot, ProducerConsumer


def _fingerprint(machine: Machine) -> dict:
    return machine.obs_snapshot(include_wall=False)


_WORKLOADS = {
    "hotspot": lambda: HotSpot(words=16, ops=40),
    "lu": lambda: LUContiguous(n=16, block=4),
}


def _small_2ring() -> MachineConfig:
    return MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)


def _small_3level() -> MachineConfig:
    cfg = MachineConfig.small()
    cfg.geometry = Geometry((2, 2, 2), processors_per_station=2)
    return cfg


def _run(backend: str, config, workload: str, nprocs: int) -> tuple:
    machine = Machine(config(), backend=backend)
    _WORKLOADS[workload]().run(machine, nprocs=nprocs)
    return _fingerprint(machine), machine.backend


# ----------------------------------------------------------------------
# cross-backend bit-identity: {interp, elab} x machine x P x wl
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "config, nprocs",
    [
        pytest.param(MachineConfig.prototype, 4, id="4"),
        pytest.param(MachineConfig.prototype, 16, id="16"),
        pytest.param(MachineConfig.prototype, 64, id="64"),
        pytest.param(_small_2ring, 8, id="2ring-8"),
        pytest.param(_small_3level, 16, id="3level-16"),
    ],
)
@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_backends_bit_identical(workload, config, nprocs):
    interp, active_i = _run("interp", config, workload, nprocs)
    elab, active_e = _run("elab", config, workload, nprocs)
    assert active_i == "interp"
    assert active_e == "elab"
    assert interp == elab


def test_every_hook_runs_on_the_generated_core():
    machines = {
        hook: Machine(_small_2ring())
        for hook in ("tracer", "probes", "checker", "monitor", "watchdog",
                     "profiler", "fault")
    }
    Observability(probes=False).attach(machines["tracer"])
    Observability(trace=False).attach(machines["probes"])
    machines["checker"].attach_verifier()
    machines["monitor"].attach_monitor(Monitor())
    machines["watchdog"].attach_watchdog(max_events=10_000_000)
    profiler = Profiler(sample_every=4).install(machines["profiler"].engine)
    machines["fault"].attach_fault(FaultPlan(seed=3, events=[]))
    for m in machines.values():
        HotSpot(words=16, ops=10).run(m, nprocs=4)
    profiler.uninstall()
    assert {hook: m.backend for hook, m in machines.items()} == {
        hook: "elab" for hook in machines
    }


def test_failed_elaboration_warns_once_and_pins_interp(monkeypatch):
    reference = Machine(_small_2ring(), backend="interp")
    HotSpot(words=16, ops=20).run(reference, nprocs=4)
    calls = []

    def broken(ir):
        calls.append(ir)
        raise RuntimeError("generator broken")

    monkeypatch.setattr(codegen, "generate_source", broken)
    m = Machine(_small_2ring())
    with pytest.warns(RuntimeWarning, match="generator broken") as caught:
        HotSpot(words=16, ops=20).run(m, nprocs=4)
    assert len(caught) == 1
    assert m.backend == "interp"
    assert _fingerprint(m) == _fingerprint(reference)
    # pinned: the next run neither warns nor calls the generator again
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m.run({})
    assert len(calls) == 1
    assert m.backend == "interp"


def test_unknown_backend_is_rejected():
    cfg = MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)
    for backend in ("jit", "auto"):
        with pytest.raises(ValueError):
            Machine(cfg, backend=backend)


def test_attach_after_elab_run_keeps_the_core():
    m = Machine(_small_2ring())
    HotSpot(words=16, ops=20).run(m, nprocs=4)
    assert m.backend == "elab"
    m.attach_verifier()
    obs = Observability(probes=False)
    m.attach_observability(obs)
    assert m.backend == "elab"
    HotSpot(words=16, ops=20).run(m, nprocs=4)
    assert m.backend == "elab"
    assert obs.tracer.finished


# ----------------------------------------------------------------------
# the checker, the monitor and fault plans run on the generated core
# ----------------------------------------------------------------------
_CHECKED = {
    "prodcons": lambda: ProducerConsumer(rounds=10),
    "hotspot": lambda: HotSpot(words=16, ops=40),
}


@pytest.mark.parametrize(
    "workload, nprocs", [("prodcons", 16), ("hotspot", 64)]
)
def test_checked_and_monitored_run_matches_interp(workload, nprocs):
    runs = {}
    for backend in (None, "interp"):
        machine = Machine(MachineConfig.prototype(), backend=backend)
        checker = machine.attach_verifier()
        monitor = Monitor()
        machine.attach_monitor(monitor)
        _CHECKED[workload]().run(machine, nprocs=nprocs)
        runs[backend] = (
            machine.backend,
            _fingerprint(machine),
            dict(checker.checks),
            monitor.report(),
            monitor.trace.recent(len(monitor.trace)),
        )
    assert runs[None][0] == "elab"
    assert runs["interp"][0] == "interp"
    assert sum(runs[None][2].values()) > 0 and runs[None][4]
    assert runs[None][1:] == runs["interp"][1:]


def _every_fault_plan() -> FaultPlan:
    """Every fault kind, plus the FIFO and nonsinkable-credit squeezes;
    the run completes under both protocols."""
    return FaultPlan(
        seed=4,
        events=[
            FaultEvent("link_stall", 2_000.0,
                       {"ring": "central", "pos": 1, "duration_ns": 3_000.0}),
            FaultEvent("link_stall", 1_000.0,
                       {"ring": "local:0", "pos": 2, "duration_ns": 2_000.0}),
            FaultEvent("service_spike", 1_500.0,
                       {"target": "mem", "station": 0, "duration_ns": 5_000.0,
                        "factor": 4}),
            FaultEvent("service_spike", 500.0,
                       {"target": "nc", "station": 1, "duration_ns": 5_000.0,
                        "factor": 3}),
            FaultEvent("packet_delay", 0.0,
                       {"station": 1, "duration_ns": 8_000.0, "prob": 0.3,
                        "delay_ns": 800.0}),
            FaultEvent("packet_dup", 0.0,
                       {"station": 2, "duration_ns": 8_000.0, "prob": 0.2}),
        ],
        in_fifo_capacity=8,
        nonsink_limit=2,
    )


@pytest.mark.parametrize("nprocs", [16, 64])
def test_faulted_run_matches_interp(nprocs):
    runs = {}
    for backend in (None, "interp"):
        machine = Machine(MachineConfig.prototype(), backend=backend)
        checker = machine.attach_verifier()
        fault = machine.attach_fault(_every_fault_plan())
        HotSpot(words=16, ops=40).run(machine, nprocs=nprocs)
        runs[backend] = (
            machine.backend,
            _fingerprint(machine),
            dict(fault.triggered),
            dict(checker.checks),
        )
    assert runs[None][0] == "elab"
    assert runs["interp"][0] == "interp"
    assert all(runs[None][2].values()), runs[None][2]
    assert runs[None][1:] == runs["interp"][1:]


def test_plain_iterator_program_on_both_cores():
    # a program without ``send`` gets next(): its hits resolve in the
    # batch loop just like a generator's
    snapshots = []
    for backend in ("elab", "interp"):
        machine = Machine(_small_2ring(), backend=backend)
        a = machine.allocate(64, placement="local:0").addr(0)
        machine.run({0: iter([Write(a, 1), Read(a), Read(a), Write(a, 2)])})
        cpu = machine.cpus[0]
        assert machine.backend == backend
        assert cpu.stats.counter("write_misses").value == 1
        assert cpu.stats.counter("reads").value == 2
        assert cpu.stats.counter("writes").value == 1
        assert machine.read_word(a) == 2
        snapshots.append(_fingerprint(machine))
    assert snapshots[0] == snapshots[1]


# ----------------------------------------------------------------------
# dispatch tables pinned against the interpreted handler maps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["numachine", "msi"])
def test_dispatch_tables_match_interp(protocol):
    from repro.interconnect.packet import MsgType
    from repro.protocol import get_protocol

    proto = get_protocol(protocol)

    # run a real workload interpreted so the lazy per-instance handler
    # dicts get built the way production dispatch builds them
    cfg = MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)
    cfg.protocol = protocol
    m = Machine(cfg, backend="interp")
    HotSpot(words=16, ops=20).run(m, nprocs=8)
    nc = next(st.nc for st in m.stations if st.nc._handlers is not None)
    mem = next(
        st.memory for st in m.stations if st.memory._handlers is not None
    )

    # the plug-in's DISPATCH declarations (the elaborator's table source)
    # name exactly the interp-registered handlers, and point at the same
    # underlying functions
    nc_table = {MsgType[name]: fname for name, fname in proto.nc_class.DISPATCH}
    assert set(nc_table) == set(nc._handlers)
    for mt, bound in nc._handlers.items():
        assert bound.__func__ is getattr(proto.nc_class, nc_table[mt])

    mem_table = {
        MsgType[name]: fname for name, fname in proto.memory_class.DISPATCH
    }
    assert set(mem_table) == set(mem._handlers)
    for mt, bound in mem._handlers.items():
        assert bound.__func__ is getattr(proto.memory_class, mem_table[mt])


# ----------------------------------------------------------------------
# codegen determinism + in-memory compile
# ----------------------------------------------------------------------
def test_codegen_is_deterministic():
    cfg = MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)
    a = codegen.generate_source(MachineIR.from_machine(Machine(cfg)))
    b = codegen.generate_source(MachineIR.from_machine(Machine(cfg)))
    assert a == b
    other = codegen.generate_source(
        MachineIR.from_machine(Machine(MachineConfig.prototype()))
    )
    assert other != a


def test_default_run_writes_nothing_to_disk(tmp_path, monkeypatch):
    monkeypatch.setenv("NUMACHINE_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("NUMACHINE_CACHE", "1")
    # a shape no other test elaborates: a writer that skips cores this
    # process already compiled would still be caught
    m = Machine(MachineConfig.small(stations_per_ring=3, rings=2, cpus=1))
    HotSpot(words=16, ops=10).run(m, nprocs=6)
    assert m.backend == "elab"
    assert list(tmp_path.iterdir()) == []


def test_one_compiled_core_per_config():
    from repro.interconnect.interfaces import (
        InterRingInterface,
        StationRingInterface,
    )
    from repro.interconnect.ring import Ring
    from repro.system.bus import Bus
    from repro.system.station import Station

    a, b, traced = (Machine(_small_2ring()) for _ in range(3))
    Observability(probes=False).attach(traced)
    for m in (a, b, traced):
        HotSpot(words=16, ops=10).run(m, nprocs=4)
    # a traced machine holds the same generated classes as untraced ones
    for m in (b, traced):
        assert type(m.cpus[0]) is type(a.cpus[0])
        assert type(m.stations[0].bus) is type(a.stations[0].bus)
        assert type(m.stations[0].nc) is type(a.stations[0].nc)
    # the generated core specializes the station side only: rings, ring
    # interfaces and stations run the hand-written classes on both cores
    assert a.backend == "elab"
    assert all(type(st) is Station for st in a.stations)
    assert all(type(st.bus) is not Bus for st in a.stations)
    assert all(
        type(st.ring_interface) is StationRingInterface for st in a.stations
    )
    assert all(type(ring) is Ring for ring in a.net.rings.values())
    assert a.net.iris
    assert all(type(iri) is InterRingInterface for iri in a.net.iris)


def test_generated_code_tracebacks_show_source_lines():
    ir = MachineIR.from_machine(Machine(_small_2ring()))
    mod = elab_backend.load(codegen.generate_source(ir))
    with pytest.raises(TypeError) as info:
        mod._bus_complete(None)  # not an (bus, start, on_complete) tuple
    text = "".join(traceback.format_exception(info.value))
    assert "in _bus_complete" in text
    assert "bus, start, on_complete = arg" in text


@pytest.mark.skipif(
    sys.implementation.name != "cpython"
    or sys.version_info[:2] not in ((3, 11), (3, 12)),
    reason="inspects the CPython 3.11/3.12 specializing interpreter",
)
def test_reclassed_components_keep_specialized_attribute_loads():
    """After ``sync`` re-classes a component, an attribute load on it must
    stay specialized.  An instance whose attributes still sit in the old
    class's inline layout deopts on every load and keeps dropping back to
    the adaptive form, so the opcode is sampled across a long warm-up."""
    m = Machine(MachineConfig.prototype())
    elab_backend.sync(m)
    st = m.stations[0]
    generic = {"LOAD_ATTR", "LOAD_ATTR_ADAPTIVE"}
    for comp in (st.bus, st.memory, st.memory.out_port, st.nc, st.cpus[0]):
        loader = _engine_loader()
        seen = set()
        for i in range(2000):
            loader(comp)
            if i % 50 == 49:
                seen.update(
                    ins.opname
                    for ins in dis.get_instructions(loader, adaptive=True)
                    if ins.opname.startswith("LOAD_ATTR")
                )
        assert seen and not seen & generic, (type(comp).__name__, seen)


def _load_engine(obj):
    return obj.engine


def _engine_loader():
    """A copy of ``_load_engine`` with its own code object, so its inline
    caches start cold."""
    return types.FunctionType(_load_engine.__code__.replace(), {})
