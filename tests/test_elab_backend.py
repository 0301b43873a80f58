"""The elaborated backend's contract.

The specialized core generated by :mod:`repro.elab.codegen` must be
bit-identical to the interpreted classes on the whole metrics snapshot
(``Machine.obs_snapshot(include_wall=False)``: event count, simulated time,
every counter, accumulator and FIFO statistic, utilizations) for every
machine shape, workload and processor count.  These tests pin that
contract, the hook/backend interaction (component-slot hooks force the
interpreted path, engine-level samplers do not), the dispatch tables
against the interpreted handler maps, and the in-memory compile of
generated cores.
"""

from __future__ import annotations

import traceback

import pytest

from repro.elab import backend as elab_backend
from repro.elab import codegen
from repro.elab.ir import MachineIR
from repro.interconnect.routing import Geometry
from repro.monitor import Monitor
from repro.obs import Observability
from repro.system.config import MachineConfig
from repro.system.machine import Machine
from repro.workloads.lu import LUContiguous
from repro.workloads.synthetic import HotSpot


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


def test_default_selection_follows_hooks(tmp_path):
    plain, sampled, traced, verified = (Machine(_small_2ring()) for _ in range(4))
    sampler = Observability(trace=False, stream_path=tmp_path / "s.jsonl")
    sampler.attach(sampled)
    Observability(probes=False).attach(traced)
    verified.attach_verifier()
    for m in (plain, sampled, traced, verified):
        HotSpot(words=16, ops=10).run(m, nprocs=4)
    sampler.stream.close()
    # engine-level samplers ride the elab core; component-slot hooks do not
    assert plain.backend == "elab"
    assert sampled.backend == "elab"
    assert traced.backend == "interp"
    assert verified.backend == "interp"


def test_unknown_backend_is_rejected():
    cfg = MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)
    for backend in ("jit", "auto"):
        with pytest.raises(ValueError):
            Machine(cfg, backend=backend)


# ----------------------------------------------------------------------
# hooks force the interpreted path
# ----------------------------------------------------------------------
def test_hooks_force_interp():
    m = Machine(
        MachineConfig.small(stations_per_ring=2, rings=2, cpus=2),
        backend="elab",
    )
    m.attach_verifier()
    HotSpot(words=16, ops=20).run(m, nprocs=4)
    assert m.backend == "interp"


@pytest.mark.parametrize("attach", ["monitor", "verifier"])
def test_interp_only_hooks_still_force_interp(attach):
    machine = Machine(MachineConfig.prototype(), backend="elab")
    Observability(trace=False).attach(machine)
    if attach == "monitor":
        machine.attach_monitor(Monitor())
    else:
        machine.attach_verifier()
    HotSpot(words=16, ops=10).run(machine, nprocs=4)
    assert machine.backend == "interp"


def test_hooked_run_matches_elab_run(monkeypatch):
    cfg = lambda: MachineConfig.small(stations_per_ring=2, rings=2, cpus=2)
    m = Machine(cfg(), backend="elab")
    HotSpot(words=16, ops=20).run(m, nprocs=4)
    assert m.backend == "elab"
    hooked = Machine(cfg(), backend="elab")
    hooked.attach_verifier()
    HotSpot(words=16, ops=20).run(hooked, nprocs=4)
    assert hooked.backend == "interp"
    assert _fingerprint(m) == _fingerprint(hooked)


def test_attach_after_elab_run_reverts_and_resyncs():
    m = Machine(
        MachineConfig.small(stations_per_ring=2, rings=2, cpus=2),
        backend="elab",
    )
    HotSpot(words=16, ops=20).run(m, nprocs=4)
    assert m.backend == "elab"
    m.attach_verifier()  # drained engine: revert is legal here
    assert m.backend == "interp"


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


def test_generated_core_carries_no_tracer_site():
    # the one generated core checks no hook slot: tracers run interpreted
    shapes = (
        MachineConfig.prototype,
        lambda: MachineConfig.small(stations_per_ring=2, rings=1, cpus=2),
        _small_2ring,
    )
    for protocol in ("numachine", "msi"):
        for shape in shapes:
            cfg = shape()
            cfg.protocol = protocol
            src = codegen.generate_source(MachineIR.from_machine(Machine(cfg)))
            assert "tracer" not in src


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
    from repro.cpu.processor import Processor
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
    assert type(a.cpus[0]) is type(b.cpus[0])
    assert type(a.stations[0].bus) is type(b.stations[0].bus)
    # a traced machine holds the interpreted classes
    assert type(traced.cpus[0]) is Processor
    assert type(traced.stations[0].bus) is Bus
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
