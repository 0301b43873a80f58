"""Tests for the processor model: cache fast paths, miss classification,
write-backs, barrier registers, interrupts."""

from repro import (
    AtomicRMW,
    Barrier,
    Compute,
    Machine,
    MachineConfig,
    MsgType,
    Read,
    Write,
)
from repro.core.states import CacheState
from repro.cpu.processor import Processor
from repro.interconnect.routing import Geometry
from repro.system.station import Station

import core_references
from conftest import single, small_config


def test_read_after_write_hits_cache():
    m = Machine(small_config())
    r = m.allocate(4096, placement="local:0")
    cpu = m.cpus[0]
    vals = single(m, 0, Write(r.addr(0), 42), Read(r.addr(0)), Read(r.addr(8)))
    assert vals[1] == 42
    assert vals[2] == 0                 # untouched word in the same line
    # one write miss, then pure hits
    assert cpu.stats.counters.get("write_misses", 0) == 1
    assert cpu.stats.counters.get("read_misses", 0) == 0
    assert cpu.stats.counters.get("reads", 0) == 2


def test_l1_mirrors_l2_state():
    m = Machine(small_config())
    r = m.allocate(4096, placement="local:0")
    cpu = m.cpus[0]
    single(m, 0, Write(r.addr(0), 1))
    la = m.config.line_addr(r.addr(0))
    assert cpu.l2.lookup(la).state is CacheState.DIRTY
    l1 = cpu.l1.lookup(la)
    assert l1 is not None and l1.state is CacheState.DIRTY
    cpu.invalidate_line(la)
    assert cpu.l1.lookup(la) is None and cpu.l2.lookup(la) is None


def test_read_then_write_uses_upgrade():
    m = Machine(small_config())
    r = m.allocate(4096, placement="local:0")
    single(m, 0, Read(r.addr(0)), Write(r.addr(0), 7))
    # the memory must not have sent data twice: state is LI with one owner
    la = m.config.line_addr(r.addr(0))
    entry = m.stations[0].memory.directory.entry(la)
    assert entry.state.value == "LI"
    assert m.read_word(r.addr(0)) == 7


def test_dirty_eviction_writes_back():
    cfg = small_config()
    m = Machine(cfg)
    r = m.allocate(4 * cfg.l2_size_bytes, placement="local:0")
    cpu = m.cpus[0]
    nlines = cfg.l2_size_bytes // cfg.line_bytes

    def prog():
        # dirty more lines than fit in L2 -> forced write-backs
        for i in range(nlines + 8):
            yield Write(r.addr(i * cfg.line_bytes), i)
        # the evicted earliest lines must still read back correctly
        for i in range(8):
            v = yield Read(r.addr(i * cfg.line_bytes))
            assert v == i, (i, v)

    m.run({0: prog()})
    assert cpu.stats.counters.get("writebacks", 0) >= 8


def test_compute_costs_time():
    m = Machine(small_config())
    res1 = m.run({0: iter([Compute(10)])})

    def big():
        yield Compute(10000)

    m2 = Machine(small_config())
    res2 = m2.run({0: big()})
    assert m2.parallel_time_ns(res2) > m.parallel_time_ns(res1)


def test_rmw_atomicity_under_contention():
    cfg = small_config()
    m = Machine(cfg)
    r = m.allocate(64, placement="local:1")
    n = cfg.num_cpus

    def inc():
        for _ in range(10):
            yield AtomicRMW(r.addr(0), lambda v: v + 1)

    m.run({c: inc() for c in range(n)})
    assert m.read_word(r.addr(0)) == 10 * n


def test_barrier_synchronizes_all():
    cfg = small_config()
    m = Machine(cfg)
    r = m.allocate(8 * cfg.num_cpus, placement="local:0")
    order = []

    def prog(cid):
        yield Write(r.addr(cid * 8), 1)
        yield Barrier(0, tuple(range(cfg.num_cpus)))
        total = 0
        for i in range(cfg.num_cpus):
            v = yield Read(r.addr(i * 8))
            total += v
        order.append((cid, total))

    m.run({c: prog(c) for c in range(cfg.num_cpus)})
    # after the barrier every cpu must observe every flag
    assert all(total == cfg.num_cpus for _, total in order)


def test_consecutive_barriers_sense_alternation():
    cfg = small_config()
    m = Machine(cfg)
    allc = tuple(range(cfg.num_cpus))

    def prog(cid):
        for b in range(6):
            yield Barrier(b, allc)
            yield Compute(cid * 3 + 1)   # skew arrival times

    m.run({c: prog(c) for c in range(cfg.num_cpus)})
    for cpu in m.cpus:
        assert cpu.barrier_regs == [0, 0]  # all consumed


def _log_barrier_releases(monkeypatch):
    """Record, per BARRIER_WRITE a station dispatches, the station id and
    the cpus it released, in release order."""
    log, current = [], []
    deliver = Station.deliver_from_ring
    barrier_write = Processor.barrier_write

    def logged_deliver(self, pkt):
        if pkt.mtype is not MsgType.BARRIER_WRITE:
            return deliver(self, pkt)
        current.append([])
        log.append((self.station_id, current[-1]))
        try:
            deliver(self, pkt)
        finally:
            current.pop()

    def logged_write(self, bit, sense):
        if bit:  # bit 0 is an arriving cpu's own release check
            current[-1].append(self.cpu_id)
        barrier_write(self, bit, sense)

    # patched before any machine is built: ring interfaces bind deliver_cb
    monkeypatch.setattr(Station, "deliver_from_ring", logged_deliver)
    monkeypatch.setattr(Processor, "barrier_write", logged_write)
    return log


def _run_barriers(machine, cpus):
    def prog(cid):
        for b in range(3):
            yield Barrier(b, cpus)
            yield Compute(cid + 1)

    machine.run({c: prog(c) for c in cpus})
    for c in cpus:
        assert machine.cpus[c].barrier_regs == [0, 0]


def _assert_releases(log, cpus, cps):
    assert log
    for sid, released in log:
        assert released == [c for c in cpus if c // cps == sid], sid


def test_barrier_fan_out_releases_local_cpus_in_tuple_order(monkeypatch):
    log = _log_barrier_releases(monkeypatch)
    cfg = small_config()                 # 2x2 stations, 2 cpus each
    cpus = (6, 1, 7, 0, 2)               # stations 3, 0, 3, 0, 1
    m = Machine(cfg)
    _run_barriers(m, cpus)
    _assert_releases(log, cpus, cfg.cpus_per_station)
    # the inexact mask over-selects station 2, which releases nobody
    assert {sid for sid, _ in log} == {0, 1, 2, 3}
    assert all(not released for sid, released in log if sid == 2)


def test_barrier_plans_are_per_machine(monkeypatch):
    """One tuple, two geometries: each machine groups it by its own
    stations (a shared plan would strand cpus 2 and 3 on one of them)."""
    log = _log_barrier_releases(monkeypatch)
    cpus = (3, 2, 1, 0)
    for geometry in (Geometry((2, 2), processors_per_station=2),
                     Geometry((2,), processors_per_station=4)):
        log.clear()
        m = Machine(MachineConfig(geometry=geometry))
        _run_barriers(m, cpus)
        _assert_releases(log, cpus, geometry.processors_per_station)


def test_interrupt_register_or_and_clear():
    m = Machine(small_config())
    cpu = m.cpus[0]
    cpu.raise_interrupt(0b01)
    cpu.raise_interrupt(0b10)
    assert cpu.interrupt_reg == 0b11
    assert cpu.read_interrupt_reg() == 0b11
    assert cpu.interrupt_reg == 0


def test_phase_register_tags_requests():
    from repro import Phase
    from repro.monitor import Monitor

    m = Machine(small_config())
    mon = Monitor()
    m.attach_monitor(mon)
    r = m.allocate(4096, placement="local:0")

    def prog():
        yield Phase(9)
        yield Write(r.addr(0), 1)

    m.run({0: prog()})
    assert mon.phase_table.total(col=9) >= 1


def test_plain_iterator_program():
    # a program without ``send`` gets next(): its hits resolve in the
    # batch loop just like a generator's, and the run's snapshot equals
    # the pinned reference
    machine, a = core_references.check("plain_iterator")
    cpu = machine.cpus[0]
    assert cpu.stats.counters.get("write_misses", 0) == 1
    assert cpu.stats.counters.get("reads", 0) == 2
    assert cpu.stats.counters.get("writes", 0) == 1
    assert machine.read_word(a) == 2


def test_batching_does_not_change_results():
    """cpu_batch is a speed/accuracy knob; final values must be identical."""
    outcomes = []
    for batch in (1, 4, 64):
        cfg = small_config(cpu_batch=batch)
        m = Machine(cfg)
        r = m.allocate(512 * 8)
        n = cfg.num_cpus

        def prog(cid):
            for i in range(cid, 256, n):
                yield Write(r.addr(i * 8), cid * 1000 + i)
            yield Barrier(0, tuple(range(n)))

        m.run({c: prog(c) for c in range(n)})
        outcomes.append([m.read_word(r.addr(i * 8)) for i in range(256)])
    assert outcomes[0] == outcomes[1] == outcomes[2]
