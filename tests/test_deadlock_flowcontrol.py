"""Deadlock avoidance and flow control (paper §2.4): sinkable/nonsinkable
separation, the flush-storm stress, and genuine-deadlock detection."""

import pytest

from repro import Barrier, DeadlockError, Machine, Read, Write
from repro.workloads.synthetic import FlushStorm, HotSpot

import core_references
from conftest import small_config


def test_genuine_deadlock_is_detected():
    """A barrier whose participant set includes a CPU that never runs must
    be reported as a deadlock, not silently dropped."""
    m = Machine(small_config())

    def prog():
        yield Barrier(0, (0, 1))   # cpu 1 never starts a program

    with pytest.raises(DeadlockError):
        m.run({0: prog()})


def test_blocked_cpu_reported_with_address():
    """The deadlock report names the blocked CPU (debuggability)."""
    m = Machine(small_config())

    def prog():
        yield Barrier(0, (0, 3))

    with pytest.raises(DeadlockError, match="barrier"):
        m.run({0: prog()})


def test_flush_storm_completes_and_loses_nothing():
    """§2.4: 'many processors simultaneously flush modified data from their
    caches to remote memory' — the stress the flow control must survive.
    The workload asserts every flushed value internally."""
    m = Machine(small_config())
    FlushStorm(lines_per_cpu=24).run(m)  # data verified by the workload


def test_hotspot_contention_completes():
    """All CPUs hammering one station's memory: heavy NACK/retry traffic
    must still converge."""
    m = Machine(small_config())
    HotSpot(ops=80).run(m)
    assert m.memory_stats().get("nacks", 0) > 0, "no contention generated"


def test_nonsink_limit_one_still_completes():
    """Even with a single nonsinkable credit per station, the protocol makes
    progress (credits recycle on delivery)."""
    cfg = small_config(nonsink_limit=1)
    m = Machine(cfg)
    r = m.allocate(4096, placement="local:3")
    n = cfg.num_cpus

    def prog(cid):
        for i in range(6):
            v = yield Read(r.addr(((cid + i) % 8) * 8))
        yield Write(r.addr(cid * 8), cid)

    m.run({c: prog(c) for c in range(n)})
    for c in range(n):
        assert m.read_word(r.addr(c * 8)) == c


def test_ring_input_fifo_backpressure_counted():
    """A hot-spot behind shrunken ring input FIFOs: the halt mechanism
    engages, the run completes, and the halt count, canonical surface and
    metrics snapshot equal the interpreted core's pinned ones."""
    halts = core_references.check("backpressure_storm")
    assert halts > 0, "backpressure never engaged with capacity-6 FIFOs"


def test_full_machine_backpressure_past_high_water_drains_cleanly():
    """Regression for the 64-processor configuration: all 64 CPUs burst
    reads at one home station through deliberately small ring input FIFOs,
    driving them past their high-water marks.  The halt/resume protocol
    must (1) engage, (2) stop the upstream link *before* any FIFO
    overflows, and (3) release every halted link again so the run drains
    completely instead of deadlocking."""
    from repro import MachineConfig

    cfg = MachineConfig.prototype()
    # 8 entries (high-water 6) is the tightest FIFO this burst survives:
    # the two-entry margin just covers the packets already committed on
    # the upstream link when the halt engages
    cfg.ring_in_fifo_capacity = 8
    m = Machine(cfg)
    r = m.allocate(64 * 64, placement="local:0")
    n = cfg.num_cpus
    assert n == 64

    def prog(cid):
        total = 0.0
        for i in range(10):
            total += yield Read(r.addr(((cid * 10 + i) * 8) % (64 * 64)))
        yield Write(r.addr(cid * 8), cid + 1)

    # must complete without DeadlockError despite the tiny FIFOs
    m.run({c: prog(c) for c in range(n)})

    halts = sum(ring.halts.value for ring in m.net.local_rings)
    if m.net.central_ring is not None:
        halts += m.net.central_ring.halts.value
    assert halts > 0, "backpressure never engaged at P=64 with capacity-8 FIFOs"

    for st in m.stations:
        fifo = st.ring_interface.in_fifo
        # high-water fired (the halt path is what kept it below capacity)
        assert fifo.max_depth <= fifo.capacity, f"{fifo.name} overflowed"
        # every halted link resumed: nothing may remain queued at the end
        assert len(fifo) == 0, f"{fifo.name} failed to drain"

    # data integrity end to end under sustained backpressure
    for c in range(n):
        assert m.read_word(r.addr(c * 8)) == c + 1
