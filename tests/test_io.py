"""Tests for the station I/O module (DMA + completion interrupts, §3.2)."""

from repro import Barrier, Machine, Read, SoftOp, Write
from repro.system.io import IORequest

from conftest import small_config


def test_dma_read_deposits_lines_and_interrupts():
    m = Machine(small_config())
    cfg = m.config
    buf = m.allocate(4 * cfg.line_bytes, placement="local:0")
    payload = [[10 + i] * cfg.line_words for i in range(4)]

    def prog():
        yield SoftOp("io_read", {
            "addr": buf.addr(0), "nlines": 4, "intr_bits": 0b1,
            "payload": payload,
        })
        bits = yield SoftOp("wait_interrupt", {})
        assert bits == 0b1
        for i in range(4):
            v = yield Read(buf.addr(i * cfg.line_bytes))
            assert v == 10 + i

    m.run({0: prog()})
    io = m.stations[0].io
    assert io.stats.counters.get("reads", 0) == 1
    assert io.stats.counters.get("interrupts", 0) == 1


def test_dma_read_kills_stale_cached_copies():
    """Device input must invalidate processor copies of the target buffer."""
    m = Machine(small_config())
    cfg = m.config
    buf = m.allocate(cfg.line_bytes, placement="local:0")

    def prog():
        v = yield Read(buf.addr(0))
        assert v == 0                # cached now
        yield SoftOp("io_read", {
            "addr": buf.addr(0), "nlines": 1,
            "payload": [[99] * cfg.line_words],
        })
        yield SoftOp("wait_interrupt", {})
        v = yield Read(buf.addr(0))  # the cached 0 was killed: fresh fetch
        assert v == 99, v

    m.run({0: prog()})


def test_dma_write_sees_coherent_dirty_data():
    """Device output must observe the latest cached (dirty) values."""
    m = Machine(small_config())
    cfg = m.config
    buf = m.allocate(2 * cfg.line_bytes, placement="local:0")
    captured = {}

    def prog():
        yield Write(buf.addr(0), 555)               # dirty in L2
        yield SoftOp("io_write", {"addr": buf.addr(0), "nlines": 2})
        yield SoftOp("wait_interrupt", {})

    m.run({0: prog()})
    io = m.stations[0].io
    assert io.stats.counters.get("writes", 0) == 1


def test_io_interrupt_can_target_remote_cpu():
    """§3.2: 'system software can specify the processor to be interrupted
    as well as the bit pattern' — including a processor on another station."""
    m = Machine(small_config())
    cfg = m.config
    buf = m.allocate(cfg.line_bytes, placement="local:0")
    remote_cpu = 6  # station 3
    allc = (0, remote_cpu)

    def initiator():
        # submit on station 0's device, interrupt cpu 6 with pattern 0b1000
        yield SoftOp("io_read", {
            "addr": buf.addr(0), "nlines": 1,
            "notify_cpu": remote_cpu, "intr_bits": 0b1000,
            "payload": [[1] * cfg.line_words],
        })
        yield Barrier(0, allc)

    def waiter():
        bits = yield SoftOp("wait_interrupt", {})
        assert bits == 0b1000
        yield Barrier(0, allc)

    m.run({0: initiator(), remote_cpu: waiter()})


def test_io_requests_queue_fifo():
    m = Machine(small_config())
    cfg = m.config
    buf = m.allocate(8 * cfg.line_bytes, placement="local:1")
    io = m.stations[1].io
    done = []
    for i in range(3):
        io.submit(IORequest(
            kind="read", addr=buf.addr(i * cfg.line_bytes), nlines=1,
            notify_cpu=2, payload=[[i] * cfg.line_words],
        ))
    m.cpus[2].on_interrupt = lambda bits: done.append(m.cpus[2].read_interrupt_reg())
    m.engine.run()
    assert io.stats.counters.get("reads", 0) == 3
    la0 = cfg.line_addr(buf.addr(0))
    assert m.stations[1].memory.read_line(la0)[0] == 0
