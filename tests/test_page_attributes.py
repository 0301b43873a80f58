"""Tests for §3.2 software-managed caching: per-page attributes."""

import pytest

from repro import AtomicRMW, Barrier, Machine, Read, SimulationError, Write
from repro.core.states import CacheState, LineState
from repro.system.address_map import PageAttributes

from conftest import small_config


def test_uncached_page_never_caches():
    m = Machine(small_config())
    r = m.allocate(4096, placement="local:0",
                   attrs=PageAttributes(cacheable=False))

    def prog():
        yield Write(r.addr(0), 5)
        v = yield Read(r.addr(0))
        assert v == 5
        v = yield Read(r.addr(0))   # still uncached: goes to memory again
        assert v == 5

    m.run({0: prog()})
    la = m.config.line_addr(r.addr(0))
    assert m.cpus[0].l2.lookup(la) is None
    assert m.cpus[0].stats.counter("uncached_ops").value == 3
    assert m.stations[0].memory.stats.counter("uncached_reads").value == 2
    assert m.stations[0].memory.read_line(la)[0] == 5


def test_uncached_remote_page_round_trips():
    m = Machine(small_config())
    r = m.allocate(4096, placement="local:3",
                   attrs=PageAttributes(cacheable=False))
    allc = (0, 1)

    def writer():
        yield Write(r.addr(8), 77)
        yield Barrier(0, allc)

    def reader():
        yield Barrier(0, allc)
        v = yield Read(r.addr(8))
        assert v == 77

    m.run({0: writer(), 1: reader()})
    # neither station's NC ever saw the line
    la = m.config.line_addr(r.addr(8))
    for st in m.stations:
        assert st.nc.array.probe(la) is None


def test_uncached_rmw_rejected():
    m = Machine(small_config())
    r = m.allocate(4096, placement="local:0",
                   attrs=PageAttributes(cacheable=False))

    def prog():
        yield AtomicRMW(r.addr(0), lambda v: v + 1)

    with pytest.raises(SimulationError, match="cacheable"):
        m.run({0: prog()})


def test_exclusive_only_page_reads_take_ownership():
    m = Machine(small_config())
    r = m.allocate(4096, placement="local:0",
                   attrs=PageAttributes(exclusive_only=True))

    def prog():
        v = yield Read(r.addr(0))
        assert v == 0
        yield Write(r.addr(0), 1)   # already exclusive: pure cache hit

    m.run({0: prog()})
    la = m.config.line_addr(r.addr(0))
    assert m.cpus[0].l2.lookup(la).state is CacheState.DIRTY
    e = m.stations[0].memory.directory.entry(la)
    assert e.state is LineState.LI
    # the write after the exclusive read generated no extra request
    assert m.cpus[0].stats.counter("write_misses").value == 0


def test_exclusive_only_page_migrates_between_readers():
    m = Machine(small_config())
    r = m.allocate(4096, placement="local:0",
                   attrs=PageAttributes(exclusive_only=True))
    allc = (0, 1)

    def a():
        yield Read(r.addr(0))
        yield Barrier(0, allc)
        yield Barrier(1, allc)

    def b():
        yield Barrier(0, allc)
        v = yield Read(r.addr(0))   # pulls the line away from cpu 0
        assert v == 0
        yield Barrier(1, allc)

    m.run({0: a(), 1: b()})
    la = m.config.line_addr(r.addr(0))
    # only one cache may hold the line at a time
    holders = [c.cpu_id for c in m.cpus if c.l2.lookup(la)]
    assert len(holders) == 1


def test_default_pages_unaffected():
    m = Machine(small_config())
    r = m.allocate(4096, placement="local:0")
    assert m.memory_map.attrs_for(r.addr(0)).cacheable

    def prog():
        yield Write(r.addr(0), 9)
        v = yield Read(r.addr(0))
        assert v == 9

    m.run({0: prog()})
    la = m.config.line_addr(r.addr(0))
    assert m.cpus[0].l2.lookup(la) is not None
    assert m.cpus[0].stats.counter("uncached_ops").value == 0
