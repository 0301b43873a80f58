"""Tests for the cache arrays: the direct-mapped L1/L2 arrays and the NC's
direct-mapped slot array — including a hypothesis model check."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import CacheArray
from repro.cache.nc_array import NCArray, NCLine
from repro.core.states import CacheState, LineState

LINE = 64


def test_lookup_miss_and_install():
    c = CacheArray("t", size_bytes=4 * LINE, line_bytes=LINE)
    assert c.lookup(0) is None
    c.install(0, CacheState.SHARED, [1] * 8)
    line = c.lookup(0)
    assert line.state is CacheState.SHARED
    assert line.data == [1] * 8


def test_direct_mapped_conflict_evicts():
    c = CacheArray("t", size_bytes=4 * LINE, line_bytes=LINE)
    c.install(0, CacheState.DIRTY, [7] * 8)
    victim = c.install(4 * LINE, CacheState.SHARED, [0] * 8)  # same set
    assert victim is not None
    assert victim.addr == 0
    assert victim.state is CacheState.DIRTY
    assert c.lookup(0) is None


def test_invalidate_and_downgrade():
    c = CacheArray("t", size_bytes=4 * LINE, line_bytes=LINE)
    c.install(0, CacheState.DIRTY, [1])
    assert c.downgrade(0).state is CacheState.SHARED
    assert c.invalidate(0).addr == 0
    assert c.lookup(0) is None


def test_reinstall_same_line_no_victim():
    c = CacheArray("t", size_bytes=2 * LINE, line_bytes=LINE)
    c.install(0, CacheState.SHARED, [1])
    victim = c.install(0, CacheState.DIRTY, [2])
    assert victim is None
    assert c.lookup(0).state is CacheState.DIRTY


@given(st.lists(st.tuples(st.integers(0, 15), st.booleans()), max_size=120))
@settings(max_examples=80, deadline=None)
def test_cache_array_matches_reference_direct_mapped_model(ops):
    """Cross-check CacheArray against a brute-force direct-mapped model."""
    nsets = 4
    c = CacheArray("t", size_bytes=nsets * LINE, line_bytes=LINE)
    model = {}  # set -> the address it holds
    for block, is_install in ops:
        addr = block * LINE
        s = block % nsets
        if is_install:
            victim = c.install(addr, CacheState.SHARED, [])
            occupant = model.get(s)
            if occupant is None or occupant == addr:
                assert victim is None
            else:
                assert victim is not None and victim.addr == occupant
            model[s] = addr
        else:
            line = c.lookup(addr)
            assert (line is not None) == (model.get(s) == addr)
    assert [line.addr for line in c.lines()] == [model[s] for s in sorted(model)]


# ----------------------------------------------------------------------
# the NC array
# ----------------------------------------------------------------------
def test_nc_probe_requires_tag_match():
    nc = NCArray("nc", size_bytes=4 * LINE, line_bytes=LINE)
    nc.insert(NCLine(addr=0, state=LineState.GV))
    assert nc.probe(0) is not None
    assert nc.probe(4 * LINE) is None          # same slot, different tag
    assert nc.occupant(4 * LINE).addr == 0     # but the slot is occupied


def test_nc_insert_displaces_conflicting_line():
    nc = NCArray("nc", size_bytes=4 * LINE, line_bytes=LINE)
    nc.insert(NCLine(addr=0, state=LineState.GV))
    displaced = nc.insert(NCLine(addr=4 * LINE, state=LineState.GI))
    assert displaced.addr == 0
    assert nc.probe(4 * LINE) is not None
    assert nc.probe(0) is None


def test_nc_insert_same_line_not_displaced():
    nc = NCArray("nc", size_bytes=4 * LINE, line_bytes=LINE)
    nc.insert(NCLine(addr=0, state=LineState.GV))
    displaced = nc.insert(NCLine(addr=0, state=LineState.LI))
    assert displaced is None


def test_nc_evict_checks_tag():
    nc = NCArray("nc", size_bytes=4 * LINE, line_bytes=LINE)
    nc.insert(NCLine(addr=0, state=LineState.GV))
    assert nc.evict(4 * LINE) is None   # tag mismatch: nothing evicted
    assert nc.evict(0).addr == 0
    assert nc.occupancy() == 0


def test_nc_data_valid_property():
    assert NCLine(addr=0, state=LineState.GV, data=[1]).data_valid
    assert NCLine(addr=0, state=LineState.LV, data=[1]).data_valid
    assert not NCLine(addr=0, state=LineState.LI, data=[1]).data_valid
    assert not NCLine(addr=0, state=LineState.GV, data=None).data_valid
