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


def test_l1_line_carries_no_data():
    c = CacheArray("t", size_bytes=4 * LINE, line_bytes=LINE)
    c.install(0, CacheState.SHARED, None)
    assert c.lookup(0).data is None
    data = [3] * 8
    c.install(0, CacheState.DIRTY, data)
    assert c.lookup(0).data is data
    c.install(0, CacheState.SHARED, None)      # state only: data kept
    assert c.lookup(0).data is data


#: cache operations of the model checks; ``install`` carries a data flag
_CACHE_OPS = ("install", "lookup", "remove", "invalidate", "downgrade")
#: installs use blocks 0-11; 12-15 are only ever probed (never installed)
_INSTALLED_BLOCKS = 12


@given(st.lists(
    st.tuples(
        st.sampled_from(_CACHE_OPS),
        st.integers(0, 15),
        st.sampled_from((0, 0, 0, 8, 33)),          # byte offset in the line
        st.sampled_from((CacheState.SHARED, CacheState.DIRTY)),
        st.booleans(),                              # install with data
    ),
    max_size=120,
))
@settings(max_examples=150, deadline=None)
def test_cache_array_matches_reference_direct_mapped_model(ops):
    """Cross-check CacheArray against a brute-force direct-mapped model:
    one dict, set index -> ``[addr, state, data]``, probed with a tag
    compare (the set-indexed layout the address-keyed arrays replaced)."""
    nsets = 4
    c = CacheArray("t", size_bytes=nsets * LINE, line_bytes=LINE)
    model = {}

    def resident(addr):
        entry = model.get((addr // LINE) % nsets)
        return entry if entry is not None and entry[0] == addr else None

    def same(line, entry):
        if entry is None:
            return line is None
        return line is not None and [line.addr, line.state, line.data] == entry

    for op, block, offset, state, with_data in ops:
        if op == "install" and block >= _INSTALLED_BLOCKS:
            op = "lookup"
        addr = block * LINE + offset
        s = (addr // LINE) % nsets
        entry = resident(addr)
        if op == "install":
            data = [block] * 8 if with_data else None
            victim = c.install(addr, state, data)
            if entry is not None:
                assert victim is None
                entry[1] = state
                if data is not None:
                    entry[2] = data
            else:
                assert same(victim, model.get(s))
                model[s] = [addr, state, data]
        elif op == "lookup":
            assert same(c.lookup(addr), entry)
        elif op in ("remove", "invalidate"):
            got = getattr(c, op)(addr)
            assert same(got, entry)
            if entry is not None:
                del model[s]
        else:
            if entry is not None and entry[1] is CacheState.DIRTY:
                entry[1] = CacheState.SHARED
            assert same(c.downgrade(addr), entry)
        assert c.occupancy() == len(model)
        assert [[x.addr, x.state, x.data] for x in c.lines()] == [
            model[k] for k in sorted(model)
        ]
    # the bound probe still reads the live dict
    assert c.lookup.__self__ is c._lines


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


@given(st.lists(
    st.tuples(
        st.sampled_from(("insert", "probe", "occupant", "evict")),
        st.integers(0, 15),
        st.sampled_from((0, 0, 0, 8)),              # byte offset in the line
    ),
    max_size=120,
))
@settings(max_examples=150, deadline=None)
def test_nc_array_matches_single_slot_dict_model(ops):
    """Cross-check NCArray against the one-dict layout it replaced: slot
    index -> occupant, with a tag compare on probe and evict."""
    nslots = 4
    nc = NCArray("nc", size_bytes=nslots * LINE, line_bytes=LINE)
    slots = {}

    def slot(addr):
        return (addr // LINE) % nslots

    def tagged(addr):
        line = slots.get(slot(addr))
        return line if line is not None and line.addr == addr else None

    for op, block, offset in ops:
        addr = block * LINE + offset
        if op == "insert":
            if block >= _INSTALLED_BLOCKS:
                continue
            line = NCLine(addr=addr, state=LineState.GV)
            expect = slots.get(slot(addr))
            if expect is not None and expect.addr == addr:
                expect = None
            slots[slot(addr)] = line
            assert nc.insert(line) is expect
        elif op == "probe":
            assert nc.probe(addr) is tagged(addr)
        elif op == "occupant":
            assert nc.occupant(addr) is slots.get(slot(addr))
        else:
            expect = tagged(addr)
            if expect is not None:
                del slots[slot(addr)]
            assert nc.evict(addr) is expect
        assert nc.occupancy() == len(slots)
        assert [id(x) for x in nc.lines()] == [id(x) for x in slots.values()]
    assert nc.probe.__self__ is nc._lines
