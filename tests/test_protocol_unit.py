"""Unit-level protocol tests: drive the memory module and network cache
with crafted packets (no workload in the loop) and assert the Fig. 5 /
Fig. 6 transitions, NACK behaviour, and stale-answer filtering."""


import pytest

from repro import Machine, MsgType, Packet
from repro.core.states import LineState
from repro.protocol import get_protocol

from conftest import small_config


def make_machine():
    m = Machine(small_config())
    return m


def drain(m):
    m.engine.run()


def remote_pkt(m, mtype, addr, src_station, requester=None, **meta):
    return Packet(
        mtype=mtype, addr=addr, src_station=src_station,
        dest_mask=m.codec.station_mask(m.config.home_station(addr)),
        requester=requester, meta=meta,
    )


# ----------------------------------------------------------------------
# memory module (Fig. 5)
# ----------------------------------------------------------------------
def test_mem_remote_read_lv_to_gv():
    m = make_machine()
    mem = m.stations[0].memory
    la = 0
    mem.write_line(la, [7] * 8)
    pkt = remote_pkt(m, MsgType.READ, la, src_station=1, requester=2)
    mem.handle(pkt)
    drain(m)
    e = mem.directory.entry(la)
    assert e.state is LineState.GV
    assert mem.directory.may_have_copy(e, 1)
    # the response reached station 1's NC and was granted to cpu 2
    line = m.stations[1].nc.array.probe(la)
    assert line is None or True  # no pending existed: counted as stray
    assert m.stations[1].nc.stats.counter("stray_data").value == 1


def test_mem_remote_readex_lv_sends_exclusive_data():
    m = make_machine()
    mem = m.stations[0].memory
    la = 64
    mem.write_line(la, [3] * 8)
    mem.handle(remote_pkt(m, MsgType.READ_EX, la, src_station=2, requester=4))
    drain(m)
    e = mem.directory.entry(la)
    assert e.state is LineState.GI
    assert mem._owner_station(e) == 2


def test_mem_nacks_requests_to_locked_line():
    m = make_machine()
    mem = m.stations[0].memory
    la = 128
    e = mem.directory.entry(la)
    from repro.memory.memory_module import Pending

    mem._lock(e, Pending(kind="fetch", req_type=MsgType.READ, requester=9,
                         req_station=3, is_local=False))
    mem.handle(remote_pkt(m, MsgType.READ, la, src_station=1, requester=2))
    drain(m)
    assert mem.stats.counter("nacks").value == 1
    # the requester's NC got a NACK (no pending -> silently dropped there)
    assert e.locked


def test_mem_stale_intervention_answer_ignored():
    """A data answer carrying an old txn id must not complete the current
    lock round."""
    m = make_machine()
    mem = m.stations[0].memory
    la = 192
    e = mem.directory.entry(la)
    from repro.memory.memory_module import Pending

    mem._lock(e, Pending(kind="fetch", req_type=MsgType.READ, requester=1,
                         req_station=1, is_local=False))
    current_txn = e.pending.extra["txn"]
    stale = remote_pkt(m, MsgType.DATA_RESP, la, src_station=2, requester=1,
                       to_home=True, txn=current_txn - 1 if current_txn else 999)
    stale.data = [1] * 8
    mem.handle(stale)
    drain(m)
    assert e.locked                       # still waiting for the real answer
    assert mem.stats.counter("stale_answers").value == 1


def test_mem_stale_nack_intervention_ignored():
    m = make_machine()
    mem = m.stations[0].memory
    la = 256
    e = mem.directory.entry(la)
    from repro.memory.memory_module import Pending

    mem._lock(e, Pending(kind="fetch", req_type=MsgType.READ, requester=1,
                         req_station=1, is_local=False))
    mem.handle(remote_pkt(m, MsgType.NACK_INTERVENTION, la, src_station=2,
                          requester=1, txn=12345))
    drain(m)
    assert e.locked


def test_mem_remote_writeback_gi_to_gv():
    m = make_machine()
    mem = m.stations[0].memory
    la = 320
    e = mem.directory.entry(la)
    e.state = LineState.GI
    mem.directory.set_station(e, 1)
    wb = remote_pkt(m, MsgType.WRITE_BACK, la, src_station=1)
    wb.data = [42] * 8
    mem.handle(wb)
    drain(m)
    assert e.state is LineState.GV
    assert mem.read_line(la) == [42] * 8


def test_mem_upgrade_fallback_sends_data_when_sharer_unknown():
    """§2.3: if the directory says the requester no longer shares the line,
    the home answers with data instead of a bare ack."""
    m = make_machine()
    mem = m.stations[0].memory
    la = 384
    mem.write_line(la, [5] * 8)
    e = mem.directory.entry(la)
    e.state = LineState.GV
    mem.directory.set_station(e, 2)       # station 1 NOT a sharer
    mem.handle(remote_pkt(m, MsgType.UPGRADE, la, src_station=1, requester=2))
    drain(m)
    assert mem.stats.counter("upgrade_data_sent").value == 1


def test_mem_special_read_served_from_dram():
    m = make_machine()
    mem = m.stations[0].memory
    la = 448
    mem.write_line(la, [9] * 8)
    e = mem.directory.entry(la)
    e.state = LineState.GI
    mem.directory.set_station(e, 1)
    mem.handle(remote_pkt(m, MsgType.SPECIAL_READ, la, src_station=1,
                          requester=3))
    drain(m)
    assert mem.stats.counter("special_reads_served").value == 1


# ----------------------------------------------------------------------
# network cache (Fig. 6)
# ----------------------------------------------------------------------
def test_nc_invalidate_on_gi_ignored():
    """§2.3: 'if an invalidation arrives at a network cache for a cache
    line in the GI state due to an ambiguous routing mask, then the
    invalidation will not be sent to any of the local processors'."""
    m = make_machine()
    nc = m.stations[1].nc
    la = 0  # homed at station 0, remote for station 1
    from repro.cache.nc_array import NCLine

    nc.array.insert(NCLine(addr=la, state=LineState.GI))
    inv = Packet(mtype=MsgType.INVALIDATE, addr=la, src_station=0,
                 dest_mask=m.codec.station_mask(1), requester=5,
                 meta={"writer_station": 3})
    nc.handle(inv)
    drain(m)
    assert nc.stats.counter("invalidate_ignored_gi").value == 1
    assert m.cpus[2].stats.counter("invalidations_received").value == 0


def test_nc_invalidate_on_owned_line_is_stale_and_ignored():
    m = make_machine()
    nc = m.stations[1].nc
    la = 0
    from repro.cache.nc_array import NCLine

    nc.array.insert(NCLine(addr=la, state=LineState.LV, data=[8] * 8,
                           proc_mask=0b01))
    inv = Packet(mtype=MsgType.INVALIDATE, addr=la, src_station=0,
                 dest_mask=m.codec.station_mask(1), requester=5,
                 meta={"writer_station": 3})
    nc.handle(inv)
    drain(m)
    assert nc.stats.counter("invalidate_stale_owner").value == 1
    assert nc.array.probe(la).state is LineState.LV   # untouched


def test_nc_invalidate_not_in_broadcasts_to_all_cpus():
    m = make_machine()
    nc = m.stations[1].nc
    la = 64
    inv = Packet(mtype=MsgType.INVALIDATE, addr=la, src_station=0,
                 dest_mask=m.codec.station_mask(1), requester=5,
                 meta={"writer_station": 3})
    nc.handle(inv)
    drain(m)
    assert nc.stats.counter("invalidate_broadcasts").value == 1


def test_nc_intervention_from_lv_serves_and_goes_gv():
    m = make_machine()
    nc = m.stations[1].nc
    home_mem = m.stations[0].memory
    la = 128
    from repro.cache.nc_array import NCLine
    from repro.memory.memory_module import Pending

    # simulate prior exclusive ownership: home GI -> station 1, and the
    # in-flight read that the home locked while forwarding the intervention
    e = home_mem.directory.entry(la)
    e.state = LineState.GI
    home_mem.directory.set_station(e, 1)
    home_mem._lock(e, Pending(kind="fetch", req_type=MsgType.READ,
                              requester=8, req_station=2, is_local=False))
    txn = e.pending.extra["txn"]
    nc.array.insert(NCLine(addr=la, state=LineState.LV, data=[6] * 8))
    iv = Packet(mtype=MsgType.INTERVENTION, addr=la, src_station=0,
                dest_mask=m.codec.station_mask(1), requester=8,
                meta={"home": 0, "req_station": 2, "txn": txn})
    nc.handle(iv)
    drain(m)
    assert nc.array.probe(la).state is LineState.GV
    # the home received its copy, unlocked, and moved to GV
    assert not e.locked
    assert e.state is LineState.GV
    assert home_mem.read_line(la) == [6] * 8


def test_nc_intervention_nothing_found_nacks_home():
    m = make_machine()
    nc = m.stations[1].nc
    home_mem = m.stations[0].memory
    la = 192
    from repro.memory.memory_module import Pending

    e = home_mem.directory.entry(la)
    home_mem._lock(e, Pending(kind="fetch", req_type=MsgType.READ,
                              requester=4, req_station=2, is_local=False))
    txn = e.pending.extra["txn"]
    iv = Packet(mtype=MsgType.INTERVENTION, addr=la, src_station=0,
                dest_mask=m.codec.station_mask(1), requester=4,
                meta={"home": 0, "req_station": 2, "txn": txn})
    nc.handle(iv)
    drain(m)
    # home unlocked and bounced the requester
    assert not e.locked
    assert nc.stats.counter("intervention_broadcasts").value == 1


def test_nc_false_remote_counter():
    m = make_machine()
    nc = m.stations[1].nc
    la = 256
    iv = Packet(mtype=MsgType.INTERVENTION, addr=la, src_station=0,
                dest_mask=m.codec.station_mask(1), requester=4,
                meta={"home": 0, "req_station": 1, "false_remote": True,
                      "txn": None})
    nc.handle(iv)
    drain(m)
    assert nc.stats.counter("false_remotes").value == 1


def test_nc_multicast_data_adopted():
    m = make_machine()
    nc = m.stations[1].nc
    la = 320
    mc = Packet(mtype=MsgType.MULTICAST_DATA, addr=la, src_station=0,
                dest_mask=m.codec.station_mask(1), requester=0,
                data=[11] * 8, meta={"writer_station": 0})
    nc.handle(mc)
    drain(m)
    line = nc.array.probe(la)
    assert line.state is LineState.GV
    assert line.data == [11] * 8
    assert nc.stats.counter("multicast_fills").value == 1


# ----------------------------------------------------------------------
# dispatch: each engine class's MsgType-indexed tuple
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["numachine", "msi"])
def test_dispatch_tuples_follow_declared_tables(protocol):
    proto = get_protocol(protocol)
    for cls in (proto.memory_class, proto.nc_class):
        declared = {MsgType[name]: getattr(cls, fn) for name, fn in cls.DISPATCH}
        assert len(cls.HANDLERS) == max(mt._value_ for mt in MsgType) + 1
        for mt in MsgType:
            # unlisted types go to _on_other, the soft-control entry
            # (tests/test_softctl.py drives it end to end)
            want = declared.get(mt, cls._on_other)
            assert cls.HANDLERS[mt._value_] is want, (cls.__name__, mt)


def test_dispatch_tuple_picks_up_a_subclass_override():
    base = get_protocol("numachine").memory_class
    reads = []

    class CountingMemory(base):
        def _on_read(self, pkt, entry, local):
            reads.append(pkt.addr)
            return super()._on_read(pkt, entry, local)

    assert CountingMemory.HANDLERS[MsgType.READ._value_] is CountingMemory._on_read
    assert base.HANDLERS[MsgType.READ._value_] is base._on_read
    m = Machine(small_config(protocol="numachine"))
    st = m.stations[0]
    st.memory = mem = CountingMemory(m.engine, m.config, st)
    mem.write_line(0, [7] * 8)
    mem.handle(remote_pkt(m, MsgType.READ, 0, src_station=1, requester=2))
    drain(m)
    assert reads == [0]
    assert mem.directory.entry(0).state is LineState.GV
