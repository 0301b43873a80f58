"""Integration tests for the full interconnect: station ring interfaces,
inter-ring interfaces, hierarchy routing, multicast and sequencing."""

import pytest

from repro import Machine, MachineConfig, MsgType, Packet
from repro.interconnect.routing import Geometry
from repro.interconnect.topology import build_interconnect
from repro.sim.engine import Engine

from conftest import small_config


def _capture_machine(cfg):
    """A machine whose stations record delivered packets instead of acting."""
    m = Machine(cfg)
    captured = {s.station_id: [] for s in m.stations}
    for st in m.stations:
        st.deliver_from_ring = (
            lambda pkt, sid=st.station_id: captured[sid].append(pkt)
        )
        st.ring_interface.deliver_cb = st.deliver_from_ring
    return m, captured


def _send(m, src, mask, mtype=MsgType.DATA_RESP, ordered=False, flits=1):
    pkt = Packet(mtype=mtype, addr=0, src_station=src, dest_mask=mask,
                 ordered=ordered, flits=flits)
    m.stations[src].ring_interface.send(pkt)
    return pkt


def test_point_to_point_same_ring():
    m, captured = _capture_machine(small_config())
    _send(m, 0, m.codec.station_mask(1))
    m.engine.run()
    assert len(captured[1]) == 1
    assert all(not captured[s] for s in captured if s != 1)


def test_point_to_point_cross_ring():
    m, captured = _capture_machine(small_config())
    _send(m, 0, m.codec.station_mask(3))  # station 3 = ring 1, pos 1
    m.engine.run()
    assert len(captured[3]) == 1
    assert all(not captured[s] for s in captured if s != 3)


def test_self_send_loopback():
    m, captured = _capture_machine(small_config())
    _send(m, 2, m.codec.station_mask(2))
    m.engine.run()
    assert len(captured[2]) == 1


def test_exact_multicast_all_stations():
    m, captured = _capture_machine(small_config())
    mask = m.codec.combine(range(m.config.num_stations))
    _send(m, 0, mask)
    m.engine.run()
    for sid, pkts in captured.items():
        assert len(pkts) == 1, f"station {sid} got {len(pkts)}"


def test_inexact_multicast_over_delivers():
    """Fig. 3: combining stations 0 and 3 also reaches 1 and 2."""
    m, captured = _capture_machine(small_config())  # 2 stations x 2 rings
    mask = m.codec.combine([0, 3])
    _send(m, 0, mask)
    m.engine.run()
    for sid in (0, 1, 2, 3):
        assert len(captured[sid]) == 1


def test_ordered_multicast_passes_sequencing_point():
    """An ordered local-ring multicast must travel via the IRI even when
    the target is upstream, so it arrives later than a direct send."""
    cfg = small_config()
    # direct (unordered)
    m1, cap1 = _capture_machine(cfg)
    _send(m1, 0, m1.codec.station_mask(1), ordered=False)
    m1.engine.run()
    t_direct = m1.engine.now
    # ordered: 0 -> IRI (pos 2) -> wraps to 1
    m2, cap2 = _capture_machine(small_config())
    _send(m2, 0, m2.codec.station_mask(1), mtype=MsgType.INVALIDATE, ordered=True)
    m2.engine.run()
    t_ordered = m2.engine.now
    assert len(cap2[1]) == 1
    assert t_ordered > t_direct


def test_ordered_multicast_returns_to_origin():
    """The paper's invalidation pattern: origin included in the mask gets
    its own copy back (the unlock signal)."""
    m, captured = _capture_machine(small_config())
    mask = m.codec.combine([0, 3])
    _send(m, 0, mask, mtype=MsgType.INVALIDATE, ordered=True)
    m.engine.run()
    assert len(captured[0]) == 1


def test_sinkable_priority_over_nonsinkable():
    """When both queues hold packets, the sinkable is delivered first."""
    m, captured = _capture_machine(small_config())
    # a nonsinkable and a sinkable sent back-to-back from 0 to 1
    _send(m, 0, m.codec.station_mask(1), mtype=MsgType.READ)
    _send(m, 0, m.codec.station_mask(1), mtype=MsgType.DATA_RESP, flits=9)
    m.engine.run()
    kinds = [p.mtype for p in captured[1]]
    assert set(kinds) == {MsgType.READ, MsgType.DATA_RESP}


def test_nonsinkable_credit_limit():
    cfg = small_config(nonsink_limit=2)
    m, captured = _capture_machine(cfg)
    ri = m.stations[0].ring_interface
    for _ in range(5):
        _send(m, 0, m.codec.station_mask(1), mtype=MsgType.READ)
    # before running, three must be waiting for credits
    assert len(ri._pending_out) == 3
    m.engine.run()
    # all delivered in the end (credits recycle on delivery)
    assert len(captured[1]) == 5
    assert ri.stats.counters.get("nonsink_credit_waits", 0) == 3


def test_data_before_invalidate_ordering():
    """fig 7's guarantee: a data response sent before an ordered
    invalidation on the same source arrives first at the destination."""
    m, captured = _capture_machine(small_config())
    home, target = 2, 0
    data = _send(m, home, m.codec.station_mask(target),
                 mtype=MsgType.DATA_RESP_EX, flits=9)
    inv = Packet(mtype=MsgType.INVALIDATE, addr=0, src_station=home,
                 dest_mask=m.codec.combine([target, home]), ordered=True)
    m.stations[home].ring_interface.send(inv)
    m.engine.run()
    kinds = [p.mtype for p in captured[target]]
    assert kinds.index(MsgType.DATA_RESP_EX) < kinds.index(MsgType.INVALIDATE)


@pytest.mark.parametrize("levels,cpus", [((4,), 1), ((2, 2), 1), ((2, 2, 2), 1)])
def test_topology_builder_geometries(levels, cpus):
    cfg = MachineConfig(
        geometry=Geometry(levels, processors_per_station=cpus),
        l1_size_bytes=1024, l2_size_bytes=8192, nc_size_bytes=32768,
        station_mem_bytes=1 << 22,
    )
    engine = Engine()
    net = build_interconnect(engine, cfg)
    nlocal = 1
    for w in levels[1:]:
        nlocal *= w
    assert len(net.local_rings) == nlocal
    expected_iris = 0
    rings_at = 1
    for level in range(len(levels) - 1, 0, -1):
        rings_at *= levels[level]
    # count: each non-top ring has one IRI
    total_rings_below_top = 0
    prod = 1
    for level in range(len(levels) - 1, 0, -1):
        prod *= levels[level]
        total_rings_below_top += 0  # counted via iris directly below
    assert len(net.iris) == sum(
        _rings_at_level(levels, lvl) for lvl in range(len(levels) - 1)
    )


def _rings_at_level(levels, level):
    n = 1
    for w in levels[level + 1:]:
        n *= w
    return n


def test_three_level_machine_end_to_end():
    """Packets route correctly across a 3-level hierarchy."""
    cfg = MachineConfig(
        geometry=Geometry((2, 2, 2), processors_per_station=1),
        l1_size_bytes=1024, l2_size_bytes=8192, nc_size_bytes=32768,
        station_mem_bytes=1 << 22,
    )
    m, captured = _capture_machine(cfg)
    far = cfg.num_stations - 1
    _send(m, 0, m.codec.station_mask(far))
    mask_all = m.codec.combine(range(cfg.num_stations))
    _send(m, 0, mask_all, mtype=MsgType.INVALIDATE, ordered=True)
    m.engine.run()
    assert len(captured[far]) == 2
    for sid in range(cfg.num_stations):
        assert captured[sid], f"station {sid} missed the global multicast"
