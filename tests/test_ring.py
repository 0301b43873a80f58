"""Tests for the slotted-ring transport: latency, bandwidth, ordering,
multicast delivery, and sequencing-point routing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect.packet import MsgType, Packet
from repro.interconnect.ring import Ring
from repro.sim.engine import Engine

SLOT = 60
HOP = 60


class Sink:
    """A passive ring member that consumes everything aimed at it."""

    def __init__(self, pos):
        self.pos = pos
        self.got = []

    def ring_arrival(self, ring, packet):
        if packet.meta.get("dest_pos") == self.pos:
            self.got.append((ring.engine.now, packet))
        else:
            ring.forward(self.pos, packet)


def make_ring(size=4):
    engine = Engine()
    ring = Ring(engine, "r", level=0, size=size, slot_ticks=SLOT, hop_ticks=HOP)
    sinks = [Sink(i) for i in range(size)]
    for i, s in enumerate(sinks):
        ring.attach(i, s)
    return engine, ring, sinks


def pkt(dest_pos, flits=1, pid_meta=None):
    p = Packet(mtype=MsgType.DATA_RESP, addr=0, src_station=0, dest_mask=0,
               flits=flits)
    p.meta["dest_pos"] = dest_pos
    if pid_meta is not None:
        p.meta["tag"] = pid_meta
    return p


def test_single_hop_latency():
    engine, ring, sinks = make_ring()
    ring.inject(0, pkt(dest_pos=1))
    engine.run()
    t, _ = sinks[1].got[0]
    assert t == HOP  # head cut-through: one hop


def test_multi_hop_latency_accumulates():
    engine, ring, sinks = make_ring()
    ring.inject(0, pkt(dest_pos=3))
    engine.run()
    t, _ = sinks[3].got[0]
    assert t == 3 * HOP


def test_wraparound_path():
    engine, ring, sinks = make_ring()
    ring.inject(2, pkt(dest_pos=1))
    engine.run()
    t, _ = sinks[1].got[0]
    assert t == 3 * HOP  # 2 -> 3 -> 0 -> 1


def test_multi_flit_message_reserves_bandwidth():
    """Two 5-flit messages on the same link: the second's head waits for the
    first's five slots."""
    engine, ring, sinks = make_ring()
    ring.inject(0, pkt(dest_pos=1, flits=5))
    ring.inject(0, pkt(dest_pos=1, flits=5))
    engine.run()
    t1, _ = sinks[1].got[0]
    t2, _ = sinks[1].got[1]
    assert t1 == HOP
    assert t2 == 5 * SLOT + HOP


def test_through_traffic_beats_injection():
    """A packet already on the ring takes the slot; the locally injected
    packet waits (slotted-ring semantics)."""
    engine, ring, sinks = make_ring()
    # packet from 0 headed to 2 passes node 1 at t=HOP
    ring.inject(0, pkt(dest_pos=2, flits=1))
    # node 1 wants to inject toward 2 at exactly that time
    engine.schedule(HOP, lambda: ring.inject(1, pkt(dest_pos=2, pid_meta="local")))
    engine.run()
    arrivals = sinks[2].got
    assert arrivals[0][1].meta.get("tag") is None      # through packet first
    assert arrivals[1][1].meta.get("tag") == "local"
    assert arrivals[1][0] >= arrivals[0][0] + SLOT


def test_fifo_order_preserved_same_path():
    """Messages injected in order at one node arrive in order at another —
    the ordering property the coherence protocol depends on."""
    engine, ring, sinks = make_ring()
    for i in range(10):
        ring.inject(0, pkt(dest_pos=3, flits=1 + (i % 3), pid_meta=i))
    engine.run()
    tags = [p.meta["tag"] for _, p in sinks[3].got]
    assert tags == list(range(10))


def test_utilization_accounting():
    engine, ring, sinks = make_ring()
    ring.inject(0, pkt(dest_pos=2, flits=9))
    engine.run()
    # 9 flits over 2 links = 18 slot-times of busy
    assert ring.busy_ticks == 18 * SLOT
    assert 0 < ring.utilization(engine.now) <= 1


def test_halt_link_delays_upstream():
    engine, ring, sinks = make_ring()
    ring.halt_link(into_pos=1, duration=1000)
    ring.inject(0, pkt(dest_pos=1))
    engine.run()
    t, _ = sinks[1].got[0]
    assert t >= 1000  # the link feeding position 1 was stalled


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(1, 9)), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_property_pairwise_fifo_ordering(sends):
    """For every (src, dst) pair, arrival order equals injection order, for
    arbitrary interleaved traffic with mixed message sizes."""
    engine, ring, sinks = make_ring()
    seq = {}
    for i, (src, dst, flits) in enumerate(sends):
        if src == dst:
            continue
        p = pkt(dest_pos=dst, flits=flits, pid_meta=(src, dst, i))
        ring.inject(src, p)
    engine.run()
    for sink in sinks:
        per_pair = {}
        for _, p in sink.got:
            src, dst, i = p.meta["tag"]
            per_pair.setdefault((src, dst), []).append(i)
        for order in per_pair.values():
            assert order == sorted(order)
