"""Slotted unidirectional rings (paper §2.2).

Each ring is a cycle of *members* (station ring interfaces on local rings;
inter-ring interfaces on all rings).  Every link carries one packet flit per
ring clock; a message of ``flits`` flits occupies that many consecutive
slots.  Rather than ticking every slot every cycle, the simulator reserves
link time: injecting or forwarding reserves the earliest free slots on the
outgoing link and schedules the arrival event at the next member.  Through
traffic wins ties against new injections because arrival events carry a
higher scheduler priority — exactly the behaviour of a slotted ring, where a
node may only inject into empty slots.

Routing follows the paper's ascend/descend rules.  A packet's travel mode is
kept in ``Packet.route_state``:

``ascend``
    climbing to a higher ring; station members just forward, the inter-ring
    interface always switches it up.
``to_seq``
    an *ordered* multicast heading for the sequencing point of the highest
    ring it reaches (the upward connection on non-central rings; a
    designated member on the central ring).
``deliver``
    visiting targets: each member whose bit is set in the packet's field for
    this ring level takes a copy and clears its bit; the packet is consumed
    when its field empties.

Flow control: when a member's input FIFO passes its high-water mark the
member halts the upstream link (``halt_link``), modelling the paper's
"operation of the ring that is feeding the buffer is temporarily halted".

Event order: arrival events (and the tail-lag bounces the interfaces
schedule on delivery) carry *content-derived* sequence keys built from the
ring's ``uid`` and the position (see :mod:`repro.sim.engine`), not the
engine's global counter.  Those keys define the same-tick tie-break order
that the pinned protocol fingerprints and the benchmark's surface hashes
depend on, so they must stay content-derived.
"""

from __future__ import annotations

from typing import List, Optional, Protocol

from ..sim.engine import Engine
from .packet import Packet


#: content-key spaces at PRIO_ARRIVAL (positive; the counter never appears
#: at that priority).  An arrival at ring position ``p`` is keyed
#: ``uid << ARRIVAL_SHIFT | p``; the tail-lag bounce of a delivery there is
#: keyed ``BOUNCE_KEY | uid << ARRIVAL_SHIFT | p << BOUNCE_FLIT_SHIFT |
#: flits`` — unique per tick because consecutive sends on a link are spaced
#: by at least one slot, so same-key bounces at one tick would need equal
#: flit counts *and* equal arrival ticks, a contradiction.
ARRIVAL_SHIFT = 18
BOUNCE_FLIT_SHIFT = 8
BOUNCE_KEY = 1 << 30


class RingMember(Protocol):
    """Anything attached to a ring position."""

    def ring_arrival(self, ring: "Ring", packet: Packet) -> None:
        """Handle a packet whose last flit has arrived at this member."""
        ...


class Ring:
    """One slotted ring at a given hierarchy ``level`` (0 = local rings)."""

    __slots__ = (
        "engine",
        "name",
        "level",
        "size",
        "slot_ticks",
        "hop_ticks",
        "seq_pos",
        "uid",
        "members",
        "_link_free",
        "busy_ticks",
        "packets_carried",
        "halts",
        "_abase",
        "_bbase",
    )

    def __init__(
        self,
        engine: Engine,
        name: str,
        level: int,
        size: int,
        slot_ticks: int,
        hop_ticks: int,
        seq_pos: int = 0,
    ) -> None:
        self.engine = engine
        self.name = name
        self.level = level
        self.size = size
        if size > (1 << BOUNCE_FLIT_SHIFT):
            raise ValueError(f"ring size {size} exceeds the arrival-key space")
        self.slot_ticks = slot_ticks
        self.hop_ticks = hop_ticks
        #: position of the sequencing point member (ordering of multicasts)
        self.seq_pos = seq_pos
        #: stable identity for content-keyed events (same in every backend)
        self.uid = engine.alloc_uid()
        #: content-key bases: arrivals and tail-lag bounces (see module vars)
        self._abase = self.uid << ARRIVAL_SHIFT
        self._bbase = BOUNCE_KEY | self._abase
        self.members: List[Optional[RingMember]] = [None] * size
        #: earliest tick at which the outgoing link of position i is free
        self._link_free = [0] * size
        #: link ticks reserved over all positions, packets injected or
        #: forwarded, and backpressure halts
        self.busy_ticks = 0
        self.packets_carried = 0
        self.halts = 0

    # ------------------------------------------------------------------
    def attach(self, pos: int, member: RingMember) -> None:
        if self.members[pos] is not None:
            raise ValueError(f"{self.name} position {pos} already attached")
        self.members[pos] = member

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def inject(self, pos: int, packet: Packet) -> int:
        """Place ``packet`` onto the ring at ``pos`` (head starts moving on
        the first free slot).  Returns the tick transmission starts."""
        # Cut-through: the head flit moves on after one hop; the tail's
        # serialization time is charged once, at final delivery (the
        # interfaces add ``(flits-1)*slot`` when consuming).  The link is
        # reserved for all flits, so bandwidth and FIFO order are exact.
        engine = self.engine
        link_free = self._link_free
        start = link_free[pos]
        now = engine.now
        if now > start:
            start = now
        occupy = packet.flits * self.slot_ticks
        link_free[pos] = start + occupy
        self.busy_ticks += occupy
        self.packets_carried += 1
        np = pos + 1
        if np >= self.size:
            np = 0
        # the ring rides in the arg tuple: no bound method per hop
        engine._push(
            (start + self.hop_ticks, 0, self._abase | np, _ring_arrive,
             (self, np, packet))
        )
        return start

    #: forwarding a through packet from ``pos`` is the same link reservation
    forward = inject

    def halt_link(self, into_pos: int, duration: int) -> None:
        """Backpressure: stop the link feeding ``into_pos`` for ``duration``
        ticks (the upstream member cannot forward meanwhile)."""
        upstream = (into_pos - 1) % self.size
        target = self.engine.now + duration
        if target > self._link_free[upstream]:
            self._link_free[upstream] = target
            self.halts += 1

    # ------------------------------------------------------------------
    def utilization(self, now: int) -> float:
        """Mean link utilization across the ring over ``[0, now]``, at most 1."""
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_ticks / (now * self.size))


def _ring_arrive(arg) -> None:
    """Arrival event: the packet's head reached the member at ``pos``."""
    ring, pos, packet = arg
    member = ring.members[pos]
    if member is None:
        raise RuntimeError(f"{ring.name}: no member at position {pos}")
    member.ring_arrival(ring, packet)
