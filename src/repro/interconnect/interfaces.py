"""Ring interfaces (paper §3.1.3).

Two kinds of interface exist:

* :class:`StationRingInterface` — connects a station's bus to its local
  ring.  Upward path: packet generator -> output FIFO -> ring slots.
  Downward path: input FIFO -> packet handler -> separate *sinkable* /
  *nonsinkable* queues -> station bus.  It also enforces the deadlock
  bound on nonsinkable messages a station may have in the network.

* :class:`InterRingInterface` — a simple FIFO switch joining a ring to its
  parent ring.  It is the sequencing point of its child ring, and one
  designated inter-ring interface is the sequencing point of the central
  ring.

Both implement the :class:`~repro.interconnect.ring.RingMember` protocol and
realize the ascend / to_seq / deliver routing rules described in
:mod:`repro.interconnect.ring`.

Their tracer, verifier and fault-filter checks are live on every run.
The host work per packet follows the hardware's: the routing masks each
interface tests are precomputed from the codec at construction (one AND
decides ascend-or-stay), a packet costs one push and one pop per FIFO it
passes (emptiness is tested on the FIFO's deque, pressure comes back from
the push), the delay accumulators are bound on first use, and the pump
loops push their event tuples straight onto the engine queue, as the
station bus's grants do (:mod:`repro.system.bus`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..sim.engine import Engine
from ..sim.fifo import Fifo
from ..sim.stats import StatGroup
from .packet import Packet, ROUTE_ASCEND, ROUTE_DELIVER, ROUTE_TO_SEQ
from .ring import BOUNCE_FLIT_SHIFT, Ring
from .routing import RoutingMaskCodec

#: travel-mode values kept in ``Packet.route_state``
ASCEND = ROUTE_ASCEND
TO_SEQ = ROUTE_TO_SEQ
DELIVER = ROUTE_DELIVER

_PRIO_NORMAL = Engine.PRIO_NORMAL


class StationRingInterface:
    """The local ring interface of one station."""

    __slots__ = (
        "engine",
        "station_id",
        "ring",
        "pos",
        "pkt_gen_ticks",
        "handler_ticks",
        "bus_granter",
        "deliver_cb",
        "nonsink_limit",
        "line_bus_ticks",
        "cmd_bus_ticks",
        "seq_ticks",
        "_mybit",
        "_f0",
        "_ascend",
        "out_fifo",
        "in_fifo",
        "sink_q",
        "nonsink_q",
        "_out_items",
        "_in_items",
        "_sink_items",
        "_nonsink_items",
        "_pending_out",
        "_nonsink_credits",
        "_bounce_base",
        "_out_busy",
        "_handler_busy",
        "_drain_pkt",
        "_bus_done_cb",
        "_out_done_key",
        "_send_delay",
        "_down_delay_sink",
        "_down_delay_nonsink",
        "stats",
        "tracer",
        "verifier",
        "fault_filter",
    )

    def __init__(
        self,
        engine: Engine,
        codec: RoutingMaskCodec,
        station_id: int,
        ring: Ring,
        pos: int,
        *,
        pkt_gen_ticks: int,
        handler_ticks: int,
        bus_granter: Callable,
        deliver: Callable[[Packet], None],
        nonsink_limit: int = 16,
        in_fifo_capacity: int = 256,
        line_bus_ticks: int = 0,
        cmd_bus_ticks: int = 0,
        seq_ticks: int = 0,
    ) -> None:
        self.engine = engine
        self.station_id = station_id
        self.ring = ring
        self.pos = pos
        self.pkt_gen_ticks = pkt_gen_ticks
        self.handler_ticks = handler_ticks
        self.bus_granter = bus_granter
        self.deliver_cb = deliver
        self.nonsink_limit = nonsink_limit
        self.line_bus_ticks = line_bus_ticks
        self.cmd_bus_ticks = cmd_bus_ticks
        self.seq_ticks = seq_ticks
        #: this station's bit and the level-0 field mask (level 0 starts at
        #: bit 0, so the field needs no shift): the deliver-mode tests
        self._mybit = 1 << codec.geometry.station_coords(station_id)[0]
        self._f0 = codec.field_mask(0)
        #: upper-field bits that make a packet from here ascend
        self._ascend = codec.ascend_mask(station_id)
        #: content-key base for ring-delivery tail bounces (see ring.py)
        self._bounce_base = ring._bbase | pos << BOUNCE_FLIT_SHIFT

        self.out_fifo = Fifo(f"S{station_id}.ri.out", capacity=None)
        self.in_fifo = Fifo(f"S{station_id}.ri.in", capacity=in_fifo_capacity)
        self.sink_q = Fifo(f"S{station_id}.ri.sink", capacity=None)
        self.nonsink_q = Fifo(f"S{station_id}.ri.nonsink", capacity=None)
        #: the FIFOs' deques, tested for emptiness without a Fifo call
        self._out_items = self.out_fifo._items
        self._in_items = self.in_fifo._items
        self._sink_items = self.sink_q._items
        self._nonsink_items = self.nonsink_q._items
        self._pending_out: deque = deque()  # nonsinkables waiting for credit
        self._nonsink_credits = nonsink_limit
        self._out_busy = False
        self._handler_busy = False
        #: the packet on the station bus: one drain is in flight at most,
        #: so the bus completion needs no per-packet closure
        self._drain_pkt: Optional[Packet] = None
        self._bus_done_cb = self._bus_done
        #: content key of the output-port release (see repro.sim.engine)
        self._out_done_key = ~engine.alloc_uid()
        self.stats = StatGroup(f"S{station_id}.ri")
        # delay accumulators, bound on first use: the StatGroup (and so
        # the snapshot) holds only the accumulators a station has used
        self._send_delay = None
        self._down_delay_sink = None
        self._down_delay_nonsink = None
        #: transaction tracer (repro.obs), or None when tracing is off
        self.tracer = None
        #: invariant checker (repro.verify), or None when checking is off
        self.verifier = None
        #: fault-injection interceptor (repro.fault); returns True when it
        #: consumed the packet (delayed re-send), or None when faults are off
        self.fault_filter = None
        engine.blocked_watchers.append(self._blocked_reason)

    # ------------------------------------------------------------------
    # upward path (station -> ring)
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Inject a message from this station into the network."""
        ff = self.fault_filter
        if ff is not None and ff(self, packet):
            return
        engine = self.engine
        now = engine.now
        if packet.born < 0:
            packet.born = now
        tr = self.tracer
        if tr is not None:
            tr.stamp_pkt(packet, "ri.send", now)
        if not packet.mtype.sinkable:
            if self._nonsink_credits == 0:
                self._pending_out.append(packet)
                self.stats.counter("nonsink_credit_waits").incr()
                return
            self._nonsink_credits -= 1
            packet.credit_home = self
            v = self.verifier
            if v is not None:
                v.ri_credit(self)
        self._route_prep(packet)
        packet.send_enq = now
        # packet generator formatting latency, then the output FIFO
        # (Engine.schedule inlined, as in the bus grants)
        seq = engine._seq + 1
        engine._seq = seq
        engine._push(
            (now + self.pkt_gen_ticks, _PRIO_NORMAL, seq, self._enqueue_out, packet)
        )

    def release_credit(self) -> None:
        """A nonsinkable message from this station left the network."""
        if self._pending_out:
            packet = self._pending_out.popleft()
            packet.credit_home = self
            self._route_prep(packet)
            packet.send_enq = self.engine.now
            self.engine.schedule(self.pkt_gen_ticks, self._enqueue_out, packet)
        else:
            self._nonsink_credits += 1
            v = self.verifier
            if v is not None:
                v.ri_credit(self)

    def _route_prep(self, packet: Packet) -> None:
        # ascend-or-stay in one AND (codec.ascend_mask: the same decision
        # as highest_level_needed(mask, station) > 0)
        mask = packet.dest_mask
        if mask & self._ascend:
            packet.route_state = ASCEND
        else:
            # Stays on this ring: clear the upper fields so the packet is not
            # mistaken for an ascending one (clear_upper(mask, 1)).
            packet.dest_mask = mask & self._f0
            packet.route_state = TO_SEQ if packet.ordered else DELIVER

    def _enqueue_out(self, packet: Packet) -> None:
        self.out_fifo.push(packet, self.engine.now)
        if not self._out_busy:
            self._pump_out()

    def _pump_out(self) -> None:
        """Start the oldest output-FIFO packet onto the ring; the output
        port is idle."""
        engine = self.engine
        items = self._out_items
        while items:
            packet = self.out_fifo.pop(engine.now)
            # A deliver-mode packet whose only target is this station never
            # touches the ring (e.g. an unordered self-send); loop it back.
            if (
                packet.route_state == DELIVER
                and (packet.dest_mask & self._f0) == self._mybit
            ):
                engine.schedule(0, self._local_loopback, packet)
                continue
            self._out_busy = True
            ring = self.ring
            start = ring.inject(self.pos, packet)
            enq = packet.send_enq
            packet.send_enq = -1
            acc = self._send_delay
            if acc is None:
                acc = self._send_delay = self.stats.accumulator("send_delay")
            acc.add(start - enq if enq >= 0 else 0)
            tr = self.tracer
            if tr is not None:
                tr.stamp_pkt(packet, "ring.inject", start)
            # the port release carries its content key: no counter draw
            engine._push(
                (start + packet.flits * ring.slot_ticks, _PRIO_NORMAL,
                 self._out_done_key, self._out_done, None)
            )
            return

    def _out_done(self) -> None:
        self._out_busy = False
        if self._out_items:
            self._pump_out()

    def _local_loopback(self, packet: Packet) -> None:
        # Loopbacks are not anchored to a ring arrival, so their tail
        # bounce stays counter-keyed (the arrival-derived bounce key's
        # uniqueness argument does not cover them).
        tail = (packet.flits - 1) * self.ring.slot_ticks
        if tail:
            self.engine.schedule(tail, self._accept_body, packet)
            return
        self._accept_body(packet)

    # ------------------------------------------------------------------
    # ring member: arrivals on the local ring
    # ------------------------------------------------------------------
    def ring_arrival(self, ring: Ring, packet: Packet) -> None:
        state = packet.route_state
        if state == ASCEND:
            ring.forward(self.pos, packet)
            return
        if state == TO_SEQ:
            if ring.seq_pos == self.pos:
                # this member is the sequencing point (single-ring machines):
                # ordering the multicast costs seq_ticks before it proceeds
                packet.route_state = DELIVER
                if self.seq_ticks:
                    self.engine.schedule(
                        self.seq_ticks, self._deliver_after_seq, packet
                    )
                    return
            else:
                ring.forward(self.pos, packet)
                return
        # deliver mode
        mask = packet.dest_mask
        f0 = self._f0
        fld = mask & f0
        mybit = self._mybit
        if fld & mybit:
            remaining = fld & ~mybit
            packet.dest_mask = (mask & ~f0) | remaining
            if remaining:
                copy = packet.copy_for_branch()
                self._accept(copy)
                ring.forward(self.pos, packet)
            else:
                self._accept(packet)  # consumed here
        else:
            ring.forward(self.pos, packet)

    def _deliver_after_seq(self, packet: Packet) -> None:
        # Deliver logic inlined from ring_arrival, with a counter-keyed
        # tail bounce: this entry is not anchored to a ring arrival, so the
        # arrival-derived bounce key's per-tick uniqueness argument does
        # not cover it.
        mask = packet.dest_mask
        f0 = self._f0
        fld = mask & f0
        mybit = self._mybit
        if fld & mybit:
            remaining = fld & ~mybit
            packet.dest_mask = (mask & ~f0) | remaining
            if remaining:
                copy = packet.copy_for_branch()
                self._accept_seq(copy)
                self.ring.forward(self.pos, packet)
            else:
                self._accept_seq(packet)
        else:
            self.ring.forward(self.pos, packet)

    def _accept(self, packet: Packet) -> None:
        """Downward path entry for ring deliveries: the input FIFO between
        ring and handler.  Multi-flit messages finish arriving
        ``(flits-1)`` slots after their head (cut-through tail lag); the
        bounce event carries an arrival-derived content key (see ring.py)."""
        tail = (packet.flits - 1) * self.ring.slot_ticks
        if tail:
            engine = self.engine
            engine._push(
                (engine.now + tail, 0, self._bounce_base | packet.flits,
                 self._accept_body, packet)
            )
            return
        self._accept_body(packet)

    def _accept_seq(self, packet: Packet) -> None:
        """Tail-lag gate for sequencing-point re-deliveries (counter-keyed,
        see :meth:`_deliver_after_seq`)."""
        tail = (packet.flits - 1) * self.ring.slot_ticks
        if tail:
            self.engine.schedule(tail, self._accept_body, packet)
            return
        self._accept_body(packet)

    def _accept_body(self, packet: Packet) -> None:
        now = self.engine.now
        packet.arr = now
        tr = self.tracer
        if tr is not None:
            tr.stamp_pkt(packet, "ri.arrive", now)
        if self.in_fifo.push(packet, now):
            ring = self.ring
            ring.halt_link(self.pos, ring.slot_ticks * 4)
            self.stats.counter("input_halts").incr()
        if not self._handler_busy:
            self._pump_handler()

    def _pump_handler(self) -> None:
        """Start the packet handler on the oldest input-FIFO packet; the
        handler is idle and the FIFO is not empty."""
        self._handler_busy = True
        engine = self.engine
        now = engine.now
        packet = self.in_fifo.pop(now)
        seq = engine._seq + 1
        engine._seq = seq
        engine._push(
            (now + self.handler_ticks, _PRIO_NORMAL, seq, self._handler_done, packet)
        )

    def _handler_done(self, packet: Packet) -> None:
        now = self.engine.now
        if packet.mtype.sinkable:
            self.sink_q.push(packet, now)
        else:
            self.nonsink_q.push(packet, now)
        if self._in_items:
            self._pump_handler()
        else:
            self._handler_busy = False
        if self._drain_pkt is None:
            self._pump_drain()

    def _pump_drain(self) -> None:
        """Move the next packet from the sink/nonsink queues onto the
        station bus, sinkable first (deadlock rule: sinkables have
        priority); no drain is in flight and a queue is not empty."""
        if self._sink_items:
            packet = self.sink_q.pop(self.engine.now)
            kind = "sink"
        else:
            packet = self.nonsink_q.pop(self.engine.now)
            kind = "nonsink"
        self._drain_pkt = packet
        v = self.verifier
        if v is not None:
            v.ri_drain(self, packet, kind)
        cycles = self.cmd_bus_ticks + (
            self.line_bus_ticks if packet.data is not None else 0
        )
        self.bus_granter(cycles, self._bus_done_cb)

    def _bus_done(self, start: int) -> None:
        """The drained packet crossed the station bus: hand it to the
        station."""
        packet = self._drain_pkt
        now = self.engine.now
        arr = packet.arr
        packet.arr = -1
        if arr < 0:
            arr = now
        sinkable = packet.mtype.sinkable
        if sinkable:
            acc = self._down_delay_sink
            if acc is None:
                acc = self._down_delay_sink = self.stats.accumulator("down_delay_sink")
        else:
            acc = self._down_delay_nonsink
            if acc is None:
                acc = self._down_delay_nonsink = self.stats.accumulator(
                    "down_delay_nonsink"
                )
        acc.add(now - arr)
        tr = self.tracer
        if tr is not None:
            tr.stamp_pkt(packet, "ri.deliver", now)
        self._drain_pkt = None
        if not sinkable:
            credit_home = packet.credit_home
            if credit_home is not None:
                packet.credit_home = None
                credit_home.release_credit()
        self.deliver_cb(packet)
        # the station's dispatch cannot start a drain (drains start only
        # from the handler and bus-completion events)
        if self._sink_items or self._nonsink_items:
            self._pump_drain()

    # ------------------------------------------------------------------
    def _blocked_reason(self) -> Optional[str]:
        if self._pending_out:
            return (
                f"S{self.station_id} ring interface holds "
                f"{len(self._pending_out)} packets waiting for nonsinkable credit"
            )
        return None


class InterRingInterface:
    """Switch between a child ring and its parent ring (paper: 'both upward
    and downward paths are implemented with simple FIFO buffers')."""

    __slots__ = (
        "engine",
        "name",
        "child",
        "child_pos",
        "parent",
        "parent_pos",
        "switch_ticks",
        "seq_ticks",
        "_pf_mask",
        "_p_shift",
        "_pbit",
        "_higher_mask",
        "_keep_mask",
        "up_fifo",
        "down_fifo",
        "_up_items",
        "_down_items",
        "_up_busy",
        "_down_busy",
        "_up_done_key",
        "_down_done_key",
        "_up_delay",
        "_down_delay",
        "stats",
        "tracer",
    )

    def __init__(
        self,
        engine: Engine,
        codec: RoutingMaskCodec,
        name: str,
        child: Ring,
        child_pos: int,
        parent: Ring,
        parent_pos: int,
        *,
        switch_ticks: int,
        fifo_capacity: int = 256,
        seq_ticks: int = 0,
    ) -> None:
        self.engine = engine
        self.name = name
        self.child = child
        self.child_pos = child_pos
        self.parent = parent
        self.parent_pos = parent_pos
        self.switch_ticks = switch_ticks
        self.seq_ticks = seq_ticks
        # routing masks around the parent level, precomputed from the codec
        # (the level fields are disjoint, so a sum of masks is their union)
        level = parent.level
        masks = codec._field_masks
        #: the parent level's field, its shift and this interface's bit in it
        self._pf_mask = masks[level]
        self._p_shift = codec._shifts[level]
        self._pbit = 1 << parent_pos
        #: every field above the parent level (0 when the parent is the top)
        self._higher_mask = sum(masks[level + 1:])
        #: every field below the parent level: what survives switching down
        self._keep_mask = sum(masks[:level])
        self.up_fifo = Fifo(f"{name}.up", capacity=fifo_capacity)
        self.down_fifo = Fifo(f"{name}.down", capacity=fifo_capacity)
        #: the FIFOs' deques, tested for emptiness without a Fifo call
        self._up_items = self.up_fifo._items
        self._down_items = self.down_fifo._items
        self._up_busy = False
        self._down_busy = False
        #: content keys of the up/down port releases (see repro.sim.engine)
        self._up_done_key = ~engine.alloc_uid()
        self._down_done_key = ~engine.alloc_uid()
        self.stats = StatGroup(name)
        # delay accumulators, bound on first use (see StationRingInterface)
        self._up_delay = None
        self._down_delay = None
        #: transaction tracer (repro.obs), or None when tracing is off
        self.tracer = None

    # ------------------------------------------------------------------
    def ring_arrival(self, ring: Ring, packet: Packet) -> None:
        if ring is self.child:
            self._child_arrival(packet)
        elif ring is self.parent:
            self._parent_arrival(packet)
        else:  # pragma: no cover - wiring error
            raise RuntimeError(f"{self.name} got packet from unknown ring")

    # ---- child ring side ---------------------------------------------
    def _child_arrival(self, packet: Packet) -> None:
        state = packet.route_state
        if state == ASCEND:
            self._enqueue_up(packet)
            return
        if state == TO_SEQ and self.child.seq_pos == self.child_pos:
            # This interface is the child ring's sequencing point: ordering
            # the multicast costs seq_ticks before the copies proceed.
            packet.route_state = DELIVER
            if self.seq_ticks:
                self.engine.schedule(
                    self.seq_ticks,
                    lambda p=packet: self.child.forward(self.child_pos, p),
                )
                return
        self.child.forward(self.child_pos, packet)

    def _enqueue_up(self, packet: Packet) -> None:
        now = self.engine.now
        tr = self.tracer
        if tr is not None:
            tr.stamp_pkt(packet, "iri.up_enq", now)
        packet.up_enq = now
        if self.up_fifo.push(packet, now):
            child = self.child
            child.halt_link(self.child_pos, child.slot_ticks * 4)
        if not self._up_busy:
            self._pump_up()

    def _pump_up(self) -> None:
        """Switch the oldest up-FIFO packet; the up port is idle and the
        FIFO is not empty."""
        self._up_busy = True
        engine = self.engine
        now = engine.now
        packet = self.up_fifo.pop(now)
        seq = engine._seq + 1
        engine._seq = seq
        engine._push(
            (now + self.switch_ticks, _PRIO_NORMAL, seq, self._inject_parent, packet)
        )

    def _inject_parent(self, packet: Packet) -> None:
        # Reached the parent ring: decide the packet's mode there.
        if packet.dest_mask & self._higher_mask:
            packet.route_state = ASCEND
        else:
            packet.route_state = TO_SEQ if packet.ordered else DELIVER
        parent = self.parent
        start = parent.inject(self.parent_pos, packet)
        enq = packet.up_enq
        packet.up_enq = -1
        acc = self._up_delay
        if acc is None:
            acc = self._up_delay = self.stats.accumulator("up_delay")
        acc.add(start - enq if enq >= 0 else 0)
        tr = self.tracer
        if tr is not None:
            tr.stamp_pkt(packet, "iri.up_inject", start)
        # the port release carries its content key: no counter draw
        self.engine._push(
            (start + packet.flits * parent.slot_ticks, _PRIO_NORMAL,
             self._up_done_key, self._up_done, None)
        )

    def _up_done(self) -> None:
        if self._up_items:
            self._pump_up()
        else:
            self._up_busy = False

    # ---- parent ring side ---------------------------------------------
    def _parent_arrival(self, packet: Packet) -> None:
        state = packet.route_state
        if state == ASCEND:
            # Only possible in 3+ level machines; this interface is not the
            # one that switches further up (each ring has one upward link).
            self.parent.forward(self.parent_pos, packet)
            return
        if state == TO_SEQ:
            if self.parent.seq_pos == self.parent_pos:
                packet.route_state = DELIVER
                if self.seq_ticks and not packet.seq_done:
                    packet.seq_done = True
                    packet.route_state = TO_SEQ
                    self.engine.schedule(
                        self.seq_ticks,
                        lambda p=packet: self._parent_arrival(p),
                    )
                    return
                packet.seq_done = False
            else:
                self.parent.forward(self.parent_pos, packet)
                return
        mask = packet.dest_mask
        pf = self._pf_mask
        shift = self._p_shift
        fld = (mask & pf) >> shift
        mybit = self._pbit
        if fld & mybit:
            remaining = fld & ~mybit
            packet.dest_mask = (mask & ~pf) | (remaining << shift)
            if remaining:
                copy = packet.copy_for_branch()
                self._enqueue_down(copy)
                self.parent.forward(self.parent_pos, packet)
            else:
                self._enqueue_down(packet)
        else:
            self.parent.forward(self.parent_pos, packet)

    def _enqueue_down(self, packet: Packet) -> None:
        # Switching down clears every higher-level field (paper §2.2).
        packet.dest_mask &= self._keep_mask
        packet.route_state = DELIVER
        now = self.engine.now
        packet.down_enq = now
        tr = self.tracer
        if tr is not None:
            tr.stamp_pkt(packet, "iri.down_enq", now)
        if self.down_fifo.push(packet, now):
            parent = self.parent
            parent.halt_link(self.parent_pos, parent.slot_ticks * 4)
        if not self._down_busy:
            self._pump_down()

    def _pump_down(self) -> None:
        """Switch the oldest down-FIFO packet; the down port is idle and
        the FIFO is not empty."""
        self._down_busy = True
        engine = self.engine
        now = engine.now
        packet = self.down_fifo.pop(now)
        seq = engine._seq + 1
        engine._seq = seq
        engine._push(
            (now + self.switch_ticks, _PRIO_NORMAL, seq, self._inject_child, packet)
        )

    def _inject_child(self, packet: Packet) -> None:
        child = self.child
        start = child.inject(self.child_pos, packet)
        enq = packet.down_enq
        packet.down_enq = -1
        acc = self._down_delay
        if acc is None:
            acc = self._down_delay = self.stats.accumulator("down_delay")
        acc.add(start - enq if enq >= 0 else 0)
        tr = self.tracer
        if tr is not None:
            tr.stamp_pkt(packet, "iri.down_inject", start)
        # the port release carries its content key: no counter draw
        self.engine._push(
            (start + packet.flits * child.slot_ticks, _PRIO_NORMAL,
             self._down_done_key, self._down_done, None)
        )

    def _down_done(self) -> None:
        if self._down_items:
            self._pump_down()
        else:
            self._down_busy = False
