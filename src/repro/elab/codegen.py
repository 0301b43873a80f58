"""Code generator: MachineIR -> specialized simulator module source.

The generated module defines subclasses of the interpreted components with
their hot-path methods rewritten:

* every config-derived quantity (arbitration ticks, ring slot/hop ticks,
  FIFO capacities, routing-mask shifts and field masks, per-station bits,
  ring sizes) appears as a literal;
* the four hottest pump loops — bus grant / ordered-port pump, memory pump,
  NC pump, ring inject/deliver — are fused: FIFO push/pop bookkeeping and
  ``Engine.schedule`` are inlined so a packet hop costs a handful of Python
  frames instead of a dozen;
* the coherence dispatch is a dense tuple indexed by ``MsgType.value``
  pointing at the *live* interpreted handler functions, so protocol
  behaviour is never duplicated — only the dispatch is compiled;
* all tracer / verifier / monitor / fault-filter checks are deleted (the
  backend guarantees the specialized classes are never active while any
  hook is attached).

Every event is pushed with the same ``(time, priority, seq)`` draw order
as the interpreted path, and every statistic on the machine's canonical
reporting surface (``nc_stats`` / ``memory_stats`` / ``utilizations`` /
``ring_interface_delays``, plus flow-control state such as FIFO
``max_depth``) is updated identically — that is the bit-identity contract,
enforced by tests/test_elab_backend.py and scripts/check_elab.py.

Observability is a *compile-time axis*: ``MachineIR.instrumented`` selects
between two generated variants sharing this generator.

* the **plain** variant deletes every hook check and drops the
  observability-only telemetry no canonical reader consumes (FIFO depth
  integral / wait-time histograms / push counters, the bus
  ``transactions`` counter, the ring ``packets_carried`` counter, the CPU
  ``retries`` counter);
* the **instrumented** variant bakes that telemetry back in inline and
  emits the tracer stamps at exactly the interpreted stamp sites
  (``cpu.send`` / ``ri.send`` / ``ring.inject`` / ``ri.arrive`` /
  ``ri.deliver`` / ``mem.in`` / ``mem.svc`` / ``nc.in`` / ``nc.svc`` /
  the four ``iri.*`` stamps / NACK retries), each behind a single
  ``tracer is not None`` load — no monitor / verifier / fault checks,
  which still force the interpreted backend.

Tracer stamps never schedule events, so both variants push the identical
event stream: instrumented runs are bit-identical to plain runs in
``(events_run, now)`` and the full canonical surface (pinned by
tests/test_obs_elab.py).  The two variants hash to different fingerprints
(:func:`repro.elab.ir.config_elab_fingerprint`) and coexist in the module
store.

Ring arrivals, tail-lag bounces and done relays are pushed with the same
*content-derived* sequence keys the interpreter uses (no tie-break counter
draw): those keys define the same-tick order the pinned fingerprints
record (see repro.interconnect.ring and repro.sim.engine).

Slotted base classes get subclasses with ``__slots__ = ()`` so instances can
be re-classed in place (``obj.__class__ = Generated``); per-station and
per-interface constants therefore live in *class* attributes of tiny
generated subclasses rather than new instance fields.
"""

from __future__ import annotations

from .ir import MachineIR


class ElabUnsupportedError(RuntimeError):
    """This machine shape has no specialized core; run interpreted."""

# The coherence transition tables are no longer literal here: they come
# from the active protocol plug-in's engine classes (``DISPATCH`` class
# attributes, the same single source of truth the interpreted ``_dispatch``
# builds its handler dict from — see repro.protocol.base).  The generated
# module compiles them into dense ``MsgType.value``-indexed tuples.


# ----------------------------------------------------------------------
# snippet helpers (each returns lines already carrying ``ind`` indentation)
# ----------------------------------------------------------------------
def _insert_ev(ind: str) -> str:
    """Insert a prepared local ``ev`` tuple: the engine's C ``heappush``."""
    return f"{ind}_heappush(engine._queue, ev)\n"


def _push_event(ind: str, when: str, prio: int, cb: str, arg: str) -> str:
    """Inlined Engine.schedule: requires a local ``engine``.

    The event tuple and its ``(time, priority, seq)`` counter draw are
    identical to ``Engine.schedule``.
    """
    return (
        f"{ind}seq = engine._seq + 1\n"
        f"{ind}engine._seq = seq\n"
        f"{ind}ev = ({when}, {prio}, seq, {cb}, {arg})\n"
        + _insert_ev(ind)
    )


def _push_keyed(ind: str, when: str, prio: int, key: str, cb: str, arg: str) -> str:
    """Inlined Engine.schedule_keyed_at: the event carries a
    *content-derived* sequence key and draws nothing from the tie-break
    counter (see repro.sim.engine).
    """
    return (
        f"{ind}ev = ({when}, {prio}, {key}, {cb}, {arg})\n"
        + _insert_ev(ind)
    )


def _grant_bus(ind: str, bus: str, arb: int, instr: bool = False) -> str:
    """Inlined Bus._grant for a known-nonempty queue: requires ``engine``.
    Caller must have set ``{bus}._busy = True`` (or know it already is).

    The completion event carries the module-level ``_bus_complete`` with the
    bus packed into the arg tuple — no bound-method allocation per grant.
    The ``transactions`` counter is observability-only telemetry (see module
    docstring): maintained only by the instrumented variant.
    """
    text = (
        f"{ind}duration, on_complete = {bus}._queue.popleft()\n"
        f"{ind}{bus}.busy.busy += duration\n"
    )
    if instr:
        text += f"{ind}{bus}.transactions.value += 1\n"
    return text + (
        f"{ind}now_g = engine.now\n"
        + _push_event(
            ind,
            f"now_g + {arb} + duration",
            1,
            "_bus_complete",
            f"({bus}, now_g + {arb}, on_complete)",
        )
    )


def _fifo_pop(ind: str, fifo: str, out: str, instr: bool = False) -> str:
    """Inlined Fifo.pop, keeping flow control; requires a local ``now``.

    The entry's enqueue tick lands in ``enq`` (several callers feed it into
    the canonical delay accumulators); the depth integral and wait-time
    histogram are observability-only and maintained only by the
    instrumented variant (module docstring).
    """
    text = ""
    if instr:
        text += (
            f"{ind}{fifo}._depth_area += "
            f"len({fifo}._items) * (now - {fifo}._last_change)\n"
            f"{ind}{fifo}._last_change = now\n"
        )
    text += f"{ind}{out}, enq = {fifo}._items.popleft()\n"
    if instr:
        text += (
            f"{ind}wt = {fifo}.wait_time\n"
            f"{ind}sample = now - enq\n"
            f"{ind}wt.count += 1\n"
            f"{ind}wt.total += sample\n"
            f"{ind}if wt.min is None or sample < wt.min:\n"
            f"{ind}    wt.min = sample\n"
            f"{ind}if wt.max is None or sample > wt.max:\n"
            f"{ind}    wt.max = sample\n"
        )
    return text + (
        f"{ind}if {fifo}._on_space:\n"
        f"{ind}    waiters, {fifo}._on_space = {fifo}._on_space, []\n"
        f"{ind}    for cb in waiters:\n"
        f"{ind}        cb()\n"
    )


def _fifo_push(
    ind: str,
    fifo: str,
    item: str,
    capacity: int | None = None,
    instr: bool = False,
) -> str:
    """Inlined Fifo.push at local ``now``; bounded when capacity given.

    Flow control (capacity, ``max_depth`` — the watchdog and the deadlock
    tests read it) is kept; the depth integral and push counter are
    observability-only and maintained only by the instrumented variant."""
    text = f"{ind}items = {fifo}._items\n"
    if capacity is not None:
        text += (
            f"{ind}if len(items) >= {capacity}:\n"
            f'{ind}    raise FifoFullError(f"{{{fifo}.name}} overflow '
            f'(capacity={capacity})")\n'
        )
    if instr:
        text += (
            f"{ind}{fifo}._depth_area += "
            f"len(items) * (now - {fifo}._last_change)\n"
            f"{ind}{fifo}._last_change = now\n"
        )
    text += f"{ind}items.append(({item}, now))\n"
    if instr:
        text += f"{ind}{fifo}.pushes.value += 1\n"
    text += (
        f"{ind}depth = len(items)\n"
        f"{ind}if depth > {fifo}.max_depth:\n"
        f"{ind}    {fifo}.max_depth = depth\n"
    )
    return text


def _ring_send(
    ind: str,
    ring: str,
    pos: str,
    pkt: str,
    size: int,
    slot: int,
    hop: int,
    instr: bool = False,
) -> str:
    """Inlined Ring._send (requires locals ``engine`` and ``now``); leaves
    the transmission start tick in ``start``.

    The arrival is pushed with its *content* key (no counter draw) carrying
    the module-level ``_ring_arrive`` with the ring packed into the arg —
    no bound-method allocation per hop.  The ``packets_carried`` counter is
    observability-only telemetry, maintained only by the instrumented
    variant."""
    text = (
        f"{ind}link_free = {ring}._link_free\n"
        f"{ind}start = link_free[{pos}]\n"
        f"{ind}if now > start:\n"
        f"{ind}    start = now\n"
        f"{ind}occupy = {pkt}.flits * {slot}\n"
        f"{ind}link_free[{pos}] = start + occupy\n"
        f"{ind}{ring}.busy.busy += occupy\n"
    )
    if instr:
        text += f"{ind}{ring}.packets_carried.value += 1\n"
    text += f"{ind}np = ({pos} + 1) % {size}\n"
    return text + _push_keyed(
        ind,
        f"start + {hop}",
        0,
        f"{ring}._abase | np",
        "_ring_arrive",
        f"({ring}, np, {pkt})",
    )


def _stamp_pkt(ind: str, pkt: str, label: str, t: str) -> str:
    """Tracer stamp at an interpreted stamp site (instrumented variant only).

    ``Tracer.stamp_pkt`` is inlined — requester lookup, active-transaction
    fetch, line-address guard, stamp append — because the call overhead
    alone costs ~20% of a traced hot-spot run.  It records but never
    schedules, preserving (events_run, now) bit-identity."""
    return (
        f"{ind}tr = self.tracer\n"
        f"{ind}if tr is not None:\n"
        f"{ind}    _req = {pkt}.requester\n"
        f"{ind}    if _req is not None:\n"
        f"{ind}        _rec = tr.active.get(_req)\n"
        f"{ind}        if _rec is not None and _rec.addr == {pkt}.addr:\n"
        f'{ind}            _rec.stamps.append(({t}, "{label}"))\n'
    )


def _halt_link(ind: str, ring: str, pos: str, size: int) -> str:
    """Inlined Ring.halt_link at local ``now`` (duration = 4 ring slots)."""
    return (
        f"{ind}upstream = ({pos} - 1) % {size}\n"
        f"{ind}target = now + HALT\n"
        f"{ind}if target > {ring}._link_free[upstream]:\n"
        f"{ind}    {ring}._link_free[upstream] = target\n"
        f"{ind}    {ring}.halts.value += 1\n"
    )


# ----------------------------------------------------------------------
def _route_prep(ind: str, ir: MachineIR, pkt: str) -> str:
    """Inlined StationRingInterface._route_prep.

    1 level: the packet always stays on the ring and no upper fields exist.
    2 levels: "needs to ascend" collapses to one mask test against this
    station's own ring bit.  3+ levels: generic codec path.
    """
    if ir.num_levels == 1:
        return f"{ind}{pkt}.route_state = 2 if {pkt}.ordered else 0\n"
    if ir.num_levels == 2:
        return (
            f"{ind}mask = {pkt}.dest_mask\n"
            f"{ind}if mask & F1_MASK & ~self._UPPER_BIT:\n"
            f"{ind}    {pkt}.route_state = 1\n"
            f"{ind}else:\n"
            f"{ind}    {pkt}.dest_mask = mask & F0_MASK\n"
            f"{ind}    {pkt}.route_state = 2 if {pkt}.ordered else 0\n"
        )
    return (
        f"{ind}codec = self.codec\n"
        f"{ind}if codec.highest_level_needed({pkt}.dest_mask, self.station_id):\n"
        f"{ind}    {pkt}.route_state = 1\n"
        f"{ind}else:\n"
        f"{ind}    {pkt}.dest_mask = codec.clear_upper({pkt}.dest_mask, 1)\n"
        f"{ind}    {pkt}.route_state = 2 if {pkt}.ordered else 0\n"
    )


# ======================================================================
# the generator
# ======================================================================
def generate_source(ir: MachineIR) -> str:
    if ir.iris:
        ch, pa = ir.iris[0].child_size, ir.iris[0].parent_size
        if any(i.child_size != ch or i.parent_size != pa for i in ir.iris):
            # 3+-level hierarchies mix ring sizes across IRI groups; the
            # shared _ElabIRI body bakes one (child, parent) size pair
            raise ElabUnsupportedError(
                "heterogeneous inter-ring interface sizes (deep hierarchy)"
            )
    C = ir.consts
    slot, hop, arb = C["SLOT"], C["HOP"], C["ARB"]
    seq_t = C["SEQ"]
    sizes = ir.ring_sizes
    size0 = sizes[0]
    instr = bool(ir.instrumented)
    # the active coherence plug-in supplies the engine base classes and
    # their DISPATCH transition tables (repro.protocol); the generated
    # subclasses extend those, not the protocol-agnostic bases
    from ..protocol import get_protocol

    proto = get_protocol(ir.protocol)
    nc_base = proto.nc_class
    mem_base = proto.memory_class
    L: list[str] = []
    w = L.append

    w('"""Auto-generated specialized simulator core — DO NOT EDIT.')
    w("")
    w("Produced by repro.elab.codegen from a MachineConfig; regenerated")
    w("whenever the config, package version or elaborator schema changes.")
    w('"""')
    w(f'FINGERPRINT = "{ir.fingerprint}"')
    w(f"INSTRUMENTED = {instr}")
    w(f'PROTOCOL = "{proto.name}"')
    w("")
    w("from heapq import heappush as _heappush")
    w("")
    w(f"from {nc_base.__module__} import {nc_base.__name__} as _NCBase")
    w(f"from {mem_base.__module__} import {mem_base.__name__} as _MemBase")
    w("from repro.cpu.processor import Processor")
    w("from repro.core.states import CacheState")
    w("from repro.interconnect.interfaces import (")
    w("    InterRingInterface,")
    w("    StationRingInterface,")
    w(")")
    w("from repro.interconnect.packet import MsgType, Packet, next_pid")
    w("from repro.interconnect.ring import Ring")
    w("from repro.sim.engine import SimulationError")
    w("from repro.sim.fifo import FifoFullError")
    w("from repro.softctl import ops as _softops")
    w("from repro.system.bus import Bus, OrderedPort")
    w("from repro.system.station import Station")
    w("")
    for name, value in sorted(ir.consts.items()):
        w(f"{name} = {value}")
    w("")
    w("_WRITE_BACK = MsgType.WRITE_BACK")
    w("_BARRIER_WRITE = MsgType.BARRIER_WRITE")
    w("_INTERRUPT = MsgType.INTERRUPT")
    w("_UNCACHED_RESP = MsgType.UNCACHED_RESP")
    w("_READ = MsgType.READ")
    w("_READ_EX = MsgType.READ_EX")
    w("_UPGRADE = MsgType.UPGRADE")
    w("_SHARED = CacheState.SHARED")
    w("")
    w("# dense coherence dispatch: MsgType.value -> live interp handler")
    w("_MT_MAX = max(_m._value_ for _m in MsgType)")
    w("")
    w("def _mk_table(default, pairs):")
    w("    table = [default] * (_MT_MAX + 1)")
    w("    for mt, fn in pairs:")
    w("        table[mt._value_] = fn")
    w("    return tuple(table)")
    w("")
    w("_NC_H = _mk_table(_softops.nc_dispatch, (")
    for mt, fn in nc_base.DISPATCH:
        w(f"    (MsgType.{mt}, _NCBase.{fn}),")
    w("))")
    w("_MEM_H = _mk_table(_MemBase._on_other, (")
    for mt, fn in mem_base.DISPATCH:
        w(f"    (MsgType.{mt}, _MemBase.{fn}),")
    w("))")
    w("")
    w("")
    w("# ----------------------------------------------------------------------")
    w("# module-level event callbacks: the component the event belongs to is")
    w("# packed into the arg tuple, so pushing an event costs one tuple and")
    w("# never a bound-method allocation (the engine calls ``callback(arg)``,")
    w("# so callback identity is free to differ from the interpreted path).")
    w("# ----------------------------------------------------------------------")
    i2, i3 = "        ", "            "
    w("# The two hottest bus completions — the CPU's request delivery and the")
    w("# NC's NACK-retry — are encoded as plain tuples instead of lambdas /")
    w("# closures: ``(target, pkt)`` delivers ``target.handle(pkt)``, and")
    w("# ``(cpu, addr, None)`` runs the NACK retry.  Everything else (interp")
    w("# protocol handlers, SRI drain) still passes a real callable.")
    w("def _bus_complete(arg):")
    w("    bus, start, on_complete = arg")
    w("    if type(on_complete) is tuple:")
    w("        if len(on_complete) == 2:")
    w("            t, k = on_complete")
    w("            t.handle(k)")
    w("        else:")
    w("            cc = on_complete[0]")
    w("            p = cc._pending")
    w('            if p is not None and p["la"] == on_complete[1]:')
    w('                p["tries"] += 1')
    w("                engine = cc.engine")
    if instr:
        w('                cc.stats.counter("retries").incr()')
        w("                tr = cc.tracer")
        w("                if tr is not None:")
        w("                    _rec = tr.active.get(cc.cpu_id)")
        w("                    if _rec is not None:")
        w("                        _rec.retries += 1")
        w('                        _rec.stamps.append((engine.now, "nack"))')
    w(_push_event("                ", "engine.now + cc._retry", 1,
                  "_cpu_send_request", "cc").rstrip())
    w("    else:")
    w("        on_complete(start)")
    w("    if not bus._queue:")
    w("        bus._busy = False")
    w("        return")
    w("    engine = bus.engine")
    w(_grant_bus("    ", "bus", arb, instr).rstrip())
    w("")
    w("")
    w("def _port_issue(arg):")
    w("    port, duration, cb = arg")
    w("    bus = port.bus")
    w("    bus._queue.append((duration, cb))")
    w("    if not bus._busy:")
    w("        bus._busy = True")
    w("        engine = port.engine")
    w(_grant_bus("        ", "bus", arb, instr).rstrip())
    w("    port._busy = False")
    w("    pq = port._queue")
    w("    if pq:")
    w("        port._busy = True")
    w("        ready, duration, cb = pq.popleft()")
    w("        engine = port.engine")
    w("        now = engine.now")
    w("        if ready < now:")
    w("            ready = now")
    w(_push_event("        ", "ready", 1, "_port_issue",
                  "(port, duration, cb)").rstrip())
    w("")
    w("")
    w("def _ring_arrive(arg):")
    w("    ring, pos, packet = arg")
    w("    member = ring.members[pos]")
    w("    if member is None:")
    w('        raise RuntimeError(f"{ring.name}: no member at position {pos}")')
    w("    member.ring_arrival(ring, packet)")
    w("")
    w("")

    # ------------------------------------------------------------------
    # bus + ordered port
    # ------------------------------------------------------------------
    w("")
    w("class ElabBus(Bus):")
    w("    __slots__ = ()")
    w("")
    w("    def request(self, duration, on_complete):")
    w("        self._queue.append((duration, on_complete))")
    w("        if not self._busy:")
    w("            self._busy = True")
    w("            engine = self.engine")
    w(_grant_bus(i3, "self", arb, instr).rstrip())
    w("")
    w("")
    w("class ElabPort(OrderedPort):")
    w("    __slots__ = ()")
    w("")
    w("    def send(self, delay, duration, on_complete):")
    w("        engine = self.engine")
    w("        now = engine.now")
    w("        if self._busy:")
    w("            self._queue.append((now + delay, duration, on_complete))")
    w("            return")
    w("        # idle port => empty queue: push + popleft cancel out")
    w("        self._busy = True")
    w("        ready = now + delay if delay > 0 else now")
    w(_push_event(i2, "ready", 1, "_port_issue",
                  "(self, duration, on_complete)").rstrip())
    w("")
    w("    def _pump(self):")
    w("        if self._busy or not self._queue:")
    w("            return")
    w("        self._busy = True")
    w("        ready, duration, cb = self._queue.popleft()")
    w("        engine = self.engine")
    w("        now = engine.now")
    w("        if ready < now:")
    w("            ready = now")
    w(_push_event(i2, "ready", 1, "_port_issue", "(self, duration, cb)").rstrip())
    w("")

    # ------------------------------------------------------------------
    # rings (one subclass per level: the size is a literal)
    # ------------------------------------------------------------------
    for level in sorted(sizes):
        size = sizes[level]
        w("")
        w(f"class ElabRingL{level}(Ring):")
        w("    __slots__ = ()")
        w("")
        w("    def inject(self, pos, packet):")
        w("        engine = self.engine")
        w("        now = engine.now")
        w(_ring_send(i2, "self", "pos", "packet", size, slot, hop,
                     instr).rstrip())
        w("        return start")
        w("")
        w("    forward = inject")
        w("")

    # ------------------------------------------------------------------
    # station ring interface
    # ------------------------------------------------------------------
    w("")
    w("class _ElabSRI(StationRingInterface):")
    w("    __slots__ = ()")
    w("")
    w("    def send(self, packet):")
    w("        engine = self.engine")
    w("        if packet.born < 0:")
    w("            packet.born = engine.now")
    if instr:
        # interp stamps before the credit check, so credit-waiting packets
        # carry the stamp at original send time (release_credit re-stamps
        # nothing)
        w(_stamp_pkt(i2, "packet", "ri.send", "engine.now").rstrip())
    w("        if not packet.mtype.sinkable:")
    w("            if self._nonsink_credits == 0:")
    w("                self._pending_out.append(packet)")
    w('                self.stats.counter("nonsink_credit_waits").incr()')
    w("                return")
    w("            self._nonsink_credits -= 1")
    w("            packet.credit_home = self")
    w(_route_prep(i2, ir, "packet").rstrip())
    w("        now = engine.now")
    w("        packet.send_enq = now")
    w(_push_event(i2, "now + PKT_GEN", 1, "self._enqueue_out", "packet").rstrip())
    w("")
    w("    def release_credit(self):")
    w("        if self._pending_out:")
    w("            packet = self._pending_out.popleft()")
    w("            packet.credit_home = self")
    w(_route_prep(i3, ir, "packet").rstrip())
    w("            engine = self.engine")
    w("            now = engine.now")
    w("            packet.send_enq = now")
    w(_push_event(i3, "now + PKT_GEN", 1, "self._enqueue_out", "packet").rstrip())
    w("        else:")
    w("            self._nonsink_credits += 1")
    w("")
    w("    def _enqueue_out(self, packet):")
    w("        f = self.out_fifo")
    w("        engine = self.engine")
    w("        now = engine.now")
    w(_fifo_push(i2, "f", "packet", instr=instr).rstrip())
    w("        self._pump_out()")
    w("")
    w("    def _pump_out(self):")
    w("        if self._out_busy:")
    w("            return")
    w("        f = self.out_fifo")
    w("        if not f._items:")
    w("            return")
    w("        self._out_busy = True")
    w("        engine = self.engine")
    w("        now = engine.now")
    w(_fifo_pop(i2, "f", "packet", instr).rstrip())
    w("        if packet.route_state == 0 and (packet.dest_mask & F0_MASK) == self._MYBIT:")
    w(_push_event(i3, "now", 1, "self._local_loopback", "packet").rstrip())
    w("            self._out_busy = False")
    w("            self._pump_out()")
    w("            return")
    w("        ring = self.ring")
    w("        pos = self.pos")
    w(_ring_send(i2, "ring", "pos", "packet", size0, slot, hop, instr).rstrip())
    w("        enq = packet.send_enq")
    w("        packet.send_enq = -1")
    w('        self.stats.accumulator("send_delay").add(start - enq if enq >= 0 else 0)')
    if instr:
        w(_stamp_pkt(i2, "packet", "ring.inject", "start").rstrip())
    w(f"        done = start + packet.flits * {slot}")
    w(_push_keyed(i2, "done", 1, "self._out_done_key",
                  "self._out_done", "None").rstrip())
    w("")
    w("    def _out_done(self):")
    w("        self._out_busy = False")
    w("        self._pump_out()")
    w("")
    # ring_arrival: single-level machines need the sequencing-point branch;
    # in multi-level machines the local-ring sequencing point is the IRI, so
    # any nonzero route_state simply forwards past the station.
    w("    def ring_arrival(self, ring, packet):")
    w("        state = packet.route_state")
    if ir.num_levels == 1:
        w("        if state == 2 and self._IS_SEQ:")
        w("            packet.route_state = 0")
        if seq_t:
            w(_push_event(i3, "engine.now + SEQ", 1, "self._deliver_after_seq",
                          "packet").replace("seq = engine", "engine = self.engine\n"
                          + i3 + "seq = engine", 1).rstrip())
            w("            return")
        w("        elif state:")
    else:
        w("        if state:")
    w("            engine = self.engine")
    w("            now = engine.now")
    w("            ring = self.ring")
    w("            pos = self.pos")
    w(_ring_send(i3, "ring", "pos", "packet", size0, slot, hop, instr).rstrip())
    w("            return")
    w("        fld = packet.dest_mask & F0_MASK")
    w("        mybit = self._MYBIT")
    w("        if fld & mybit:")
    w("            remaining = fld & ~mybit")
    w("            packet.dest_mask = (packet.dest_mask & ~F0_MASK) | remaining")
    w("            if remaining:")
    w("                copy = packet.copy_for_branch()")
    w("                self._accept(copy)")
    w("                self.ring.forward(self.pos, packet)")
    w("            else:")
    w("                self._accept(packet)")
    w("        else:")
    w("            engine = self.engine")
    w("            now = engine.now")
    w("            ring = self.ring")
    w("            pos = self.pos")
    w(_ring_send(i3, "ring", "pos", "packet", size0, slot, hop, instr).rstrip())
    w("")
    # the tail-lag bounce carries the arrival-derived content key (see
    # interfaces._accept); _local_loopback / _accept_seq are inherited —
    # they delegate to _accept_body, which resolves to the generated one
    w("    def _accept(self, packet):")
    w(f"        tail = (packet.flits - 1) * {slot}")
    w("        if tail:")
    w("            engine = self.engine")
    w(_push_keyed(i3, "engine.now + tail", 0,
                  "self._bounce_base | packet.flits",
                  "self._accept_body", "packet").rstrip())
    w("            return")
    w("        self._accept_body(packet)")
    w("")
    w("    def _accept_body(self, packet):")
    w("        now = self.engine.now")
    w("        packet.arr = now")
    if instr:
        w(_stamp_pkt(i2, "packet", "ri.arrive", "now").rstrip())
    w("        f = self.in_fifo")
    w(_fifo_push(i2, "f", "packet", capacity=C["IN_CAP"], instr=instr).rstrip())
    w("        if depth >= IN_HW:")
    w("            ring = self.ring")
    w(_halt_link(i3, "ring", "self.pos", size0).rstrip())
    w('            self.stats.counter("input_halts").incr()')
    w("        if not self._handler_busy:")
    w("            f2 = self.in_fifo")
    w("            self._handler_busy = True")
    w("            engine = self.engine")
    w(_fifo_pop(i3, "f2", "pkt2", instr).rstrip())
    w(_push_event(i3, "now + HANDLER", 1, "self._handler_done", "pkt2").rstrip())
    w("")
    w("    def _pump_handler(self):")
    w("        if self._handler_busy:")
    w("            return")
    w("        f = self.in_fifo")
    w("        if not f._items:")
    w("            return")
    w("        self._handler_busy = True")
    w("        engine = self.engine")
    w("        now = engine.now")
    w(_fifo_pop(i2, "f", "packet", instr).rstrip())
    w(_push_event(i2, "now + HANDLER", 1, "self._handler_done", "packet").rstrip())
    w("")
    w("    def _handler_done(self, packet):")
    w("        now = self.engine.now")
    w("        f = self.sink_q if packet.mtype.sinkable else self.nonsink_q")
    w(_fifo_push(i2, "f", "packet", instr=instr).rstrip())
    w("        self._handler_busy = False")
    w("        self._pump_handler()")
    w("        self._pump_drain()")
    w("")
    w("    def _pump_drain(self):")
    w("        if self._drain_busy:")
    w("            return")
    w("        if self.sink_q._items:")
    w("            f = self.sink_q")
    w('            kind = "sink"')
    w("        elif self.nonsink_q._items:")
    w("            f = self.nonsink_q")
    w('            kind = "nonsink"')
    w("        else:")
    w("            return")
    w("        self._drain_busy = True")
    w("        now = self.engine.now")
    w(_fifo_pop(i2, "f", "packet", instr).rstrip())
    w("        cycles = CMD + (LINE_T if packet.data is not None else 0)")
    w("        self.bus_granter(")
    w("            cycles, lambda start, p=packet, k=kind: self._bus_done(p, k)")
    w("        )")
    w("")
    w("    def _bus_done(self, packet, kind):")
    w("        now = self.engine.now")
    w("        arr = packet.arr")
    w("        packet.arr = -1")
    w("        if arr < 0:")
    w("            arr = now")
    w('        self.stats.accumulator("down_delay_" + kind).add(now - arr)')
    if instr:
        w(_stamp_pkt(i2, "packet", "ri.deliver", "now").rstrip())
    w("        self._drain_busy = False")
    w("        if not packet.mtype.sinkable:")
    w("            credit_home = packet.credit_home")
    w("            if credit_home is not None:")
    w("                packet.credit_home = None")
    w("                credit_home.release_credit()")
    w("        self.deliver_cb(packet)")
    w("        self._pump_drain()")
    w("")

    # per-station subclasses: routing constants as class attributes
    for st in ir.stations:
        w("")
        w(f"class ElabSRI{st.station_id}(_ElabSRI):")
        w("    __slots__ = ()")
        w(f"    _MYBIT = {st.my_bit}")
        if ir.num_levels >= 2:
            w(f"    _UPPER_BIT = {st.upper_bit}")
        if ir.num_levels == 1:
            w(f"    _IS_SEQ = {st.is_seq}")
        w("")

    # ------------------------------------------------------------------
    # inter-ring interfaces
    # ------------------------------------------------------------------
    if ir.iris:
        ch_size = ir.iris[0].child_size
        p_size = ir.iris[0].parent_size
        w("")
        w("class _ElabIRI(InterRingInterface):")
        w("    __slots__ = ()")
        w("")
        w("    def ring_arrival(self, ring, packet):")
        w("        if ring is self.child:")
        w("            self._child_arrival(packet)")
        w("        elif ring is self.parent:")
        w("            self._parent_arrival(packet)")
        w("        else:  # pragma: no cover - wiring error")
        w('            raise RuntimeError(f"{self.name} got packet from unknown ring")')
        w("")
        w("    def _child_arrival(self, packet):")
        w("        state = packet.route_state")
        w("        if state == 1:")
        w("            self._enqueue_up(packet)")
        w("            return")
        w("        if state == 2 and self._CHILD_IS_SEQ:")
        w("            packet.route_state = 0")
        if seq_t:
            w("            engine = self.engine")
            w(_push_event(i3, "engine.now + SEQ", 1, "self._fwd_child", "packet").rstrip())
            w("            return")
        w("        self.child.forward(self.child_pos, packet)")
        w("")
        w("    def _fwd_child(self, packet):")
        w("        self.child.forward(self.child_pos, packet)")
        w("")
        w("    def _enqueue_up(self, packet):")
        w("        engine = self.engine")
        w("        now = engine.now")
        if instr:
            w(_stamp_pkt(i2, "packet", "iri.up_enq", "now").rstrip())
        w("        packet.up_enq = now")
        w("        f = self.up_fifo")
        w(_fifo_push(i2, "f", "packet", capacity=C["IRI_CAP"], instr=instr).rstrip())
        w("        if depth >= IRI_HW:")
        w("            child = self.child")
        w(_halt_link(i3, "child", "self.child_pos", ch_size).rstrip())
        w("        self._pump_up()")
        w("")
        w("    def _pump_up(self):")
        w("        if self._up_busy:")
        w("            return")
        w("        f = self.up_fifo")
        w("        if not f._items:")
        w("            return")
        w("        self._up_busy = True")
        w("        engine = self.engine")
        w("        now = engine.now")
        w(_fifo_pop(i2, "f", "packet", instr).rstrip())
        w(_push_event(i2, "now + SWITCH", 1, "self._inject_parent", "packet").rstrip())
        w("")
        w("    def _inject_parent(self, packet):")
        w("        if packet.dest_mask & self._HIGHER_MASK:")
        w("            packet.route_state = 1")
        w("        else:")
        w("            packet.route_state = 2 if packet.ordered else 0")
        w("        engine = self.engine")
        w("        now = engine.now")
        w("        parent = self.parent")
        w("        pos = self.parent_pos")
        w(_ring_send(i2, "parent", "pos", "packet", p_size, slot, hop,
                     instr).rstrip())
        w("        enq = packet.up_enq")
        w("        packet.up_enq = -1")
        w('        self.stats.accumulator("up_delay").add(start - enq if enq >= 0 else 0)')
        if instr:
            w(_stamp_pkt(i2, "packet", "iri.up_inject", "start").rstrip())
        w(f"        done = start + packet.flits * {slot}")
        w(_push_keyed(i2, "done", 1, "self._up_done_key",
                      "self._up_done", "None").rstrip())
        w("")
        w("    def _up_done(self):")
        w("        self._up_busy = False")
        w("        self._pump_up()")
        w("")
        w("    def _parent_arrival(self, packet):")
        w("        state = packet.route_state")
        w("        if state == 1:")
        w("            self.parent.forward(self.parent_pos, packet)")
        w("            return")
        w("        if state == 2:")
        w("            if self._PARENT_IS_SEQ:")
        w("                packet.route_state = 0")
        if seq_t:
            w("                if not packet.seq_done:")
            w("                    packet.seq_done = True")
            w("                    packet.route_state = 2")
            w("                    engine = self.engine")
            w(_push_event("                    ", "engine.now + SEQ", 1,
                          "self._parent_arrival", "packet").rstrip())
            w("                    return")
            w("                packet.seq_done = False")
        w("            else:")
        w("                self.parent.forward(self.parent_pos, packet)")
        w("                return")
        w("        fld = (packet.dest_mask & self._PF_MASK) >> self._P_SHIFT")
        w("        mybit = self._PBIT")
        w("        if fld & mybit:")
        w("            remaining = fld & ~mybit")
        w("            packet.dest_mask = (packet.dest_mask & ~self._PF_MASK) | (")
        w("                remaining << self._P_SHIFT")
        w("            )")
        w("            if remaining:")
        w("                copy = packet.copy_for_branch()")
        w("                self._enqueue_down(copy)")
        w("                self.parent.forward(self.parent_pos, packet)")
        w("            else:")
        w("                self._enqueue_down(packet)")
        w("        else:")
        w("            self.parent.forward(self.parent_pos, packet)")
        w("")
        w("    def _enqueue_down(self, packet):")
        w("        packet.dest_mask &= self._KEEP_MASK")
        w("        packet.route_state = 0")
        w("        engine = self.engine")
        w("        now = engine.now")
        w("        packet.down_enq = now")
        if instr:
            w(_stamp_pkt(i2, "packet", "iri.down_enq", "now").rstrip())
        w("        f = self.down_fifo")
        w(_fifo_push(i2, "f", "packet", capacity=C["IRI_CAP"], instr=instr).rstrip())
        w("        if depth >= IRI_HW:")
        w("            parent = self.parent")
        w(_halt_link(i3, "parent", "self.parent_pos", p_size).rstrip())
        w("        self._pump_down()")
        w("")
        w("    def _pump_down(self):")
        w("        if self._down_busy:")
        w("            return")
        w("        f = self.down_fifo")
        w("        if not f._items:")
        w("            return")
        w("        self._down_busy = True")
        w("        engine = self.engine")
        w("        now = engine.now")
        w(_fifo_pop(i2, "f", "packet", instr).rstrip())
        w(_push_event(i2, "now + SWITCH", 1, "self._inject_child", "packet").rstrip())
        w("")
        w("    def _inject_child(self, packet):")
        w("        engine = self.engine")
        w("        now = engine.now")
        w("        child = self.child")
        w("        pos = self.child_pos")
        w(_ring_send(i2, "child", "pos", "packet", ch_size, slot, hop,
                     instr).rstrip())
        w("        enq = packet.down_enq")
        w("        packet.down_enq = -1")
        w('        self.stats.accumulator("down_delay").add(start - enq if enq >= 0 else 0)')
        if instr:
            w(_stamp_pkt(i2, "packet", "iri.down_inject", "start").rstrip())
        w(f"        done = start + packet.flits * {slot}")
        w(_push_keyed(i2, "done", 1, "self._down_done_key",
                      "self._down_done", "None").rstrip())
        w("")
        w("    def _down_done(self):")
        w("        self._down_busy = False")
        w("        self._pump_down()")
        w("")
        for idx, iri in enumerate(ir.iris):
            w("")
            w(f"class ElabIRI{idx}(_ElabIRI):")
            w("    __slots__ = ()")
            w(f"    _PBIT = {iri.parent_bit}")
            w(f"    _PF_MASK = {iri.parent_field_mask}")
            w(f"    _P_SHIFT = {iri.parent_shift}")
            w(f"    _HIGHER_MASK = {iri.higher_mask}")
            w(f"    _KEEP_MASK = {iri.keep_mask}")
            w(f"    _CHILD_IS_SEQ = {iri.child_is_seq}")
            w(f"    _PARENT_IS_SEQ = {iri.parent_is_seq}")
            w("")

    # ------------------------------------------------------------------
    # network cache + memory module serialization plumbing
    # ------------------------------------------------------------------
    for cname, base, latency, svc in (
        ("ElabNC", "_NCBase", "TAG", "nc"),
        ("ElabMem", "_MemBase", "LOOKUP", "mem"),
    ):
        done_fn = f"_{svc}_service_done"
        w("")
        w(f"def {done_fn}(self):")
        w("    self._busy = False")
        w("    f = self.in_fifo")
        w("    if not f._items:")
        w("        return")
        w("    self._busy = True")
        w("    engine = self.engine")
        w("    now = engine.now")
        w(_fifo_pop("    ", "f", "pkt", instr).rstrip())
        w(_push_event("    ", f"now + {latency}", 1, "self._service", "pkt").rstrip())
        w("")
        w("")
        w(f"class {cname}({base}):")
        w("")
        w(f"    _service_done = {done_fn}")
        w("")
        w("    def handle(self, pkt):")
        w("        engine = self.engine")
        w("        now = engine.now")
        if instr:
            w(_stamp_pkt(i2, "pkt", f"{svc}.in", "now").rstrip())
        w("        f = self.in_fifo")
        w(_fifo_push(i2, "f", "pkt", instr=instr).rstrip())
        w("        if self._busy:")
        w("            return")
        w("        self._busy = True")
        if instr:
            # full Fifo.pop telemetry: the pop lands at the push tick, so
            # the depth-area delta is 0 and the wait sample is exactly 0 —
            # identical to the interpreted push-then-pump sequence
            w(_fifo_pop(i2, "f", "pkt2", instr).rstrip())
        else:
            w("        # Fifo.pop inlined (handle just pushed, so nonempty)")
            w("        pkt2, enq = items.popleft()")
            w("        if f._on_space:")
            w("            waiters, f._on_space = f._on_space, []")
            w("            for cb in waiters:")
            w("                cb()")
        w(_push_event(i2, f"now + {latency}", 1, "self._service", "pkt2").rstrip())
        w("")
        w("    def _pump(self):")
        w("        if self._busy:")
        w("            return")
        w("        f = self.in_fifo")
        w("        if not f._items:")
        w("            return")
        w("        self._busy = True")
        w("        engine = self.engine")
        w("        now = engine.now")
        w(_fifo_pop(i2, "f", "pkt", instr).rstrip())
        w(_push_event(i2, f"now + {latency}", 1, "self._service", "pkt").rstrip())
        w("")
        if svc == "nc":
            w("    def _service(self, pkt):")
            if instr:
                w(_stamp_pkt(i2, "pkt", "nc.svc", "self.engine.now").rstrip())
            w("        mtype = pkt.mtype")
            w('        if pkt.meta.get("local"):')
            w("            if mtype is _WRITE_BACK:")
            w("                extra = self._on_local_writeback(pkt)")
            w("            else:")
            w("                extra = self._on_local_request(pkt)")
            w("        else:")
            w("            extra = _NC_H[mtype._value_](self, pkt)")
            w("        engine = self.engine")
            w(_push_keyed(i2, "engine.now + (extra or 0)", 1,
                          "self._done_key", done_fn, "self").rstrip())
        else:
            w("    def _service(self, pkt):")
            if instr:
                w(_stamp_pkt(i2, "pkt", "mem.svc", "self.engine.now").rstrip())
            w("        entry = self.directory.entry(pkt.addr & LINE_MASK)")
            w("        extra = _MEM_H[pkt.mtype._value_](")
            w('            self, pkt, entry, bool(pkt.meta.get("local"))')
            w("        )")
            w("        engine = self.engine")
            w(_push_keyed(i2, "engine.now + (extra or 0)", 1,
                          "self._done_key", done_fn, "self").rstrip())
        w("")
        if svc == "nc" and proto.name == "numachine":
            # The local-request NACK storm is the hottest protocol path in
            # contended runs: a locked line bounces every local retry.  It
            # is transcribed here with the tag probe, the nack counter, the
            # cpu lookup and the ordered-port send all inlined; every other
            # local-request outcome falls back to the interpreted method
            # (the probe is pure, so re-running it there is side-effect
            # free).  Protocol-specific (it mirrors the NUMAchine NC's
            # locked-line branch), so other plug-ins inherit their own
            # _on_local_request unmodified.
            w("    def _on_local_request(self, pkt):")
            w("        if self.enabled:")
            w("            addr = pkt.addr")
            w("            line = self.array._slots.get(")
            w("                (addr // NC_LINE_B) % NC_SLOTS")
            w("            )")
            w("            if line is not None and line.addr == addr and line.locked:")
            w("                p = line.pending")
            w("                cpu = pkt.requester")
            w('                if p is not None and p.kind == "fetch" and cpu != p.cpu:')
            w("                    p.combined.add(cpu)")
            w("                ctr = self._ctr_nacks")
            w("                if ctr is None:")
            w('                    ctr = self._ctr_nacks = self.stats.counter("nacks")')
            w("                ctr.value += 1")
            w("                c = self.station.cpus[cpu % CPS]")
            w("                if c.cpu_id != cpu:")
            w("                    raise SimulationError(")
            w('                        f"cpu {cpu} is not on station "')
            w('                        f"{self.station.station_id}"')
            w("                    )")
            w("                port = self.out_port")
            w("                engine = self.engine")
            w("                # NACK retry as a data tuple (see _bus_complete)")
            w("                cb = (c, addr, None)")
            w("                if port._busy:")
            w("                    port._queue.append((engine.now, CMD, cb))")
            w("                else:")
            w("                    # idle port => empty queue: send's")
            w("                    # append+popleft cancels out")
            w("                    port._busy = True")
            w(_push_event("                    ", "engine.now", 1,
                          "_port_issue", "(port, CMD, cb)").rstrip())
            w("                return 0")
            w("        return _NCBase._on_local_request(self, pkt)")
            w("")

    # ------------------------------------------------------------------
    # station dispatch + processor request path
    # ------------------------------------------------------------------
    w("")
    w("class ElabStation(Station):")
    w("")
    w("    def module_for(self, addr):")
    w("        station = addr // SMB")
    w("        if station == self.station_id:")
    w("            return self.memory")
    w("        if station >= NSTATIONS:")
    w('            raise ValueError(f"address {addr:#x} beyond physical memory")')
    w("        return self.nc")
    w("")
    w("    def deliver_from_ring(self, pkt):")
    w("        mtype = pkt.mtype")
    w("        if (")
    w("            mtype is _BARRIER_WRITE")
    w("            or mtype is _INTERRUPT")
    w("            or mtype is _UNCACHED_RESP")
    w("        ):")
    w("            Station.deliver_from_ring(self, pkt)")
    w("            return")
    w("        home = pkt.addr // SMB")
    w("        if home >= NSTATIONS:")
    w('            raise ValueError(f"address {pkt.addr:#x} beyond physical memory")')
    w("        if home == self.station_id:")
    w("            self.memory.handle(pkt)")
    w("        else:")
    w("            self.nc.handle(pkt)")
    w("")
    w("")
    w("# Processor._send_request specialized as a module-level function so the")
    w("# retry path can schedule it with the CPU packed in the arg (no bound")
    w("# method per retry); aliased back into ElabCPU so descriptor callers")
    w("# (read/write issue) bind it as a normal method.")
    w("def _cpu_send_request(self):")
    w("    p = self._pending")
    w("    if p is None:")
    w("        return")
    w('    la = p["la"]')
    w("    # l2.lookup(la, touch=False) inlined: probe without MRU move")
    w("    s = self.l2._sets.get((la // L2_LINE_B) % L2_SETS)")
    w("    line = None if s is None else s.get(la)")
    w('    kind = p["kind"]')
    w('    if kind == "read":')
    w("        if line is not None and line.state.readable:")
    w("            self._complete_locally()")
    w("            return")
    w('        mtype = _READ_EX if p.get("exclusive_only") else _READ')
    w("    else:")
    w("        if line is not None and line.state.writable:")
    w("            self._complete_locally()")
    w("            return")
    w("        if line is not None and line.state is _SHARED:")
    w("            mtype = _UPGRADE")
    w("        else:")
    w("            mtype = _READ_EX")
    w('    pkt = p.get("pkt")')
    w("    if pkt is None:")
    w("        pkt = Packet(")
    w("            mtype=mtype,")
    w("            addr=la,")
    w("            src_station=self.station.station_id,")
    w("            dest_mask=0,")
    w("            requester=self.cpu_id,")
    w('            meta={"local": True, "retry": False, "phase": self.phase},')
    w("        )")
    w('        p["pkt"] = pkt')
    w("    else:")
    w("        pkt.mtype = mtype")
    w("        pkt.pid = next_pid()")
    w('        pkt.meta["retry"] = True')
    if instr:
        # inlined Tracer.stamp — this runs once per issue *and* retry, the
        # single hottest CPU-side stamp site
        w("    tr = self.tracer")
        w("    if tr is not None:")
        w("        _rec = tr.active.get(self.cpu_id)")
        w("        if _rec is not None:")
        w('            _rec.stamps.append((self.engine.now, "cpu.send"))')
    w("    st = self.station")
    w("    home = la // SMB")
    w("    if home == st.station_id:")
    w("        target = st.memory")
    w("    elif home < NSTATIONS:")
    w("        target = st.nc")
    w("    else:")
    w('        raise ValueError(f"address {la:#x} beyond physical memory")')
    w("    bus = st.bus")
    w("    # delivery as a data tuple (see _bus_complete): no lambda per issue")
    w("    bus._queue.append((CMD, (target, pkt)))")
    w("    if not bus._busy:")
    w("        bus._busy = True")
    w("        engine = self.engine")
    w(_grant_bus(i2, "bus", arb, instr).rstrip())
    w("")
    w("")
    w("class ElabCPU(Processor):")
    w("")
    w("    _send_request = _cpu_send_request")
    w("")
    w("    def nack_from_module(self, la):")
    w("        p = self._pending")
    w('        if p is None or p["la"] != la:')
    w("            return")
    w('        p["tries"] += 1')
    w("        engine = self.engine")
    if instr:
        w('        self.stats.counter("retries").incr()')
        w("        tr = self.tracer")
        w("        if tr is not None:")
        w("            _rec = tr.active.get(self.cpu_id)")
        w("            if _rec is not None:")
        w("                _rec.retries += 1")
        w('                _rec.stamps.append((engine.now, "nack"))')
    w(_push_event(i2, "engine.now + self._retry", 1,
                  "_cpu_send_request", "self").rstrip())
    w("")

    # ------------------------------------------------------------------
    # class maps consumed by repro.elab.backend
    # ------------------------------------------------------------------
    w("")
    w("SRI_CLASSES = {")
    for st in ir.stations:
        w(f"    {st.station_id}: ElabSRI{st.station_id},")
    w("}")
    w("IRI_CLASSES = {")
    for idx, iri in enumerate(ir.iris):
        w(f'    "{iri.name}": ElabIRI{idx},')
    w("}")
    w("RING_CLASSES = {")
    for level in sorted(sizes):
        w(f"    {level}: ElabRingL{level},")
    w("}")
    w("")
    return "\n".join(L) + "\n"
