"""Code generator: MachineIR -> specialized simulator module source.

The generated module defines subclasses of the station-side components —
the station bus, the ordered output ports, the memory module, the network
cache and the processor — with their hot-path methods rewritten:

* every config-derived quantity (bus arbitration and command ticks, module
  latencies, the address map) appears as a literal; the tag arrays are
  probed through their bound ``lookup`` / ``probe`` (a C-level dict
  ``get``, no Python frame), never through inlined set arithmetic;
* the three hottest pump loops — bus grant / ordered-port pump, memory
  pump, NC pump — are fused: FIFO push/pop bookkeeping and
  ``Engine.schedule`` are inlined so a bus transaction costs a handful of
  Python frames instead of a dozen;
* the coherence dispatch is a dense tuple indexed by ``MsgType.value``
  pointing at the *live* interpreted handler functions, so protocol
  behaviour is never duplicated — only the dispatch is compiled;
* the CPU request path runs as a module-level function, so the NACK retry
  schedules it with the CPU packed in the event argument;
* every overridden method calls an attached tracer, coherence checker and
  monitor at the same points as the hand-written method it replaces (every
  other hook call sits in code the generated classes inherit), so hooked
  runs execute the generated core too.

Rings, ring interfaces and stations are not generated: the hand-written
classes of :mod:`repro.interconnect` and :mod:`repro.system.station` run
on both cores.

Every event is pushed with the same ``(time, priority, seq)`` draw order
as the interpreted path, and every statistic the metrics snapshot
(:func:`repro.obs.registry.snapshot`) reads — stat-group counters and
accumulators, FIFO pushes / waits / ``max_depth``, the bus
``transactions`` and CPU ``retries`` counters, busy ticks — is updated
identically: that is the bit-identity contract, enforced by
tests/test_elab_backend.py.

The memory and NC service releases are pushed with the same
*content-derived* sequence keys the interpreter uses (no tie-break counter
draw): those keys define the same-tick order the pinned fingerprints
record (see repro.sim.engine).

The slotted bus and ordered port get subclasses with ``__slots__ = ()`` so
instances can be re-classed in place (``obj.__class__ = Generated``).
"""

from __future__ import annotations

from .ir import MachineIR


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


def _grant_bus(ind: str, bus: str, arb: int) -> str:
    """Inlined Bus._grant for a known-nonempty queue: requires ``engine``.
    Caller must have set ``{bus}._busy = True`` (or know it already is).

    The completion event carries the module-level ``_bus_complete`` with the
    bus packed into the arg tuple — no bound-method allocation per grant.
    """
    return (
        f"{ind}duration, on_complete = {bus}._queue.popleft()\n"
        f"{ind}{bus}.busy.busy += duration\n"
        f"{ind}{bus}.transactions.value += 1\n"
        f"{ind}now_g = engine.now\n"
        + _push_event(
            ind,
            f"now_g + {arb} + duration",
            1,
            "_bus_complete",
            f"({bus}, now_g + {arb}, on_complete)",
        )
    )


def _fifo_pop(ind: str, fifo: str, out: str) -> str:
    """Inlined Fifo.pop at local ``now``; the entry's enqueue tick lands in
    ``enq``."""
    return (
        f"{ind}{out}, enq = {fifo}._items.popleft()\n"
        f"{ind}{fifo}.wait_total += now - enq\n"
    )


def _fifo_push(ind: str, fifo: str, item: str) -> str:
    """Inlined Fifo.push of an unbounded FIFO at local ``now``."""
    return (
        f"{ind}items = {fifo}._items\n"
        f"{ind}items.append(({item}, now))\n"
        f"{ind}{fifo}.pushes += 1\n"
        f"{ind}depth = len(items)\n"
        f"{ind}if depth > {fifo}.max_depth:\n"
        f"{ind}    {fifo}.max_depth = depth\n"
    )


# ======================================================================
# the generator
# ======================================================================
def generate_source(ir: MachineIR) -> str:
    arb = ir.consts["ARB"]
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
    w("Produced in memory by repro.elab.codegen from a MachineIR.")
    w('"""')
    w(f'PROTOCOL = "{proto.name}"')
    w("")
    w("from heapq import heappush as _heappush")
    w("")
    w(f"from {nc_base.__module__} import {nc_base.__name__} as _NCBase")
    w(f"from {mem_base.__module__} import {mem_base.__name__} as _MemBase")
    w("from repro.cpu.processor import Processor")
    w("from repro.core.states import CacheState")
    w("from repro.interconnect.packet import MsgType, Packet, next_pid")
    w("from repro.sim.engine import SimulationError")
    w("from repro.system.bus import Bus, OrderedPort")
    w("")
    for name, value in sorted(ir.consts.items()):
        w(f"{name} = {value}")
    w("")
    w("_WRITE_BACK = MsgType.WRITE_BACK")
    w("_READ = MsgType.READ")
    w("_READ_EX = MsgType.READ_EX")
    w("_UPGRADE = MsgType.UPGRADE")
    w("_SHARED = CacheState.SHARED")
    w("")
    w("def _nc_softop(self, pkt):")
    w("    # imported on first use, as NetworkCache._dispatch does: only")
    w("    # soft-control traffic reaches this slot")
    w("    from repro.softctl import ops")
    w("")
    w("    return ops.nc_dispatch(self, pkt)")
    w("")
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
    w("_NC_H = _mk_table(_nc_softop, (")
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
    w("# ``(cpu, addr, None)`` calls ``cpu.nack_from_module(addr)``.  Everything")
    w("# else (interp protocol handlers, SRI drain) still passes a real callable.")
    w("def _bus_complete(arg):")
    w("    bus, start, on_complete = arg")
    w("    if type(on_complete) is tuple:")
    w("        if len(on_complete) == 2:")
    w("            t, k = on_complete")
    w("            t.handle(k)")
    w("        else:")
    w("            on_complete[0].nack_from_module(on_complete[1])")
    w("    else:")
    w("        on_complete(start)")
    w("    if not bus._queue:")
    w("        bus._busy = False")
    w("        return")
    w("    engine = bus.engine")
    w(_grant_bus("    ", "bus", arb).rstrip())
    w("")
    w("")
    w("def _port_issue(arg):")
    w("    port, duration, cb = arg")
    w("    bus = port.bus")
    w("    bus._queue.append((duration, cb))")
    w("    if not bus._busy:")
    w("        bus._busy = True")
    w("        engine = port.engine")
    w(_grant_bus("        ", "bus", arb).rstrip())
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
    w(_grant_bus(i3, "self", arb).rstrip())
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
        w(_fifo_pop("    ", "f", "pkt").rstrip())
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
        w("        tr = self.tracer")
        w("        if tr is not None:")
        w(f'            tr.stamp_pkt(pkt, "{svc}.in", now)')
        w("        f = self.in_fifo")
        w(_fifo_push(i2, "f", "pkt").rstrip())
        w("        if self._busy:")
        w("            return")
        w("        self._busy = True")
        w("        # Fifo.pop inlined (handle just pushed, so nonempty)")
        w("        pkt2, enq = items.popleft()")
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
        w(_fifo_pop(i2, "f", "pkt").rstrip())
        w(_push_event(i2, f"now + {latency}", 1, "self._service", "pkt").rstrip())
        w("")
        w("    def _service(self, pkt):")
        w("        engine = self.engine")
        w("        tr = self.tracer")
        w("        if tr is not None:")
        w(f'            tr.stamp_pkt(pkt, "{svc}.svc", engine.now)')
        if svc == "nc":
            w("        monitor = self.monitor")
            w("        if monitor is not None:")
            w("            monitor.record_nc_txn(")
            w("                self.station_id, pkt, self.array.probe(pkt.addr)")
            w("            )")
            w("        mtype = pkt.mtype")
            w('        if pkt.meta.get("local"):')
            w("            if mtype is _WRITE_BACK:")
            w("                extra = self._on_local_writeback(pkt)")
            w("            else:")
            w("                extra = self._on_local_request(pkt)")
            w("        else:")
            w("            extra = _NC_H[mtype._value_](self, pkt)")
            w("        verifier = self.verifier")
            w("        if verifier is not None:")
            w("            verifier.nc_event(self, pkt)")
            w(_push_keyed(i2, "engine.now + (extra or 0)", 1,
                          "self._done_key", done_fn, "self").rstrip())
        else:
            w("        entry = self.directory.entry(pkt.addr & LINE_MASK)")
            w("        monitor = self.monitor")
            w("        if monitor is not None:")
            w("            monitor.record_memory_txn(self.station_id, pkt, entry)")
            w("        extra = _MEM_H[pkt.mtype._value_](")
            w('            self, pkt, entry, bool(pkt.meta.get("local"))')
            w("        )")
            w("        verifier = self.verifier")
            w("        if verifier is not None:")
            w("            verifier.mem_event(self, pkt)")
            w(_push_keyed(i2, "engine.now + (extra or 0)", 1,
                          "self._done_key", done_fn, "self").rstrip())
        w("")
        if svc == "nc" and proto.name == "numachine":
            # The local-request NACK storm is the hottest protocol path in
            # contended runs: a locked line bounces every local retry.  It
            # is transcribed here with the nack counter, the cpu lookup and
            # the ordered-port send inlined; the tag probe is the array's
            # bound ``probe`` (a dict ``get``, no Python frame).  Every
            # other local-request outcome falls back to the interpreted
            # method (the probe is pure, so re-running it there is
            # side-effect free).  Protocol-specific (it mirrors the
            # NUMAchine NC's locked-line branch), so other plug-ins inherit
            # their own _on_local_request unmodified.
            w("    def _on_local_request(self, pkt):")
            w("        if self.enabled:")
            w("            addr = pkt.addr")
            w("            line = self.array.probe(addr)")
            w("            if line is not None and line.locked:")
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
    # processor request path
    # ------------------------------------------------------------------
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
    w("    # the L2's bound lookup: a dict get, no Python frame")
    w("    line = self.l2.lookup(la)")
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
    w("    st = self.station")
    w("    home = la // SMB")
    w("    if home == st.station_id:")
    w("        target = st.memory")
    w("    elif home < NSTATIONS:")
    w("        target = st.nc")
    w("    else:")
    w('        raise ValueError(f"address {la:#x} beyond physical memory")')
    w("    tr = self.tracer")
    w("    if tr is not None:")
    w('        tr.stamp(self.cpu_id, "cpu.send", self.engine.now)')
    w("    bus = st.bus")
    w("    # delivery as a data tuple (see _bus_complete): no lambda per issue")
    w("    bus._queue.append((CMD, (target, pkt)))")
    w("    if not bus._busy:")
    w("        bus._busy = True")
    w("        engine = self.engine")
    w(_grant_bus(i2, "bus", arb).rstrip())
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
    w('        self.stats.counter("retries").incr()')
    w("        engine = self.engine")
    w("        tr = self.tracer")
    w("        if tr is not None:")
    w("            tr.retry(self.cpu_id, engine.now)")
    w(_push_event(i2, "engine.now + self._retry", 1,
                  "_cpu_send_request", "self").rstrip())
    w("")
    return "\n".join(L) + "\n"
