"""Hardware/software interaction (paper §3.2).

NUMAchine deliberately exposes low-level hardware control to system
software.  This module implements those operations on top of the ordinary
protocol machinery:

* **coherence bypass**: atomically lock a line at its home and read its
  directory state (``DIR_LOCK_READ`` / ``DIR_INFO``);
* **update of shared data** ("eureka" pattern): lock, modify, and multicast
  the new value to every caching station without first invalidating;
* **kill / invalidate / write-back / prefetch** of single lines and
  ``BLOCK_OP`` ranges, with a completion interrupt to the initiator;
* **coherent memory-to-memory block copy** (``BLOCK_COPY_REQ`` /
  ``BLOCK_DATA``);
* **in-cache zeroing and copying**: create dirty lines directly in the
  secondary cache without reading the memory they will overwrite;
* **multicast interrupts** via the interrupt registers.

Entry points: :func:`memory_dispatch` (messages the memory module does not
handle natively), :func:`nc_dispatch` (ditto for the network cache), and
:func:`cpu_softop` (``SoftOp`` items yielded by workload programs).
"""

from __future__ import annotations


from ..core.states import CacheState, LineState
from ..interconnect.packet import MsgType, Packet
from ..sim.engine import SimulationError


# ======================================================================
# memory-module side
# ======================================================================
def memory_dispatch(mem, pkt: Packet, entry, local: bool) -> int:
    mtype = pkt.mtype
    if mtype is MsgType.DIR_LOCK_READ:
        return _mem_dir_lock_read(mem, pkt, entry, local)
    if mtype is MsgType.MULTICAST_DATA:
        return _mem_multicast_data(mem, pkt, entry)
    if mtype is MsgType.KILL:
        return _mem_kill(mem, pkt, entry)
    if mtype is MsgType.BLOCK_OP:
        return _mem_block_op(mem, pkt, entry, local)
    if mtype is MsgType.BLOCK_COPY_REQ:
        return _mem_block_copy_source(mem, pkt)
    if mtype is MsgType.BLOCK_DATA:
        return _mem_block_data(mem, pkt)
    raise SimulationError(f"memory module cannot handle {pkt!r}")


def _mem_dir_lock_read(mem, pkt: Packet, entry, local: bool) -> int:
    """Atomic lock + directory read (per-line lock of the coherence
    protocol, granted to software; §3.2 footnote)."""
    if entry.locked:
        return mem._nack(pkt, local)
    from ..memory.memory_module import Pending

    mem._lock(entry, Pending(
        kind="soft_lock", req_type=pkt.mtype, requester=pkt.requester,
        req_station=pkt.src_station, is_local=local, grant="ack",
    ))
    info = {
        "state": entry.state.value,
        "routing_mask": mem.directory.sharer_mask(entry),
        "proc_mask": entry.proc_mask,
    }
    resp = Packet(
        mtype=MsgType.DIR_INFO, addr=pkt.addr,
        src_station=mem.station_id,
        dest_mask=mem.codec.station_mask(pkt.src_station),
        requester=pkt.requester, meta={"info": info},
    )
    if local:
        cpu = mem.station.cpu_by_global(pkt.requester)
        mem.station.bus.request(
            mem.config.cmd_bus_ticks,
            lambda c=cpu, i=info: c.resume(i),
        )
    else:
        mem._send_packet(resp, has_data=False)
    mem.stats.count("soft_dir_locks")
    return 0


def _mem_multicast_data(mem, pkt: Packet, entry) -> int:
    """A software multicast update arriving at the home: write the DRAM and
    release the software lock."""
    mem.write_line(pkt.addr, pkt.data)
    if entry.locked and entry.pending is not None and entry.pending.kind == "soft_lock":
        mem._unlock(entry)
    # the writer's station now shares the line
    writer = pkt.meta.get("writer_station")
    entry.state = LineState.GV
    if writer is not None:
        mem.directory.add_station(entry, writer)
    mem.directory.add_station(entry, mem.station_id)
    # local secondary caches hold the pre-update value: invalidate them
    # (sparing the updating processor itself, whose copy is the new data)
    keep = pkt.requester if writer == mem.station_id else None
    mem._invalidate_local(pkt.addr, entry, keep=keep)
    if keep is not None:
        entry.proc_mask |= 1 << mem._local_index(keep)
    mem.stats.count("soft_updates")
    return mem._dram_write


def _mem_kill(mem, pkt: Packet, entry) -> int:
    """Kill: obtain a clean-exclusive copy at memory, dropping every cached
    copy (dirty ones included)."""
    if entry.locked:
        mem._unlock(entry)
    mem._invalidate_local(pkt.addr, entry, keep=None)
    remote = mem._remote_sharers(entry)
    if remote:
        kill = Packet(
            mtype=MsgType.KILL, addr=pkt.addr,
            src_station=mem.station_id, dest_mask=remote,
            requester=pkt.requester,
        )
        mem._send_packet(kill, has_data=False)
    entry.state = LineState.LV
    entry.proc_mask = 0
    mem.directory.set_station(entry, mem.station_id)
    mem.stats.count("kills")
    return 0


def _mem_block_op(mem, pkt: Packet, entry, local: bool) -> int:
    """A block operation over ``nlines`` lines starting at ``addr``: kill or
    invalidate each, then interrupt the initiator (§3.2)."""
    op = pkt.meta["op"]
    nlines = pkt.meta["nlines"]
    cfg = mem.config
    busy = 0
    for i in range(nlines):
        la = pkt.addr + i * cfg.line_bytes
        if cfg.home_station(la) != mem.station_id:
            continue  # block ops are per-home-module; caller splits ranges
        e = mem.directory.entry(la)
        if op == "kill":
            fake = Packet(
                mtype=MsgType.KILL, addr=la, src_station=pkt.src_station,
                dest_mask=0, requester=pkt.requester,
            )
            busy += _mem_kill(mem, fake, e)
        elif op == "own":
            # in-cache zero/copy step 1: kill + hand dirty ownership to the
            # initiating processor without transferring data
            fake = Packet(
                mtype=MsgType.KILL, addr=la, src_station=pkt.src_station,
                dest_mask=0, requester=pkt.requester,
            )
            busy += _mem_kill(mem, fake, e)
            e.state = LineState.GI if not local else LineState.LI
            if local:
                e.proc_mask = 1 << mem._local_index(pkt.requester)
                mem.directory.set_station(e, mem.station_id)
            else:
                mem.directory.set_station(e, pkt.src_station)
        else:
            raise SimulationError(f"unknown block op {op!r}")
    _interrupt_initiator(mem, pkt)
    mem.stats.count("block_ops")
    return busy


def _mem_block_copy_source(mem, pkt: Packet) -> int:
    """Source side of a block copy: collect dirty local copies, then stream
    the lines to the target memory module in one large transfer."""
    cfg = mem.config
    nlines = pkt.meta["nlines"]
    # collect outstanding dirty copies from local secondary caches
    for i in range(nlines):
        la = pkt.addr + i * cfg.line_bytes
        if cfg.home_station(la) != mem.station_id:
            continue
        e = mem.directory.entry(la)
        if e.state is LineState.LI and e.proc_mask:
            owner_idx = e.proc_mask.bit_length() - 1
            cpu = mem.station.cpus[owner_idx]
            line = cpu.l2.lookup(la)
            if line is not None and line.state is CacheState.DIRTY:
                mem.write_line(la, line.data)
                cpu.l2.downgrade(la)
                e.state = LineState.LV
    payload = [
        mem.read_line(pkt.addr + i * cfg.line_bytes) for i in range(nlines)
    ]
    data_pkt = Packet(
        mtype=MsgType.BLOCK_DATA, addr=pkt.meta["target_addr"],
        src_station=mem.station_id,
        dest_mask=mem.codec.station_mask(pkt.src_station),
        requester=pkt.requester,
        data=payload,
        flits=1 + nlines * (cfg.line_flits - 1),
        meta={"nlines": nlines, "initiator": pkt.meta.get("initiator")},
    )
    mem._send_packet(data_pkt, has_data=True)
    mem.stats.count("block_copy_served")
    return mem._dram_read * max(1, nlines // 4)


def _mem_block_data(mem, pkt: Packet) -> int:
    """Target side of a block copy: write the arriving lines and interrupt
    the initiating processor."""
    cfg = mem.config
    for i, line_data in enumerate(pkt.data):
        la = pkt.addr + i * cfg.line_bytes
        if cfg.home_station(la) != mem.station_id:
            continue
        mem.write_line(la, line_data)
        e = mem.directory.entry(la)
        e.state = LineState.LV
        e.proc_mask = 0
        mem.directory.set_station(e, mem.station_id)
    _interrupt_initiator(mem, pkt)
    mem.stats.count("block_copy_completed")
    return mem._dram_write * max(1, len(pkt.data) // 4)


def _interrupt_initiator(mem, pkt: Packet) -> None:
    initiator = pkt.meta.get("initiator", pkt.requester)
    if initiator is None:
        return
    cfg = mem.config
    st = initiator // cfg.cpus_per_station
    intr = Packet(
        mtype=MsgType.INTERRUPT, addr=0,
        src_station=mem.station_id,
        dest_mask=mem.codec.station_mask(st),
        requester=initiator,
        meta={
            "proc_mask": 1 << (initiator % cfg.cpus_per_station),
            "bits": pkt.meta.get("intr_bits", 1),
        },
    )
    mem._send_packet(intr, has_data=False)


# ======================================================================
# network-cache side
# ======================================================================
def nc_dispatch(nc, pkt: Packet) -> int:
    mtype = pkt.mtype
    if mtype is MsgType.DIR_INFO:
        cpu = nc.station.cpu_by_global(pkt.requester)
        nc.station.bus.request(
            nc.config.cmd_bus_ticks,
            lambda c=cpu, i=pkt.meta["info"]: c.resume(i),
        )
        return 0
    if mtype is MsgType.INTERRUPT:  # pragma: no cover - routed at station
        return 0
    raise SimulationError(f"network cache cannot handle {pkt!r}")


# ======================================================================
# processor side: SoftOp execution
# ======================================================================
def cpu_softop(cpu, op) -> None:
    handler = _SOFTOPS.get(op.kind)
    if handler is None:
        raise SimulationError(f"unknown SoftOp kind {op.kind!r}")
    handler(cpu, op.args)


def _send_toward_home(cpu, pkt: Packet, local: bool) -> None:
    """Put a command on the station bus: to the station's memory module
    when ``pkt``'s home is this station, else to the ring interface."""
    st = cpu.station
    target = st.memory.handle if local else st.ring_interface.send
    st.bus.request(cpu.config.cmd_bus_ticks, lambda: target(pkt))


def _soft_prefetch(cpu, args) -> None:
    """Asynchronous prefetch into the network cache ('a write request to a
    special memory address'); the CPU does not wait."""
    addr = cpu.config.line_addr(args["addr"])
    if cpu.config.home_station(addr) == cpu.station.station_id:
        cpu.resume()  # local lines need no NC prefetch
        return
    pkt = Packet(
        mtype=MsgType.READ, addr=addr,
        src_station=cpu.station.station_id, dest_mask=0,
        requester=cpu.cpu_id, meta={"local": True, "prefetch": True},
    )
    cpu.station.bus.request(
        cpu.config.cmd_bus_ticks,
        lambda p=pkt: cpu.station.nc.handle(p),
    )
    cpu.resume(delay=cpu.config.cpu_cycle_ticks)


def _soft_writeback(cpu, args) -> None:
    """Write a dirty line back under software control (keeps a shared copy)."""
    addr = cpu.config.line_addr(args["addr"])
    line = cpu.l2.lookup(addr)
    if line is None or line.state is not CacheState.DIRTY:
        cpu.resume()
        return
    data = list(line.data)
    cpu.l2.downgrade(addr)
    l1 = cpu.l1.lookup(addr)
    if l1 is not None:
        l1.state = CacheState.SHARED
    target = cpu.station.module_for(addr)
    wb = Packet(
        mtype=MsgType.WRITE_BACK, addr=addr,
        src_station=cpu.station.station_id, dest_mask=0,
        requester=cpu.cpu_id, data=data, meta={"local": True},
    )
    cpu.station.bus.request(
        cpu.config.cmd_bus_ticks + cpu.config.line_bus_ticks,
        lambda t=target, p=wb: t.handle(p),
    )
    cpu.resume(delay=cpu.config.cpu_cycle_ticks)


def _soft_multicast_writeback(cpu, args) -> None:
    """§3.2: software supplies a routing mask for a write-back so the data
    is multicast directly into a set of network caches (and to memory)."""
    addr = cpu.config.line_addr(args["addr"])
    stations = args["stations"]
    line = cpu.l2.lookup(addr)
    if line is None or not line.state.readable:
        cpu.resume()
        return
    data = list(line.data)
    if line.state is CacheState.DIRTY:
        cpu.l2.downgrade(addr)
    codec = cpu.station.codec
    home = cpu.config.home_station(addr)
    mask = codec.combine(list(stations) + [home])
    mc = Packet(
        mtype=MsgType.MULTICAST_DATA, addr=addr,
        src_station=cpu.station.station_id,
        dest_mask=mask, requester=cpu.cpu_id, data=data,
        flits=cpu.config.line_flits,
        meta={"writer_station": cpu.station.station_id},
    )
    cpu.station.bus.request(
        cpu.config.cmd_bus_ticks + cpu.config.line_bus_ticks,
        lambda p=mc: cpu.station.ring_interface.send(p),
    )
    cpu.resume(delay=cpu.config.cpu_cycle_ticks)


def _soft_invalidate_self(cpu, args) -> None:
    addr = cpu.config.line_addr(args["addr"])
    cpu.invalidate_line(addr)
    cpu.resume(delay=cpu.config.cpu_cycle_ticks)


def _soft_kill(cpu, args) -> None:
    """Ask the home memory to kill every cached copy of one line."""
    addr = cpu.config.line_addr(args["addr"])
    home = cpu.config.home_station(addr)
    local = home == cpu.station.station_id
    pkt = Packet(
        mtype=MsgType.KILL, addr=addr,
        src_station=cpu.station.station_id,
        dest_mask=cpu.station.codec.station_mask(home),
        requester=cpu.cpu_id, meta={"local": local},
    )
    _send_toward_home(cpu, pkt, local)
    cpu.resume(delay=cpu.config.cpu_cycle_ticks)


def _soft_block_op(cpu, args) -> None:
    """Block kill/own over a physical range; completion arrives as an
    interrupt, on which the program resumes."""
    base = cpu.config.line_addr(args["base"])
    nlines = args["nlines"]
    opname = args.get("op", "kill")
    cfg = cpu.config
    homes = sorted(
        {cfg.home_station(base + i * cfg.line_bytes) for i in range(nlines)}
    )
    expected = len(homes)
    seen = {"n": 0}

    def on_intr(bits: int) -> None:
        seen["n"] += 1
        if seen["n"] >= expected:
            cpu.on_interrupt = None
            cpu.read_interrupt_reg()
            cpu.resume()

    cpu.on_interrupt = on_intr
    for home in homes:
        local = home == cpu.station.station_id
        pkt = Packet(
            mtype=MsgType.BLOCK_OP, addr=base,
            src_station=cpu.station.station_id,
            dest_mask=cpu.station.codec.station_mask(home),
            requester=cpu.cpu_id,
            meta={"op": opname, "nlines": nlines, "local": local,
                  "initiator": cpu.cpu_id},
        )
        _send_toward_home(cpu, pkt, local)


def _soft_block_copy(cpu, args) -> None:
    """Coherent memory-to-memory block copy (§3.2): the request goes to the
    *target* module, which kills its cached lines and pulls the data from
    the source module; the initiator is interrupted on completion."""
    src = cpu.config.line_addr(args["src"])
    dst = cpu.config.line_addr(args["dst"])
    nlines = args["nlines"]
    cfg = cpu.config
    src_home = cfg.home_station(src)
    dst_home = cfg.home_station(dst)

    def on_intr(bits: int) -> None:
        cpu.on_interrupt = None
        cpu.read_interrupt_reg()
        cpu.resume()

    cpu.on_interrupt = on_intr
    # step 1: target kills its cached copies (block op without interrupt),
    # folded into the copy request; step 2: ask the source for the lines.
    req = Packet(
        mtype=MsgType.BLOCK_COPY_REQ, addr=src,
        src_station=dst_home,
        dest_mask=cpu.station.codec.station_mask(src_home),
        requester=cpu.cpu_id,
        meta={"nlines": nlines, "target_addr": dst, "initiator": cpu.cpu_id},
    )
    _send_toward_home(cpu, req, src_home == cpu.station.station_id)


def _soft_update_shared(cpu, args) -> None:
    """The §3.2 'update of shared data' (eureka) sequence: (1) lock the line
    at home and obtain the routing mask of caching stations, (2) modify the
    data, (3) multicast the new line to those network caches; the update's
    arrival at home releases the lock."""
    addr = args["addr"]
    value = args["value"]
    cfg = cpu.config
    la = cfg.line_addr(addr)
    home = cfg.home_station(la)
    local = home == cpu.station.station_id

    line = cpu.l2.lookup(la)
    if line is None or not line.state.readable:
        # the updater must hold a copy; fall back to an ordinary write
        cpu.resume(_UPDATE_FALLBACK)
        return

    def after_lock(info) -> None:
        # step 2-4: modify our copy (kept SHARED: the multicast makes every
        # copy identical, so no station legitimately holds it dirty)
        idx = (addr % cfg.line_bytes) // cfg.word_bytes
        line.data[idx] = value
        codec = cpu.station.codec
        mask = info["routing_mask"] | codec.station_mask(home)
        mc = Packet(
            mtype=MsgType.MULTICAST_DATA, addr=la,
            src_station=cpu.station.station_id,
            dest_mask=mask, requester=cpu.cpu_id,
            data=list(line.data), flits=cfg.line_flits,
            meta={"writer_station": cpu.station.station_id},
        )
        cpu.station.bus.request(
            cfg.cmd_bus_ticks + cfg.line_bus_ticks,
            lambda p=mc: cpu.station.ring_interface.send(p),
        )
        cpu.resume(_UPDATE_OK, delay=cfg.cpu_cycle_ticks)

    _soft_dir_lock(cpu, la, home, local, after_lock)


#: values sent back into the program by update_shared
_UPDATE_OK = "updated"
_UPDATE_FALLBACK = "fallback"


def _soft_dir_lock(cpu, la: int, home: int, local: bool, cont) -> None:
    pkt = Packet(
        mtype=MsgType.DIR_LOCK_READ, addr=la,
        src_station=cpu.station.station_id,
        dest_mask=cpu.station.codec.station_mask(home),
        requester=cpu.cpu_id, meta={"local": local},
    )
    # hijack the resume path: the DIR_INFO response calls cpu.resume(info)
    orig_resume = cpu.resume

    def resume_hook(value=None, delay: int = 0):
        cpu.resume = orig_resume
        cont(value)

    cpu.resume = resume_hook
    _send_toward_home(cpu, pkt, local)


def _soft_zero_page(cpu, args) -> None:
    """In-cache zeroing (§3.2): take dirty ownership of every line of the
    page at the memory module, then create zero-filled dirty lines directly
    in the secondary cache — without reading memory."""
    base = cpu.config.line_addr(args["base"])
    nlines = args.get("nlines", cpu.config.page_bytes // cpu.config.line_bytes)
    cfg = cpu.config

    def on_intr(bits: int) -> None:
        cpu.on_interrupt = None
        cpu.read_interrupt_reg()
        zeros = [0] * cfg.line_words
        for i in range(nlines):
            la = base + i * cfg.line_bytes
            victim = cpu.l2.install(la, CacheState.DIRTY, list(zeros))
            cpu.l1.invalidate(la)
            if victim is not None:
                cpu.l1.invalidate(victim.addr)
                if victim.state is CacheState.DIRTY:
                    cpu._write_back(victim)
        cpu.resume(delay=nlines * cfg.cpu_cycle_ticks)

    cpu.on_interrupt = on_intr
    _send_own_block(cpu, base, nlines)


def _soft_copy_page_incache(cpu, args) -> None:
    """In-cache copying: as zeroing, but the program then reads the source
    page normally and writes the created lines (steps are the caller's)."""
    _soft_zero_page(cpu, args)


def _send_own_block(cpu, base: int, nlines: int) -> None:
    cfg = cpu.config
    homes = sorted(
        {cfg.home_station(base + i * cfg.line_bytes) for i in range(nlines)}
    )
    remaining = {"n": len(homes)}
    outer = cpu.on_interrupt

    def on_intr(bits: int) -> None:
        remaining["n"] -= 1
        if remaining["n"] <= 0:
            cpu.on_interrupt = None
            if outer is not None:
                outer(bits)

    cpu.on_interrupt = on_intr
    for home in homes:
        local = home == cpu.station.station_id
        pkt = Packet(
            mtype=MsgType.BLOCK_OP, addr=base,
            src_station=cpu.station.station_id,
            dest_mask=cpu.station.codec.station_mask(home),
            requester=cpu.cpu_id,
            meta={"op": "own", "nlines": nlines, "local": local,
                  "initiator": cpu.cpu_id},
        )
        _send_toward_home(cpu, pkt, local)


def _soft_io(cpu, args) -> None:
    """Submit a DMA request to a station's I/O module (§3.2): software names
    the processor to interrupt and the bit pattern; the program continues
    immediately (use wait_interrupt to block for completion)."""
    from ..system.io import IORequest

    station = cpu.station.peer(args.get("station", cpu.station.station_id))
    station.io.submit(IORequest(
        kind=args["kind"],
        addr=cpu.config.line_addr(args["addr"]),
        nlines=args["nlines"],
        notify_cpu=args.get("notify_cpu", cpu.cpu_id),
        intr_bits=args.get("intr_bits", 1),
        payload=args.get("payload"),
    ))
    cpu.resume(delay=cpu.config.cpu_cycle_ticks)


def _soft_multicast_interrupt(cpu, args) -> None:
    """Cross-processor multicast interrupt (§3.2): one packet, many targets
    selected by a routing mask + per-station processor mask."""
    targets = args["cpus"]
    bits = args.get("bits", 1)
    cfg = cpu.config
    stations = sorted({c // cfg.cpus_per_station for c in targets})
    proc_masks = {}
    for c in targets:
        st = c // cfg.cpus_per_station
        proc_masks[st] = proc_masks.get(st, 0) | (1 << (c % cfg.cpus_per_station))
    # the hardware sends one multicast; per-station processor masks are the
    # same field, so the union is used (over-delivery is filtered by bits)
    union_mask = 0
    for m in proc_masks.values():
        union_mask |= m
    pkt = Packet(
        mtype=MsgType.INTERRUPT, addr=0,
        src_station=cpu.station.station_id,
        dest_mask=cpu.station.codec.combine(stations),
        requester=cpu.cpu_id,
        meta={"proc_mask": union_mask, "bits": bits},
    )
    cpu.station.bus.request(
        cfg.cmd_bus_ticks,
        lambda p=pkt: cpu.station.ring_interface.send(p),
    )
    cpu.resume(delay=cfg.cpu_cycle_ticks)


def _soft_wait_interrupt(cpu, args) -> None:
    """Block the program until any interrupt bit is raised."""
    if cpu.interrupt_reg:
        bits = cpu.read_interrupt_reg()
        cpu.resume(bits)
        return

    def on_intr(bits: int) -> None:
        cpu.on_interrupt = None
        got = cpu.read_interrupt_reg()
        cpu.resume(got)

    cpu.on_interrupt = on_intr


#: SoftOp kind -> handler(cpu, args)
_SOFTOPS = {
    "prefetch_nc": _soft_prefetch,
    "writeback": _soft_writeback,
    "invalidate_self": _soft_invalidate_self,
    "kill": _soft_kill,
    "block_op": _soft_block_op,
    "block_copy": _soft_block_copy,
    "update_shared": _soft_update_shared,
    "zero_page": _soft_zero_page,
    "copy_page_incache": _soft_copy_page_incache,
    "multicast_interrupt": _soft_multicast_interrupt,
    "wait_interrupt": _soft_wait_interrupt,
    "multicast_writeback": _soft_multicast_writeback,
    "io_read": lambda cpu, a: _soft_io(cpu, dict(a, kind="read")),
    "io_write": lambda cpu, a: _soft_io(cpu, dict(a, kind="write")),
}
