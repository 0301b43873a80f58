"""The station memory module (paper §3.1.2) and its coherence engine.

Each station owns a contiguous physical address range.  The module couples:

* DRAM for line data (two interleaved banks in hardware; modelled as the
  line-read/line-write latencies of the master controller's pipeline),
* SRAM holding the network-level directory: per line a routing mask of
  stations that may hold copies, a processor mask of local sharers, the
  LV/LI/GV/GI state and a lock bit,
* the *hardware cache coherence* block implementing the memory side of the
  two-level protocol (Fig. 5), and
* special functions (block operations, coherence bypass, interrupts) used
  by system software (§3.2) — dispatched to :mod:`repro.softctl`.

Requests arrive from the station bus (local processors) and from the ring
interface (remote stations); the master controller services them serially.
Lines undergoing a transition are *locked*; requests that hit a locked line
are negatively acknowledged and retried by the requester, never queued —
that is what keeps the module's service path simple and fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.directory import DirEntry, Directory
from ..core.states import LineState
from ..interconnect.packet import MsgType, Packet, dispatch_table
from ..sim.engine import Engine, SimulationError, ns_to_ticks
from ..sim.fifo import Fifo
from ..sim.stats import StatGroup


@dataclass(slots=True)
class Pending:
    """The in-flight transaction record stored while a line is locked."""

    kind: str                      # 'inv' | 'fetch' | 'awaiting_wb'
    req_type: MsgType
    requester: Optional[int]       # global cpu id
    req_station: int
    is_local: bool                 # requester is on the home station
    grant: str = "data"            # 'data' | 'ack' (what to deliver on unlock)
    extra: Dict[str, Any] = field(default_factory=dict)


class MemoryModule:
    """Home memory + directory + serialization plumbing for one station.

    The coherence state machine itself lives in a protocol plug-in
    (:mod:`repro.protocol`): a subclass supplies the transition handlers
    and declares them in ``DISPATCH``.  Stations instantiate
    ``machine.protocol.memory_class``; this base holds everything
    protocol-independent — FIFOs, the master-controller service loop,
    uncached accesses, softctl dispatch, NACK/lock bookkeeping and the
    outbound bus/ring send helpers.
    """

    #: (MsgType name, handler method name) pairs — the protocol subclass's
    #: transition table
    DISPATCH: tuple = ()
    #: ``DISPATCH`` as handler functions indexed by ``MsgType._value_``,
    #: built once per protocol subclass; unlisted types go to ``_on_other``
    HANDLERS: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.HANDLERS = dispatch_table(cls, "_on_other")

    def __init__(self, engine: Engine, config, station) -> None:
        self.engine = engine
        self.config = config
        self.station = station
        self.station_id = station.station_id
        self.codec = station.codec
        self.directory = Directory(
            self.codec,
            self.station_id,
            default_state=LineState.LV,
            exact_sharers=config.exact_sharers,
        )
        self.data: Dict[int, List] = {}
        from ..system.bus import OrderedPort

        self.out_port = OrderedPort(engine, station.bus)
        self.in_fifo = Fifo(f"S{self.station_id}.mem.in", capacity=None)
        self._busy = False
        self.stats = StatGroup(f"S{self.station_id}.mem")
        #: optional monitor (histogram tables etc.); see repro.monitor
        self.monitor = None
        #: transaction tracer (repro.obs), or None when tracing is off
        self.tracer = None
        #: invariant checker (repro.verify), or None when checking is off
        self.verifier = None
        self._lookup_ticks = ns_to_ticks(config.dir_sram_ns)
        self._line_mask = ~(config.line_bytes - 1)
        # hot-path tick values cached once (config properties recompute
        # ns_to_ticks on every access, which profiles as real run time)
        self._cmd_ticks = config.cmd_bus_ticks
        self._line_ticks = config.line_bus_ticks
        # likewise the property every per-packet cpu index divides by
        self._cpus_per_station = config.cpus_per_station
        self._line_flits = config.line_flits
        self._line_words = config.line_words
        self._dram_read = ns_to_ticks(config.dram_read_ns)
        self._dram_write = ns_to_ticks(config.dram_write_ns)
        #: transaction ids stamp each lock instance so stale intervention
        #: answers from an earlier, already-resolved round are ignored
        self._txn = 0
        #: content key of the service-done event (see repro.sim.engine)
        self._done_key = ~engine.alloc_uid()

    # ==================================================================
    # data storage
    # ==================================================================
    def read_line(self, line_addr: int) -> List:
        line = self.data.get(line_addr)
        if line is None:
            return [0] * self._line_words
        return list(line)

    def write_line(self, line_addr: int, data: List) -> None:
        self.data[line_addr] = list(data)

    # ==================================================================
    # request entry points
    # ==================================================================
    def handle(self, pkt: Packet) -> None:
        """Entry for both bus-side and ring-side traffic.

        The master controller serves one packet at a time; an idle module
        has an empty input FIFO, so a packet passes straight through it
        (its push is counted, and it waits no ticks)."""
        engine = self.engine
        now = engine.now
        tr = self.tracer
        if tr is not None:
            tr.stamp_pkt(pkt, "mem.in", now)
        f = self.in_fifo
        f.pushes += 1
        if self._busy:
            # Fifo.push inlined (the input FIFO is unbounded)
            items = f._items
            items.append((pkt, now))
            if len(items) > f.max_depth:
                f.max_depth = len(items)
            return
        if not f.max_depth:
            f.max_depth = 1
        self._busy = True
        # Engine.schedule inlined (_lookup_ticks is a non-negative constant)
        seq = engine._seq + 1
        engine._seq = seq
        engine._push((now + self._lookup_ticks, 1, seq, self._service, pkt))

    def _service(self, pkt: Packet) -> None:
        engine = self.engine
        tr = self.tracer
        if tr is not None:
            tr.stamp_pkt(pkt, "mem.svc", engine.now)
        entry = self.directory.entry(pkt.addr & self._line_mask)
        monitor = self.monitor
        if monitor is not None:
            monitor.record_txn("mem", self.station_id, pkt, entry)
        extra = self.HANDLERS[pkt.mtype._value_](
            self, pkt, entry, bool(pkt.meta.get("local"))
        )
        v = self.verifier
        if v is not None:
            v.observe(self, pkt.addr, pkt)
        # the done event carries this module's content key (see
        # NetworkCache._service)
        engine._push(
            (engine.now + (extra or 0), 1, self._done_key, _mem_service_done, self)
        )

    def _txn_matches(self, pkt: Packet, entry: DirEntry) -> bool:
        """Does this intervention answer belong to the current lock round?"""
        if not (entry.locked and entry.pending is not None):
            return False
        expect = entry.pending.extra.get("txn")
        got = pkt.meta.get("txn")
        return got is None or expect is None or got == expect

    # ------------------------------------------------------------------
    # uncached word accesses (cacheable=False pages, §3.2)
    # ------------------------------------------------------------------
    def _word_index(self, addr: int) -> int:
        return (addr % self.config.line_bytes) // self.config.word_bytes

    def _on_read_uncached(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        la = self.config.line_addr(pkt.addr)
        value = self.read_line(la)[self._word_index(pkt.addr)]
        self.stats.count("uncached_reads")
        if local:
            cpu = self.station.cpu_by_global(pkt.requester)
            self.out_port.send(
                self._dram_read, self._cmd_ticks,
                lambda c=cpu, a=pkt.addr, v=value: c.complete_uncached(a, v),
            )
        else:
            resp = Packet(
                mtype=MsgType.UNCACHED_RESP, addr=pkt.addr,
                src_station=self.station_id,
                dest_mask=self.codec.station_mask(pkt.src_station),
                requester=pkt.requester, data=value,
            )
            self._send_packet(resp, has_data=False, delay=self._dram_read)
        return self._dram_read

    def _on_write_uncached(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        la = self.config.line_addr(pkt.addr)
        line = self.read_line(la)
        line[self._word_index(pkt.addr)] = pkt.data
        self.write_line(la, line)
        self.stats.count("uncached_writes")
        return self._dram_write

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _on_other(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        from ..softctl import ops as softops

        return softops.memory_dispatch(self, pkt, entry, local)

    def _nack(self, pkt: Packet, local: bool) -> int:
        c = self.stats.counters
        c["nacks"] = c.get("nacks", 0) + 1
        if local:
            # delivered as a data tuple (see repro.system.bus._bus_complete)
            cpu = self.station.cpu_by_global(pkt.requester)
            self.out_port.send(0, self._cmd_ticks, (cpu, pkt.addr, None))
        else:
            nack = Packet(
                mtype=MsgType.NACK, addr=pkt.addr,
                src_station=self.station_id,
                dest_mask=self.codec.station_mask(pkt.src_station),
                requester=pkt.requester,
            )
            self._send_packet(nack, has_data=False)
        return 0

    def _lock(self, entry: DirEntry, pending: Pending) -> None:
        if entry.locked:
            raise SimulationError("double lock on memory line")
        self._txn += 1
        pending.extra["txn"] = self._txn
        entry.locked = True
        entry.pending = pending

    def _unlock(self, entry: DirEntry) -> None:
        entry.locked = False
        entry.pending = None

    def _local_index(self, global_cpu: int) -> int:
        return global_cpu % self._cpus_per_station

    def _cpu_has_copy(self, global_cpu: int, line_addr: int) -> bool:
        cpu = self.station.cpu_by_global(global_cpu)
        line = cpu.l2.lookup(line_addr)
        return line is not None and line.state.readable

    def _owner_station(self, entry: DirEntry) -> int:
        """GI state: the routing mask names the owning station exactly
        (exclusive grants always use set_station)."""
        mask = self.directory.sharer_mask(entry)
        try:
            return self.codec.single_station(mask)
        except ValueError:
            # Defensive: pick the first selected station.
            stations = self.codec.stations(mask)
            if not stations:
                raise SimulationError(
                    f"GI line {entry!r} with empty owner mask"
                )
            return stations[0]

    def _remote_sharers(self, entry: DirEntry) -> int:
        """Sharer mask excluding this (home) station's own bit-combination.

        With inexact masks the home station's bits may overspecify; we keep
        the full mask (minus nothing) and simply include home in multicasts,
        so this returns the mask of all possibly-sharing stations, or 0 when
        it selects nobody but home."""
        mask = self.directory.sharer_mask(entry)
        if mask == 0:
            return 0
        stations = self.codec.stations(mask)
        if not stations or stations == [self.station_id]:
            return 0
        return mask

    # ---- outbound actions ------------------------------------------------
    def _respond_local(
        self, pkt: Packet, data: Optional[List], exclusive: bool, delay: int = 0
    ) -> None:
        cpu = self.station.cpu_by_global(pkt.requester)
        ticks = self._cmd_ticks + (
            self._line_ticks if data is not None else 0
        )
        prefetch = bool(pkt.meta.get("prefetch"))

        self.out_port.send(
            delay, ticks,
            lambda c=cpu, a=pkt.addr, d=data, e=exclusive: c.complete_fill(
                a, d, exclusive=e
            ) if not prefetch else None,
        )

    def _respond_local_pending(
        self, addr: int, pending: Pending, data: Optional[List], exclusive: bool,
        delay: int = 0,
    ) -> None:
        cpu = self.station.cpu_by_global(pending.requester)
        ticks = self._cmd_ticks + (
            self._line_ticks if data is not None else 0
        )

        self.out_port.send(
            delay, ticks,
            lambda c=cpu, a=addr, d=data, e=exclusive: c.complete_fill(
                a, d, exclusive=e
            ),
        )

    def _send_data(
        self, pkt: Packet, data: List, exclusive: bool, inv_follows: bool = False,
        delay: int = 0,
    ) -> None:
        resp = Packet(
            mtype=MsgType.DATA_RESP_EX if exclusive else MsgType.DATA_RESP,
            addr=pkt.addr,
            src_station=self.station_id,
            dest_mask=self.codec.station_mask(pkt.src_station),
            requester=pkt.requester,
            data=data,
            flits=self._line_flits,
            meta={"inv_follows": inv_follows, "prefetch": pkt.meta.get("prefetch", False)},
        )
        self._send_packet(resp, has_data=True, delay=delay)

    def _send_intervention(
        self, pkt: Packet, owner: int, exclusive: bool, false_remote: bool = False
    ) -> None:
        entry = self.directory.entry(pkt.addr)
        txn = entry.pending.extra.get("txn") if entry.pending is not None else None
        iv = Packet(
            mtype=MsgType.INTERVENTION_EX if exclusive else MsgType.INTERVENTION,
            addr=pkt.addr,
            src_station=self.station_id,
            dest_mask=self.codec.station_mask(owner),
            requester=pkt.requester,
            meta={
                "home": self.station_id,
                "req_station": pkt.src_station,
                "req_local_to_home": bool(pkt.meta.get("local")),
                "false_remote": false_remote,
                "prefetch": pkt.meta.get("prefetch", False),
                "txn": txn,
            },
        )
        self._send_packet(iv, has_data=False)

    def _send_invalidate(
        self, pkt: Packet, entry: DirEntry, remote_mask: int, include_home: bool = True
    ) -> None:
        """Ordered multicast invalidation to every station that may share,
        plus the requester's station and home (the return unlocks us)."""
        req_station = self.station_id if pkt.meta.get("local") else pkt.src_station
        mask = remote_mask | self.codec.station_mask(req_station)
        if include_home:
            mask |= self.codec.station_mask(self.station_id)
        inv = Packet(
            mtype=MsgType.INVALIDATE,
            addr=pkt.addr,
            src_station=self.station_id,
            dest_mask=mask,
            requester=pkt.requester,
            ordered=True,
            meta={"home": self.station_id, "writer_station": req_station},
        )
        self.stats.count("invalidates_sent")
        v = self.verifier
        if v is not None:
            v.note_invalidate_sent(self, inv)
        self._send_packet(inv, has_data=False)

    def _send_packet(self, pkt: Packet, has_data: bool, delay: int = 0) -> None:
        ticks = self._cmd_ticks + (
            self._line_ticks if has_data else 0
        )
        self.out_port.send(
            delay, ticks, lambda p=pkt: self.station.ring_interface.send(p)
        )

    def _local_intervention(self, addr: int, entry: DirEntry, exclusive: bool) -> None:
        owner_idx = entry.proc_mask.bit_length() - 1
        if entry.proc_mask == 0:
            raise SimulationError(f"LI line {addr:#x} with empty processor mask")
        cpu = self.station.cpus[owner_idx]
        self.out_port.send(
            0, self._cmd_ticks,
            lambda c=cpu, a=addr, e=exclusive: c.handle_intervention(
                a, e, lambda data, a2=a, e2=e: self._local_intervention_done(a2, e2, data)
            ),
        )

    def _local_intervention_done(self, addr: int, exclusive: bool, data) -> None:
        entry = self.directory.entry(addr)
        pending = entry.pending
        if pending is None:
            return
        if data is None:
            # crossed with the owner's write-back; it is already in our FIFO
            pending.kind = "awaiting_wb"
            return
        self.write_line(addr, data)
        self._unlock(entry)
        if exclusive:
            if pending.is_local:
                idx = self._local_index(pending.requester)
                entry.state = LineState.LI
                entry.proc_mask = 1 << idx
                self.directory.set_station(entry, self.station_id)
                self._respond_local_pending(addr, pending, list(data), exclusive=True)
            else:
                entry.state = LineState.GI
                entry.proc_mask = 0
                self.directory.set_station(entry, pending.req_station)
                fake = Packet(
                    mtype=MsgType.READ_EX, addr=addr,
                    src_station=pending.req_station, dest_mask=0,
                    requester=pending.requester,
                )
                self._send_data(fake, list(data), exclusive=True, inv_follows=False)
        else:
            entry.state = LineState.LV if pending.is_local else LineState.GV
            if pending.is_local:
                idx = self._local_index(pending.requester)
                entry.proc_mask |= 1 << idx
                self.directory.set_station(entry, self.station_id)
                self._respond_local_pending(addr, pending, list(data), exclusive=False)
            else:
                self.directory.add_station(entry, self.station_id)
                self.directory.add_station(entry, pending.req_station)
                fake = Packet(
                    mtype=MsgType.READ, addr=addr,
                    src_station=pending.req_station, dest_mask=0,
                    requester=pending.requester,
                )
                self._send_data(fake, list(data), exclusive=False)
        v = self.verifier
        if v is not None:
            v.observe(self, addr)

    def _invalidate_local(self, addr: int, entry: DirEntry, keep: Optional[int]) -> None:
        """Invalidate local secondary-cache copies over the bus (one
        broadcast transaction), sparing ``keep`` (the writing processor)."""
        mask = entry.proc_mask
        if keep is not None:
            mask &= ~(1 << self._local_index(keep))
        if mask == 0:
            entry.proc_mask = 0 if keep is None else entry.proc_mask
            return
        victims = [
            self.station.cpus[i]
            for i in range(self._cpus_per_station)
            if mask & (1 << i)
        ]
        v = self.verifier
        if v is not None:
            v.note_local_inval(self.station_id, addr, [c.cpu_id for c in victims])
        entry.proc_mask &= ~mask
        self.out_port.send(
            0, self._cmd_ticks,
            lambda vs=victims, a=addr: [c.invalidate_line(a) for c in vs],
        )


def _mem_service_done(mem: MemoryModule) -> None:
    """The service-done event: start the next queued packet, if any."""
    f = mem.in_fifo
    items = f._items
    if not items:
        mem._busy = False
        return
    engine = mem.engine
    now = engine.now
    # Fifo.pop inlined
    pkt, enq = items.popleft()
    f.wait_total += now - enq
    seq = engine._seq + 1
    engine._seq = seq
    engine._push((now + mem._lookup_ticks, 1, seq, mem._service, pkt))
