"""The station I/O module (paper Fig. 2, §3.2).

Each station carries an I/O module connecting disks and other devices.
What matters to the memory system — and what §3.2 describes — is the
interaction pattern: system software issues a device request *naming the
processor to interrupt and the bit pattern to write into its interrupt
register on completion*; the device then moves data to/from memory by DMA
(coherent block transfers through the memory module) and finally raises
the requested interrupt.  That is what this module implements; platter
physics is reduced to a fixed device latency plus a per-byte transfer rate.

Programs drive it through ``SoftOp("io_read"| "io_write", ...)`` (see
:mod:`repro.softctl.ops`), or directly via :meth:`IOModule.submit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..interconnect.packet import MsgType, Packet
from ..sim.engine import Engine, ns_to_ticks
from ..sim.stats import StatGroup


@dataclass
class IORequest:
    """One DMA transfer between a device and physical memory."""

    kind: str                 # 'read' (device -> memory) | 'write' (memory -> device)
    addr: int                 # line-aligned physical base
    nlines: int
    notify_cpu: int           # global cpu id to interrupt on completion
    intr_bits: int = 1
    #: device-side payload: for 'read', the lines to deposit; for 'write',
    #: filled in with the lines read from memory
    payload: Optional[List[List]] = None


class IOModule:
    """A DMA-capable I/O controller on one station's bus.

    Requests queue at the device; each costs ``device_latency_ns`` seek/
    setup time plus ``byte_time_ns`` per byte, then the data moves over the
    station bus to/from the local memory module (remote targets ride the
    ordinary coherent block machinery of the memory modules).
    """

    def __init__(self, engine: Engine, config, station,
                 device_latency_ns: float = 5000.0,
                 byte_time_ns: float = 2.0) -> None:
        self.engine = engine
        self.config = config
        self.station = station
        self.device_ticks = ns_to_ticks(device_latency_ns)
        self.byte_ticks = ns_to_ticks(byte_time_ns)
        self._queue: List[IORequest] = []
        self._busy = False
        self.stats = StatGroup(f"S{station.station_id}.io")

    # ------------------------------------------------------------------
    def submit(self, request: IORequest) -> None:
        self._queue.append(request)
        self.stats.counter("requests").incr()
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        req = self._queue.pop(0)
        transfer = self.device_ticks + self.byte_ticks * req.nlines * self.config.line_bytes
        self.engine.schedule(transfer, self._transfer_done, req)

    def _transfer_done(self, req: IORequest) -> None:
        cfg = self.config
        mem = self.station.memory
        if req.kind == "read":
            # device -> memory: kill cached copies, then deposit the lines
            payload = req.payload or [[0] * cfg.line_words] * req.nlines
            for i in range(req.nlines):
                la = req.addr + i * cfg.line_bytes
                kill = Packet(
                    mtype=MsgType.KILL, addr=la,
                    src_station=self.station.station_id, dest_mask=0,
                    requester=req.notify_cpu, meta={"local": True},
                )
                mem.handle(kill)
                data = payload[i % len(payload)]
                self.engine.schedule(
                    0, lambda a=la, d=list(data), m=mem: m.write_line(a, d)
                )
            busy = req.nlines * ns_to_ticks(cfg.dram_write_ns)
        else:
            # memory -> device: collect current coherent contents
            req.payload = []
            for i in range(req.nlines):
                la = req.addr + i * cfg.line_bytes
                req.payload.append(self._coherent_line(la))
            busy = req.nlines * ns_to_ticks(cfg.dram_read_ns)
        self.stats.counter(f"{req.kind}s").incr()
        self.engine.schedule(busy, self._interrupt, req)

    def _coherent_line(self, la: int) -> List:
        """Device reads see the coherent view: a dirty cached copy wins."""
        from ..core.states import CacheState, LineState

        for cpu in self.station.cpus:
            line = cpu.l2.lookup(la)
            if line is not None and line.state is CacheState.DIRTY:
                return list(line.data)
        ncl = self.station.nc.array.probe(la)
        if ncl is not None and ncl.state is LineState.LV and ncl.data:
            return list(ncl.data)
        home = self.config.home_station(la)
        return self.station.peer(home).memory.read_line(la)

    def _interrupt(self, req: IORequest) -> None:
        cfg = self.config
        target_station = req.notify_cpu // cfg.cpus_per_station
        if target_station == self.station.station_id:
            self.station.cpus[req.notify_cpu % cfg.cpus_per_station].raise_interrupt(
                req.intr_bits
            )
        else:
            intr = Packet(
                mtype=MsgType.INTERRUPT, addr=0,
                src_station=self.station.station_id,
                dest_mask=self.station.codec.station_mask(target_station),
                requester=req.notify_cpu,
                meta={
                    "proc_mask": 1 << (req.notify_cpu % cfg.cpus_per_station),
                    "bits": req.intr_bits,
                },
            )
            self.station.bus.request(
                cfg.cmd_bus_ticks,
                lambda start, p=intr: self.station.ring_interface.send(p),
            )
        self.stats.counter("interrupts").incr()
        self._busy = False
        self._pump()
