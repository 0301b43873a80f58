"""One NUMAchine station (paper Fig. 2): four processor modules, a memory
module, a network cache and a ring interface on a shared bus.

The station also owns the packet *dispatch*: ring packets delivered by the
local ring interface are routed to the memory module (for lines homed
here), the network cache (for remote lines), or processor registers
(barrier writes and interrupts).
"""

from __future__ import annotations

from typing import List

from ..cpu.processor import Processor
from ..interconnect.packet import MsgType, Packet
from ..interconnect.routing import RoutingMaskCodec
from ..sim.engine import Engine, SimulationError, ns_to_ticks
from .bus import Bus


class Station:
    def __init__(
        self,
        engine: Engine,
        config,
        codec: RoutingMaskCodec,
        station_id: int,
        protocol=None,
    ) -> None:
        if protocol is None:
            # direct constructions (unit tests) resolve the plug-in themselves
            from ..protocol import resolve_protocol

            protocol = resolve_protocol(config)
        self.engine = engine
        self.config = config
        self.codec = codec
        self.station_id = station_id
        self.protocol = protocol
        self.bus = Bus(
            engine, f"S{station_id}.bus", arb_ticks=ns_to_ticks(config.bus_arb_ns)
        )
        self.cpus: List[Processor] = [
            Processor(engine, config, station_id * config.cpus_per_station + i, self)
            for i in range(config.cpus_per_station)
        ]
        self.memory = protocol.memory_class(engine, config, self)
        self.nc = protocol.nc_class(engine, config, self)
        from .io import IOModule

        self.io = IOModule(engine, config, self)
        self.ring_interface = None   # wired by the Machine
        self._peers = None           # all stations; wired by the Machine
        # home-routing constants, bound once: module_for runs per request
        self._station_mem_bytes = config.station_mem_bytes
        self._num_stations = config.num_stations
        # dispatch constants, bound once: deliver_from_ring runs per packet
        # and its register fan-outs iterate over whole-machine cpu lists
        self._cpus_per_station = config.cpus_per_station
        self._gid_base = station_id * self._cpus_per_station

    def peer(self, station_id: int) -> "Station":
        return self._peers[station_id]

    # ------------------------------------------------------------------
    def module_for(self, addr: int):
        """The on-station module responsible for ``addr``: the memory module
        when this station is its home, else the network cache."""
        station = addr // self._station_mem_bytes
        if station == self.station_id:
            return self.memory
        if station >= self._num_stations:
            raise ValueError(f"address {addr:#x} beyond physical memory")
        return self.nc

    def cpu_by_global(self, global_cpu: int) -> Processor:
        idx = global_cpu % self.config.cpus_per_station
        cpu = self.cpus[idx]
        if cpu.cpu_id != global_cpu:
            raise SimulationError(
                f"cpu {global_cpu} is not on station {self.station_id}"
            )
        return cpu

    # ------------------------------------------------------------------
    def deliver_from_ring(self, pkt: Packet) -> None:
        """Dispatch a packet that the ring interface moved over the bus.

        Barrier writes and interrupts fan out to this station's processors,
        an uncached response completes at its requester, and every other
        packet goes to the line's :meth:`module_for`.  Stations are never
        re-classed, so the ring interface's bound ``deliver_cb`` stays
        valid across a backend switch."""
        mtype = pkt.mtype
        if mtype is MsgType.BARRIER_WRITE:
            bit = pkt.meta["bit"]
            sense = pkt.meta["sense"]
            base = self._gid_base
            top = base + self._cpus_per_station
            cpus = self.cpus
            for gid in pkt.meta["cpus"]:
                if base <= gid < top:
                    cpus[gid - base].barrier_write(bit, sense)
            return
        if mtype is MsgType.INTERRUPT:
            cps = self._cpus_per_station
            proc_mask = pkt.meta.get("proc_mask", (1 << cps) - 1)
            bits = pkt.meta.get("bits", 1)
            for i in range(cps):
                if proc_mask & (1 << i):
                    self.cpus[i].raise_interrupt(bits)
            return
        if mtype is MsgType.UNCACHED_RESP:
            self.cpu_by_global(pkt.requester).complete_uncached(pkt.addr, pkt.data)
            return
        self.module_for(pkt.addr).handle(pkt)
