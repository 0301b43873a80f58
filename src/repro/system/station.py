"""One NUMAchine station (paper Fig. 2): four processor modules, a memory
module, a network cache and a ring interface on a shared bus.

The station also owns the packet *dispatch*: ring packets delivered by the
local ring interface are routed to the memory module (for lines homed
here), the network cache (for remote lines), or processor registers
(barrier writes and interrupts).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..cpu.processor import Processor
from ..interconnect.packet import MsgType, Packet
from ..interconnect.routing import RoutingMaskCodec
from ..sim.engine import Engine, SimulationError, ns_to_ticks
from .bus import Bus

_BARRIER_WRITE = MsgType.BARRIER_WRITE
_INTERRUPT = MsgType.INTERRUPT
_UNCACHED_RESP = MsgType.UNCACHED_RESP

#: ``(full, dest_mask, groups)``: see :meth:`Station.barrier_plan`
BarrierPlan = Tuple[int, int, Tuple[Tuple[int, ...], ...]]


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
        # home-routing constants, bound once: module_for runs per ring
        # delivery (a processor request inlines it, see repro.cpu.processor)
        self._station_mem_bytes = config.station_mem_bytes
        self._num_stations = config.num_stations
        # dispatch constants, bound once: deliver_from_ring and
        # cpu_by_global run per packet
        self._cpus_per_station = config.cpus_per_station
        #: barrier fan-out plans by cpus tuple; the Machine shares one dict
        #: among its stations (see barrier_plan)
        self.barrier_plans: Dict[Tuple[int, ...], BarrierPlan] = {}

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
        idx = global_cpu % self._cpus_per_station
        cpu = self.cpus[idx]
        if cpu.cpu_id != global_cpu:
            raise SimulationError(
                f"cpu {global_cpu} is not on station {self.station_id}"
            )
        return cpu

    def barrier_plan(self, cpus: Tuple[int, ...]) -> BarrierPlan:
        """How a barrier over global cpu ids ``cpus`` fans out.

        ``full`` has one bit per participant, ``dest_mask`` routes the
        BARRIER_WRITE multicast to their stations, and ``groups[s]`` holds
        station ``s``'s local cpu indices in ``cpus`` order (empty for a
        station the inexact mask over-selects).  A plan is computed once
        per distinct tuple per machine: it depends on the geometry, so the
        plan dict is the machine's, never shared between machines."""
        plan = self.barrier_plans.get(cpus)
        if plan is None:
            cps = self._cpus_per_station
            full = 0
            local: List[List[int]] = [[] for _ in range(self._num_stations)]
            for gid in cpus:
                full |= 1 << gid
                local[gid // cps].append(gid % cps)
            dest_mask = self.codec.combine(s for s, g in enumerate(local) if g)
            plan = (full, dest_mask, tuple(map(tuple, local)))
            self.barrier_plans[cpus] = plan
        return plan

    # ------------------------------------------------------------------
    def deliver_from_ring(self, pkt: Packet) -> None:
        """Dispatch a packet that the ring interface moved over the bus.

        Barrier writes and interrupts fan out to this station's processors
        (a barrier write walks only this station's group of its plan), an
        uncached response completes at its requester, and every other
        packet goes to the line's :meth:`module_for`."""
        mtype = pkt.mtype
        if mtype is _BARRIER_WRITE:
            meta = pkt.meta
            bit = meta["bit"]
            sense = meta["sense"]
            cpus = self.cpus
            for idx in meta["groups"][self.station_id]:
                cpus[idx].barrier_write(bit, sense)
            return
        if mtype is _INTERRUPT:
            cps = self._cpus_per_station
            proc_mask = pkt.meta.get("proc_mask", (1 << cps) - 1)
            bits = pkt.meta.get("bits", 1)
            for i in range(cps):
                if proc_mask & (1 << i):
                    self.cpus[i].raise_interrupt(bits)
            return
        if mtype is _UNCACHED_RESP:
            self.cpu_by_global(pkt.requester).complete_uncached(pkt.addr, pkt.data)
            return
        self.module_for(pkt.addr).handle(pkt)
