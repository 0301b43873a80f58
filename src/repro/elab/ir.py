"""Intermediate representation for the build-time elaborator.

A :class:`MachineIR` captures what the generated station-side core bakes
in as literals — the tick constants of the bus, memory and network cache,
the address map, the probed tag-array geometry — plus the coherence
protocol whose dispatch tables it compiles.  The code generator
(:mod:`repro.elab.codegen`) consumes it to emit a specialized simulator
module.

The IR is extracted from a constructed :class:`~repro.system.machine.Machine`
rather than recomputed from the config where the wired instances already
carry a value (the tag arrays), so the elaborated core specializes exactly
what the interpreter built, with no duplicated construction rules.  Rings
and their interfaces are not elaborated, so the IR holds no topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class MachineIR:
    #: module-level literal constants for codegen, name -> int
    consts: Dict[str, int] = field(default_factory=dict)
    #: coherence-protocol plug-in whose DISPATCH tables the generated core
    #: compiles into dense dispatch
    protocol: str = "numachine"

    # ------------------------------------------------------------------
    @classmethod
    def from_machine(cls, machine) -> "MachineIR":
        config = machine.config
        from ..sim.engine import ns_to_ticks

        consts = {
            "ARB": ns_to_ticks(config.bus_arb_ns),
            "TAG": ns_to_ticks(config.nc_tag_ns),
            "LOOKUP": ns_to_ticks(config.dir_sram_ns),
            "CMD": config.cmd_bus_ticks,
            "LINE_MASK": ~(config.line_bytes - 1),
            "SMB": config.station_mem_bytes,
            "NSTATIONS": config.num_stations,
            "CPS": config.cpus_per_station,
            # geometry of the two tag arrays probed on the local-request
            # fast path (read off the wired instances, not re-derived)
            "NC_LINE_B": machine.stations[0].nc.array.line_bytes,
            "NC_SLOTS": machine.stations[0].nc.array.num_slots,
            "L2_LINE_B": machine.stations[0].cpus[0].l2.line_bytes,
            "L2_SETS": machine.stations[0].cpus[0].l2.num_sets,
        }
        return cls(
            consts=consts,
            protocol=getattr(machine, "protocol_name", "numachine"),
        )
