"""Intermediate representation for the build-time elaborator.

A :class:`MachineIR` captures everything about a machine that is *fixed at
build time* — the geometry, the routing-mask bit layout, every derived tick
constant, ring sizes and sequencing positions, FIFO capacities — as plain
data.  The code generator (:mod:`repro.elab.codegen`) consumes it to emit a
specialized simulator module in which all of these appear as literals.

The IR is extracted from a constructed :class:`~repro.system.machine.Machine`
rather than recomputed from the config, so the elaborated core specializes
exactly the topology the interpreter wired (ring sizes, IRI positions,
sequencing points) with no duplicated construction rules.

The fingerprint hashes the full config plus the package version and the
elaborator schema number, so a generated module can never be reused across
a config change or a code change that bumps either.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: bump whenever the generated module's shape or semantics change; stale
#: on-disk modules are ignored (their fingerprint no longer matches)
ELAB_SCHEMA = 7


@dataclass(frozen=True)
class StationIR:
    """Per-station routing constants (class attributes of the generated
    per-station ring-interface subclass)."""

    station_id: int
    #: this station's bit inside the level-0 field (already shifted)
    my_bit: int
    #: this station's bit inside the level-1 field (shifted); 0 on
    #: single-level machines
    upper_bit: int
    #: True when this station interface is its ring's sequencing point
    #: (single-level machines only)
    is_seq: bool


@dataclass(frozen=True)
class IriIR:
    """Per-inter-ring-interface constants."""

    name: str
    child_size: int
    parent_size: int
    parent_level: int
    parent_shift: int
    parent_field_mask: int
    #: bit for this interface's position inside the parent-level field
    #: (unshifted, as the interp compares unshifted fields)
    parent_bit: int
    child_is_seq: bool
    parent_is_seq: bool
    #: OR of all field masks *above* the parent level (0 = parent is top)
    higher_mask: int
    #: OR of all field masks *below* the parent level (clear_upper keep-mask)
    keep_mask: int


@dataclass
class MachineIR:
    fingerprint: str
    num_levels: int
    levels: Tuple[int, ...]
    num_stations: int
    #: module-level literal constants for codegen, name -> int
    consts: Dict[str, int] = field(default_factory=dict)
    ring_sizes: Dict[int, int] = field(default_factory=dict)  # level -> size
    stations: List[StationIR] = field(default_factory=list)
    iris: List[IriIR] = field(default_factory=list)
    #: when True the generated core carries tracer stamps and the
    #: observability-only telemetry (FIFO depth/wait integrals, bus
    #: transactions, ring packets_carried, CPU retries) inline — a separate
    #: fingerprint axis, so both variants coexist in the module store
    instrumented: bool = False
    #: coherence-protocol plug-in whose DISPATCH tables the generated core
    #: compiles into dense dispatch — a third fingerprint axis
    protocol: str = "numachine"

    # ------------------------------------------------------------------
    @classmethod
    def from_machine(cls, machine, instrumented: bool = False) -> "MachineIR":
        config = machine.config
        codec = machine.codec
        geometry = config.geometry
        levels = tuple(geometry.levels)
        num_levels = len(levels)

        in_cap = config.ring_in_fifo_capacity
        iri_cap = config.iri_fifo_capacity
        from ..sim.engine import ns_to_ticks

        consts = {
            "ARB": ns_to_ticks(config.bus_arb_ns),
            "SLOT": config.ring_slot_ticks,
            "HOP": config.ring_hop_ticks,
            "HALT": config.ring_slot_ticks * 4,
            "SEQ": ns_to_ticks(config.seq_point_ns),
            "SWITCH": ns_to_ticks(config.iri_switch_ns),
            "PKT_GEN": ns_to_ticks(config.pkt_gen_ns),
            "HANDLER": ns_to_ticks(config.handler_ns),
            "TAG": ns_to_ticks(config.nc_tag_ns),
            "LOOKUP": ns_to_ticks(config.dir_sram_ns),
            "CMD": config.cmd_bus_ticks,
            "LINE_T": config.line_bus_ticks,
            "LINE_MASK": ~(config.line_bytes - 1),
            "SMB": config.station_mem_bytes,
            "NSTATIONS": config.num_stations,
            "IN_CAP": in_cap,
            "IN_HW": max(1, in_cap - 2),
            "IRI_CAP": iri_cap,
            "IRI_HW": max(1, iri_cap - 2),
            "F0_MASK": codec._field_masks[0],
            "CPS": config.cpus_per_station,
            # geometry of the two tag arrays probed on the local-request
            # fast path (read off the wired instances, not re-derived)
            "NC_LINE_B": machine.stations[0].nc.array.line_bytes,
            "NC_SLOTS": machine.stations[0].nc.array.num_slots,
            "L2_LINE_B": machine.stations[0].cpus[0].l2.line_bytes,
            "L2_SETS": machine.stations[0].cpus[0].l2.num_sets,
        }
        if num_levels >= 2:
            consts["F1_MASK"] = codec._field_masks[1]
            consts["SHIFT1"] = codec._shifts[1]

        # ring sizes per level, read off the wired interconnect
        ring_sizes: Dict[int, int] = {}
        for (level, _), ring in machine.net.rings.items():
            prev = ring_sizes.setdefault(level, ring.size)
            if prev != ring.size:  # pragma: no cover - topology invariant
                raise ValueError(f"rings at level {level} differ in size")

        stations: List[StationIR] = []
        for st in machine.stations:
            sid = st.station_id
            coords = codec._station_coords[sid]
            sri = st.ring_interface
            upper = 0
            if num_levels >= 2:
                upper = 1 << (codec._shifts[1] + coords[1])
            stations.append(
                StationIR(
                    station_id=sid,
                    my_bit=1 << coords[0],
                    upper_bit=upper,
                    is_seq=(sri.ring.seq_pos == sri.pos),
                )
            )

        iris: List[IriIR] = []
        for iri in machine.net.iris:
            plevel = iri.parent.level
            higher = 0
            for lv in range(plevel + 1, num_levels):
                higher |= codec._field_masks[lv]
            keep = 0
            for lv in range(plevel):
                keep |= codec._field_masks[lv]
            iris.append(
                IriIR(
                    name=iri.name,
                    child_size=iri.child.size,
                    parent_size=iri.parent.size,
                    parent_level=plevel,
                    parent_shift=codec._shifts[plevel],
                    parent_field_mask=codec._field_masks[plevel],
                    parent_bit=1 << iri.parent_pos,
                    child_is_seq=(iri.child.seq_pos == iri.child_pos),
                    parent_is_seq=(iri.parent.seq_pos == iri.parent_pos),
                    higher_mask=higher,
                    keep_mask=keep,
                )
            )

        protocol = getattr(machine, "protocol_name", "numachine")
        return cls(
            fingerprint=config_elab_fingerprint(config, instrumented, protocol),
            num_levels=num_levels,
            levels=levels,
            num_stations=config.num_stations,
            consts=consts,
            ring_sizes=ring_sizes,
            stations=stations,
            iris=iris,
            instrumented=instrumented,
            protocol=protocol,
        )


def config_elab_fingerprint(
    config, instrumented: bool = False, protocol: str = "numachine",
) -> str:
    """Digest identifying a generated module: full config, package version,
    elaborator schema, instrumentation axis, coherence protocol.  Any
    mismatch forces regeneration."""
    import dataclasses

    from repro import __version__

    payload = json.dumps(
        {
            "elab_schema": ELAB_SCHEMA,
            "version": __version__,
            "instrumented": bool(instrumented),
            "protocol": str(protocol),
            "config": dataclasses.asdict(config),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]
