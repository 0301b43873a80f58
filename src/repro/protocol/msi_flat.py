"""A flat full-map MSI directory protocol — the ablation baseline.

This plug-in strips out everything that makes the NUMAchine protocol
hierarchical, so ablation runs can price those mechanisms:

* **exact full-map directory** — ``DirEntry.proc_mask`` is reinterpreted
  as a *global* CPU bitmask (one bit per processor in the machine), not a
  per-station mask.  Invalidations go exactly to sharer stations, never
  over-delivered;
* **no network cache** — the NC runs in bypass (pure forwarding) mode:
  no combining, no migration/caching hits, no coherence localization;
* **three stable states** — LV = uncached at home (mask empty), GV =
  shared (mask lists every cacher), GI = modified (mask holds exactly the
  owner's bit).  The per-station LI state is unused; local dirty owners on
  the home station are GI like everyone else.

What is *kept* from the host machine model: NACK-and-retry on locked
lines, the ordered-multicast invalidation transport (the return to home
still unlocks the writer, fig 7), interventions for modified lines, and
the write-back races those imply.  The directory's station routing mask is
maintained in parallel with the full map so the base send helpers work
unchanged; ownership of truth sits in ``proc_mask``.
"""

from __future__ import annotations

from typing import Optional

from ..cache.network_cache import NetworkCache
from ..core.directory import DirEntry
from ..core.states import LineState
from ..interconnect.packet import MsgType, Packet
from ..memory.memory_module import MemoryModule, Pending
from ..sim.engine import SimulationError
from .base import CoherenceProtocol

# read by the checker policy per transaction (see numachine._GV)
_GI = LineState.GI


class MsiMemory(MemoryModule):
    """Home directory of the flat MSI protocol (full-map, exact)."""

    DISPATCH = (
        ("READ", "_on_read"),
        ("READ_EX", "_on_read_ex"),
        ("UPGRADE", "_on_upgrade"),
        ("SPECIAL_READ", "_on_special_read"),
        ("WRITE_BACK", "_on_write_back"),
        ("DATA_RESP", "_on_data_home"),
        ("DATA_RESP_EX", "_on_data_home"),
        ("INVALIDATE", "_on_invalidate_return"),
        ("PREFETCH", "_on_read"),
        ("XFER_ACK", "_on_xfer_ack"),
        ("NACK_INTERVENTION", "_on_nack_intervention"),
        ("READ_UNCACHED", "_on_read_uncached"),
        ("WRITE_UNCACHED", "_on_write_uncached"),
    )

    # ------------------------------------------------------------------
    # full-map helpers (proc_mask bits are *global* cpu ids here)
    # ------------------------------------------------------------------
    def _owner_cpu(self, entry: DirEntry, addr: int) -> int:
        mask = entry.proc_mask
        if mask == 0:
            raise SimulationError(
                f"modified line {addr:#x} with an empty owner map"
            )
        return mask.bit_length() - 1

    def _station_of(self, global_cpu: int) -> int:
        return global_cpu // self._cpus_per_station

    def _remote_sharer_route(self, entry: DirEntry, keep: int) -> int:
        """Routing mask covering every *remote* station with a sharer other
        than ``keep`` — exact per station, derived from the full map."""
        cps = self._cpus_per_station
        mask = entry.proc_mask & ~(1 << keep)
        route = 0
        while mask:
            cpu = mask.bit_length() - 1
            mask &= ~(1 << cpu)
            station = cpu // cps
            if station != self.station_id:
                route |= self.codec.station_mask(station)
        return route

    def _invalidate_home_local(
        self, addr: int, entry: DirEntry, keep: Optional[int]
    ) -> None:
        """Invalidate home-station L2 copies over the bus, clearing their
        bits from the full map (``keep`` is a *global* cpu id)."""
        cps = self._cpus_per_station
        base = self.station_id * cps
        local_mask = (entry.proc_mask >> base) & ((1 << cps) - 1)
        if keep is not None and base <= keep < base + cps:
            local_mask &= ~(1 << (keep - base))
        if local_mask == 0:
            return
        victims = [
            self.station.cpus[i] for i in range(cps) if local_mask & (1 << i)
        ]
        v = self.verifier
        if v is not None:
            v.note_local_inval(self.station_id, addr, [c.cpu_id for c in victims])
        entry.proc_mask &= ~(local_mask << base)
        self.out_port.send(
            0, self._cmd_ticks,
            lambda start, vs=victims, a=addr: [c.invalidate_line(a) for c in vs],
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _on_read(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        if entry.locked:
            return self._nack(pkt, local)
        if entry.state is not LineState.GI:
            # LV (uncached) or GV (shared): serve from DRAM, grow the map
            data = self.read_line(pkt.addr)
            dram = self._dram_read_ticks()
            if pkt.requester is not None:
                entry.proc_mask |= 1 << pkt.requester
            entry.state = LineState.GV if entry.proc_mask else LineState.LV
            if local:
                self._respond_local(pkt, data, exclusive=False, delay=dram)
            else:
                self.directory.add_station(entry, pkt.src_station)
                self.directory.add_station(entry, self.station_id)
                self._send_data(pkt, data, exclusive=False, delay=dram)
            return dram
        # GI: exactly one owner, found in the full map
        owner_cpu = self._owner_cpu(entry, pkt.addr)
        owner_station = self._station_of(owner_cpu)
        if owner_station == self.station_id:
            # dirty in a home-station L2: bus intervention
            self._lock(entry, Pending(
                kind="fetch", req_type=pkt.mtype, requester=pkt.requester,
                req_station=pkt.src_station, is_local=local, grant="data",
            ))
            self._msi_local_intervention(pkt.addr, owner_cpu, exclusive=False)
            return 0
        false_remote = owner_station == pkt.src_station and not local
        if false_remote:
            self.stats.counter("false_remote_bounces").incr()
        self._lock(entry, Pending(
            kind="fetch", req_type=pkt.mtype, requester=pkt.requester,
            req_station=pkt.src_station, is_local=local, grant="data",
        ))
        self._send_intervention(
            pkt, owner_station, exclusive=False, false_remote=false_remote
        )
        return 0

    # ------------------------------------------------------------------
    # writes (read-exclusive)
    # ------------------------------------------------------------------
    def _on_read_ex(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        if entry.locked:
            return self._nack(pkt, local)
        if entry.state is not LineState.GI:
            return self._grant_exclusive(pkt, entry, local)
        owner_cpu = self._owner_cpu(entry, pkt.addr)
        owner_station = self._station_of(owner_cpu)
        if owner_station == self.station_id:
            self._lock(entry, Pending(
                kind="fetch", req_type=pkt.mtype, requester=pkt.requester,
                req_station=pkt.src_station, is_local=local, grant="data",
            ))
            self._msi_local_intervention(pkt.addr, owner_cpu, exclusive=True)
            return 0
        false_remote = owner_station == pkt.src_station and not local
        if false_remote:
            self.stats.counter("false_remote_bounces").incr()
        self._lock(entry, Pending(
            kind="fetch", req_type=pkt.mtype, requester=pkt.requester,
            req_station=pkt.src_station, is_local=local, grant="data",
        ))
        self._send_intervention(
            pkt, owner_station, exclusive=True, false_remote=false_remote
        )
        return 0

    def _grant_exclusive(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        """LV/GV -> GI, invalidating every other sharer in the full map."""
        requester = pkt.requester
        dram = self._dram_read_ticks()
        remote_route = self._remote_sharer_route(entry, keep=requester)
        if remote_route:
            # Ordered multicast invalidation; completion at its return.
            if not local:
                # fig 7: the data goes out first, the invalidation follows
                self._send_data(pkt, self.read_line(pkt.addr), exclusive=True,
                                inv_follows=True, delay=dram)
            self._lock(entry, Pending(
                kind="inv", req_type=pkt.mtype, requester=requester,
                req_station=pkt.src_station, is_local=local, grant="data",
            ))
            self._send_invalidate(pkt, entry, remote_route)
            return dram
        # sharers (if any) are all on the home station: bus invalidation
        self._invalidate_home_local(pkt.addr, entry, keep=requester)
        entry.state = LineState.GI
        entry.proc_mask = 1 << requester
        if local:
            self.directory.set_station(entry, self.station_id)
            self._respond_local(pkt, self.read_line(pkt.addr), exclusive=True,
                                delay=dram)
        else:
            self.directory.set_station(entry, pkt.src_station)
            self._send_data(pkt, self.read_line(pkt.addr), exclusive=True,
                            inv_follows=False, delay=dram)
        return dram

    # ------------------------------------------------------------------
    # upgrades: flat MSI is pessimistic — always answered with data
    # ------------------------------------------------------------------
    def _on_upgrade(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        if entry.locked:
            return self._nack(pkt, local)
        self.stats.counter("upgrade_data_sent").incr()
        data_pkt = Packet(
            mtype=MsgType.READ_EX, addr=pkt.addr,
            src_station=pkt.src_station, dest_mask=0,
            requester=pkt.requester, meta=dict(pkt.meta),
        )
        return self._on_read_ex(data_pkt, entry, local)

    def _on_special_read(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        """The requester owns the line but its data never arrived (the
        ordered invalidation beat the direct data and the copy was lost)."""
        if entry.locked:
            return self._nack(pkt, local)
        self.stats.counter("special_reads_served").incr()
        data = self.read_line(pkt.addr)
        dram = self._dram_read_ticks()
        if local:
            self._respond_local(pkt, data, exclusive=True, delay=dram)
        else:
            self._send_data(pkt, data, exclusive=True, inv_follows=False,
                            delay=dram)
        return dram

    # ------------------------------------------------------------------
    # write-backs and returning data
    # ------------------------------------------------------------------
    def _on_write_back(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        self.write_line(pkt.addr, pkt.data)
        if entry.locked:
            pending = entry.pending
            if pending is not None and pending.kind == "awaiting_wb":
                # the intervention already resolved empty-handed; this
                # write-back is its real answer — rerun the blocked request
                self._unlock(entry)
                self._complete_after_wb(pkt.addr, entry, pending)
            elif pending is not None and pending.kind == "fetch":
                # The write-back crossed an intervention that is STILL in
                # flight.  Completing the round now would let that stale
                # intervention catch the new grantee and take its copy away
                # (its answers would then be dropped on the txn guard),
                # stranding the map on an owner with no copy — a livelock.
                # Note the arrival and close the round only when the
                # intervention's own answer (data or NACK) returns.
                pending.extra["wb_arrived"] = True
            # kind "inv": the in-flight transition owns state and map
            return self._dram_write_ticks()
        # the owner returned the line: home holds the only copy again
        entry.state = LineState.LV
        entry.proc_mask = 0
        self.directory.set_station(entry, self.station_id)
        return self._dram_write_ticks()

    def _complete_after_wb(self, addr: int, entry: DirEntry, pending: Pending) -> None:
        req = Packet(
            mtype=pending.req_type, addr=addr,
            src_station=pending.req_station, dest_mask=0,
            requester=pending.requester,
            meta={"local": pending.is_local, "retry": True},
        )
        entry.state = LineState.LV
        entry.proc_mask = 0
        self.directory.set_station(entry, self.station_id)
        self.handle(req)

    def _on_data_home(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        """Intervention answers returning to home."""
        if not self._txn_matches(pkt, entry):
            self.stats.counter("stale_answers").incr()
            self.write_line(pkt.addr, pkt.data)
            return self._dram_write_ticks()
        pending = entry.pending
        self.write_line(pkt.addr, pkt.data)
        exclusive = pkt.mtype is MsgType.DATA_RESP_EX
        self._unlock(entry)
        requester_bit = (
            (1 << pending.requester) if pending.requester is not None else 0
        )
        if exclusive:
            entry.state = LineState.GI
            entry.proc_mask = requester_bit
            if pending.is_local:
                self.directory.set_station(entry, self.station_id)
                self._respond_local_pending(pkt.addr, pending, pkt.data,
                                            exclusive=True)
            else:
                self.directory.set_station(entry, pending.req_station)
        else:
            # the old owner's copy was taken by the intervention broadcast:
            # the new map holds exactly the requester
            entry.state = LineState.GV if requester_bit else LineState.LV
            entry.proc_mask = requester_bit
            self.directory.add_station(entry, self.station_id)
            self.directory.add_station(entry, pending.req_station)
            if pending.is_local:
                self._respond_local_pending(pkt.addr, pending, pkt.data,
                                            exclusive=False)
        return self._dram_write_ticks()

    def _on_xfer_ack(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        """Ownership moved directly between remote stations."""
        if self._txn_matches(pkt, entry):
            pending = entry.pending
            self._unlock(entry)
            entry.state = LineState.GI
            entry.proc_mask = (
                (1 << pending.requester) if pending.requester is not None else 0
            )
            self.directory.set_station(entry, pending.req_station)
        return 0

    def _on_nack_intervention(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        """The owner could not supply data and no write-back is coming:
        bounce the original requester so it retries from scratch."""
        if not self._txn_matches(pkt, entry):
            self.stats.counter("stale_answers").incr()
            return 0
        pending = entry.pending
        self._unlock(entry)
        if pending.extra.get("wb_arrived"):
            # the owner's write-back crossed the intervention and already
            # landed here: home holds the line — serve the blocked request
            # from DRAM instead of bouncing the requester at a dead owner
            self._complete_after_wb(pkt.addr, entry, pending)
            return 0
        if pending.is_local:
            cpu = self.station.cpu_by_global(pending.requester)
            self.out_port.send(
                0, self._cmd_ticks,
                lambda start, c=cpu, a=pkt.addr: c.nack_from_module(a),
            )
        else:
            nack = Packet(
                mtype=MsgType.NACK, addr=pkt.addr,
                src_station=self.station_id,
                dest_mask=self.codec.station_mask(pending.req_station),
                requester=pending.requester,
            )
            self._send_packet(nack, has_data=False)
        return 0

    # ------------------------------------------------------------------
    # invalidation return (the unlock signal)
    # ------------------------------------------------------------------
    def _on_invalidate_return(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        if not (entry.locked and entry.pending is not None
                and entry.pending.kind == "inv"):
            # exact delivery: memory-side invalidations always match a
            # pending write; anything else is a late duplicate to drop
            self.stats.counter("stray_invalidates").incr()
            return 0
        pending = entry.pending
        self._unlock(entry)
        self._invalidate_home_local(pkt.addr, entry, keep=pending.requester)
        entry.state = LineState.GI
        entry.proc_mask = (
            (1 << pending.requester) if pending.requester is not None else 0
        )
        if pending.is_local:
            self.directory.set_station(entry, self.station_id)
            self._respond_local_pending(
                pkt.addr, pending, self.read_line(pkt.addr), exclusive=True,
                delay=self._dram_read_ticks(),
            )
        else:
            self.directory.set_station(entry, pending.req_station)
        return 0

    # ------------------------------------------------------------------
    # home-station bus interventions
    # ------------------------------------------------------------------
    def _msi_local_intervention(
        self, addr: int, owner_cpu: int, exclusive: bool
    ) -> None:
        cpu = self.station.cpus[self._local_index(owner_cpu)]
        self.out_port.send(
            0, self._cmd_ticks,
            lambda start, c=cpu, a=addr, e=exclusive: c.handle_intervention(
                a, e,
                lambda data, a2=a, e2=e: self._local_intervention_done(a2, e2, data),
            ),
        )

    def _local_intervention_done(self, addr: int, exclusive: bool, data) -> None:
        entry = self.directory.entry(addr)
        pending = entry.pending
        if pending is None:
            return
        if data is None:
            if pending.extra.get("wb_arrived"):
                # the crossed write-back already landed: rerun right away
                self._unlock(entry)
                self._complete_after_wb(addr, entry, pending)
                return
            # crossed with the owner's write-back; it is already in our FIFO
            pending.kind = "awaiting_wb"
            return
        self.write_line(addr, data)
        self._unlock(entry)
        requester_bit = (
            (1 << pending.requester) if pending.requester is not None else 0
        )
        if exclusive:
            entry.state = LineState.GI
            entry.proc_mask = requester_bit
            if pending.is_local:
                self.directory.set_station(entry, self.station_id)
                self._respond_local_pending(addr, pending, list(data),
                                            exclusive=True)
            else:
                self.directory.set_station(entry, pending.req_station)
                fake = Packet(
                    mtype=MsgType.READ_EX, addr=addr,
                    src_station=pending.req_station, dest_mask=0,
                    requester=pending.requester,
                )
                self._send_data(fake, list(data), exclusive=True,
                                inv_follows=False)
        else:
            # the old owner downgraded to shared and keeps its copy
            entry.state = LineState.GV
            entry.proc_mask |= requester_bit
            if pending.is_local:
                self.directory.set_station(entry, self.station_id)
                self._respond_local_pending(addr, pending, list(data),
                                            exclusive=False)
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


class MsiNC(NetworkCache):
    """Flat MSI has no network cache: a pure forwarding agent.

    Reuses the base bypass machinery (also exercised by the
    ``nc_enabled=False`` ablation): every local miss goes straight to the
    home station, responses complete the matching pending record, and
    remote interventions are answered by a processor broadcast."""

    DISPATCH = (
        ("DATA_RESP", "_on_data"),
        ("DATA_RESP_EX", "_on_data"),
        ("NACK", "_on_nack"),
        ("INVALIDATE", "_on_invalidate"),
        ("INTERVENTION", "_on_intervention"),
        ("INTERVENTION_EX", "_on_intervention"),
        ("MULTICAST_DATA", "_on_multicast_data"),
        ("KILL", "_on_kill"),
    )

    def __init__(self, engine, config, station) -> None:
        super().__init__(engine, config, station)
        # forwarding-only regardless of the machine-level NC knob
        self.enabled = False

    def _on_local_request(self, pkt: Packet) -> int:
        return self._bypass_local_request(pkt)

    def _on_local_writeback(self, pkt: Packet) -> int:
        self._forward_wb_home(pkt.addr, pkt.data)
        return 0

    def _on_data(self, pkt: Packet) -> int:
        return self._bypass_on_data(pkt)

    def _on_invalidate(self, pkt: Packet) -> int:
        return self._bypass_on_invalidate(pkt)

    def _on_multicast_data(self, pkt: Packet) -> int:
        """Software update multicast (§3.2) without an NC to adopt it: the
        base handler invalidates L2 copies via the NC line's processor mask,
        which a bypass NC never populates — it would invalidate nobody and
        leave spinners reading stale copies forever.  Here sharer tracking
        lives solely in home's full map, so broadcast-invalidate every local
        copy; re-reads refetch the updated line from home (which adopted the
        data on the multicast's arrival there)."""
        self._invalidate_local_all(pkt.addr)
        self.stats.counter("multicast_fills").incr()
        return 0

    def _on_nack(self, pkt: Packet) -> int:
        p = self._bypass_pending.get((pkt.addr, pkt.requester))
        if p is not None:
            p.retries += 1
            self.engine.schedule(
                self._retry_ticks,
                lambda a=pkt.addr, c=pkt.requester, o=p.op, ph=p.phase:
                    self._send_home(a, o, c, retry=True, phase=ph),
            )
        return 0


class MsiFlatProtocol(CoherenceProtocol):
    """Flat full-map MSI directory: the hierarchy ablation baseline."""

    name = "msi"
    memory_class = MsiMemory
    nc_class = MsiNC

    #: GI -> LV happens on every owner write-back (exact map, no
    #: hierarchical epoch rules): no transition pair is illegal per se
    illegal_mem = frozenset()
    illegal_nc = frozenset()
    #: unreachable — the NC holds no lines in bypass mode
    valid_nc_states = (LineState.LV, LineState.GV)
    conformance_invariants = (
        "legal-transition",
        "locked-liveness",
        "full-map-coverage",
        "single-owner",
        "sc-blocking",
        "single-writer",
        "writer-reader-exclusion",
        "nonsink-priority",
    )

    # ------------------------------------------------------------------
    def check_mem_masks(self, checker, mem, la: int, entry, pkt: Optional[Packet]) -> None:
        mask = entry.proc_mask
        checks = checker.checks
        if entry.state is not _GI:
            # LV/GV: the full map must cover every readable L2 copy in the
            # whole machine (modulo invalidations still on a bus or ring)
            checks["full-map-coverage"] = checks.get("full-map-coverage", 0) + 1
            pending, inflight = checker._pending_inval, checker._inval_inflight
            for cpu in checker.machine.cpus:
                line = cpu.l2.lookup(la)
                if line is None or not line.state.readable:
                    continue
                if (mask >> cpu.cpu_id) & 1:
                    continue
                sid = cpu.station.station_id
                pend = pending[sid].get(la)
                if pend is not None and cpu.cpu_id in pend:
                    continue
                if inflight[sid].get(la):
                    continue
                checker._violate(
                    "full-map-coverage",
                    f"P{cpu.cpu_id} holds {line.state.value} but the full "
                    f"map {mask:#x} does not cover it",
                    la=la, where=f"mem@S{mem.station_id}", pkt=pkt,
                )
        else:
            checks["single-owner"] = checks.get("single-owner", 0) + 1
            if mask == 0 or (mask & (mask - 1)):
                checker._violate(
                    "single-owner",
                    f"modified line with owner map {mask:#x} "
                    "(expected exactly one bit)",
                    la=la, where=f"mem@S{mem.station_id}", pkt=pkt,
                )

    def check_nc_masks(self, checker, nc, la: int, line, pkt: Optional[Packet]) -> None:
        # the NC is a pure forwarder: it holds no lines to check
        return
