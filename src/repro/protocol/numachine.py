"""NUMAchine's two-level hierarchical write-back invalidate protocol.

This is the paper's protocol (Fig. 5/6), extracted verbatim from the
memory-module and network-cache engines so it can be compared against
alternative plug-ins.  Its signature features:

* **inexact hierarchical routing masks** — the home directory ORs one bit
  per ring level per sharer, so invalidation multicasts may over-deliver
  (cheap directory, filtered at the receivers, §2.3);
* **per-station processor masks** — local sharers are named exactly
  within a station, globally only "some station on this ring" is known;
* **NACK-and-retry on locked lines** — nothing queues at home; combining
  happens in the network cache;
* **ordered-multicast invalidation** — the writer proceeds when the
  multicast returns to the home station (fig 7), downstream sharers see
  it later (ack-free);
* **network-cache effects** — combining, migration, caching and
  coherence localization, plus false-remote recovery (§4.6) via
  interventions and special reads.

The two engine classes below hold *only* the state machines; all
serialization plumbing, softctl handlers and packet helpers stay in the
protocol-agnostic base classes, and a station with ``nc_enabled=False``
runs the forwarding-only :class:`~repro.cache.network_cache.BypassNC`.
"""

from __future__ import annotations

from typing import Optional

from ..cache.network_cache import NCLine, NCPending, NetworkCache
from ..core.directory import DirEntry
from ..core.states import LineState
from ..interconnect.packet import MsgType, Packet
from ..memory.memory_module import MemoryModule, Pending
from ..sim.engine import SimulationError
from .base import CoherenceProtocol

# the checker policy reads these per transaction: a module alias is far
# cheaper than a member read through the enum class
_GV = LineState.GV
_GI = LineState.GI


class NumachineMemory(MemoryModule):
    """Home memory directory: the memory side of the two-level protocol."""

    #: (MsgType name, handler name) — the single source of truth for the
    #: class's dense ``HANDLERS`` tuple
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
    # reads
    # ------------------------------------------------------------------
    def _on_read(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        if entry.locked:
            return self._nack(pkt, local)
        st = entry.state
        if st in (LineState.LV, LineState.GV):
            data = self.read_line(pkt.addr)
            dram = self._dram_read
            if local:
                entry.proc_mask |= 1 << self._local_index(pkt.requester)
                self._respond_local(pkt, data, exclusive=False, delay=dram)
            else:
                entry.state = LineState.GV
                self.directory.add_station(entry, pkt.src_station)
                self.directory.add_station(entry, self.station_id)
                self._send_data(pkt, data, exclusive=False, delay=dram)
            return dram
        if st is LineState.LI:
            # dirty in a local secondary cache: bus intervention
            self._lock(entry, Pending(
                kind="fetch",
                req_type=pkt.mtype,
                requester=pkt.requester,
                req_station=pkt.src_station,
                is_local=local,
                grant="data",
            ))
            self._local_intervention(pkt.addr, entry, exclusive=False)
            return 0
        # GI: a remote network cache owns the line
        owner = self._owner_station(entry)
        if owner == pkt.src_station and not local:
            # false remote: requester's own station still owns it (§4.6)
            self.stats.count("false_remote_bounces")
            self._lock(entry, Pending(
                kind="fetch", req_type=pkt.mtype, requester=pkt.requester,
                req_station=pkt.src_station, is_local=False, grant="data",
            ))
            self._send_intervention(pkt, owner, exclusive=False, false_remote=True)
            return 0
        self._lock(entry, Pending(
            kind="fetch", req_type=pkt.mtype, requester=pkt.requester,
            req_station=pkt.src_station, is_local=local, grant="data",
        ))
        self._send_intervention(pkt, owner, exclusive=False)
        return 0

    # ------------------------------------------------------------------
    # writes (read-exclusive)
    # ------------------------------------------------------------------
    def _on_read_ex(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        if entry.locked:
            return self._nack(pkt, local)
        st = entry.state
        if st is LineState.LV:
            return self._grant_exclusive_from_valid(pkt, entry, local, had_remote=False)
        if st is LineState.GV:
            return self._grant_exclusive_from_valid(pkt, entry, local, had_remote=True)
        if st is LineState.LI:
            self._lock(entry, Pending(
                kind="fetch", req_type=pkt.mtype, requester=pkt.requester,
                req_station=pkt.src_station, is_local=local, grant="data",
            ))
            self._local_intervention(pkt.addr, entry, exclusive=True)
            return 0
        # GI: forward to the owning station
        owner = self._owner_station(entry)
        if owner == pkt.src_station and not local:
            self.stats.count("false_remote_bounces")
            self._lock(entry, Pending(
                kind="fetch", req_type=pkt.mtype, requester=pkt.requester,
                req_station=pkt.src_station, is_local=False, grant="data",
            ))
            self._send_intervention(pkt, owner, exclusive=True, false_remote=True)
            return 0
        self._lock(entry, Pending(
            kind="fetch", req_type=pkt.mtype, requester=pkt.requester,
            req_station=pkt.src_station, is_local=local, grant="data",
        ))
        self._send_intervention(pkt, owner, exclusive=True)
        return 0

    def _grant_exclusive_from_valid(
        self, pkt: Packet, entry: DirEntry, local: bool, had_remote: bool
    ) -> int:
        """LV/GV -> exclusive grant, invalidating all other copies."""
        grant = "ack" if pkt.mtype is MsgType.UPGRADE else "data"
        remote_mask = self._remote_sharers(entry)
        if had_remote and remote_mask:
            # Ordered multicast invalidation; completion at its return (§2.3).
            if not local and grant == "data":
                # fig 7: data goes out first, the invalidation follows
                self._send_data(pkt, self.read_line(pkt.addr), exclusive=True,
                                inv_follows=True, delay=self._dram_read)
            self._lock(entry, Pending(
                kind="inv", req_type=pkt.mtype, requester=pkt.requester,
                req_station=pkt.src_station, is_local=local, grant=grant,
            ))
            self._send_invalidate(pkt, entry, remote_mask)
            return self._dram_read if grant == "data" else 0
        # only local copies: invalidate over the bus and answer immediately
        self._invalidate_local(pkt.addr, entry, keep=pkt.requester if local else None)
        if local:
            idx = self._local_index(pkt.requester)
            entry.state = LineState.LI
            entry.proc_mask = 1 << idx
            self.directory.set_station(entry, self.station_id)
            if grant == "ack" and self._cpu_has_copy(pkt.requester, pkt.addr):
                self._respond_local(pkt, None, exclusive=True)
                return 0
            self._respond_local(
                pkt, self.read_line(pkt.addr), exclusive=True,
                delay=self._dram_read,
            )
            return self._dram_read
        entry.state = LineState.GI
        entry.proc_mask = 0
        self.directory.set_station(entry, pkt.src_station)
        if grant == "ack":
            # upgrade with no other sharers: a lone invalidate acts as the ack
            # (no lock is held, so home is excluded from the multicast)
            self._send_invalidate(pkt, entry, 0, include_home=False)
            return 0
        self._send_data(pkt, self.read_line(pkt.addr), exclusive=True,
                        inv_follows=False, delay=self._dram_read)
        return self._dram_read

    # ------------------------------------------------------------------
    # upgrades (write permission without data)
    # ------------------------------------------------------------------
    def _on_upgrade(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        if entry.locked:
            return self._nack(pkt, local)
        st = entry.state
        if st in (LineState.LV, LineState.GV):
            requester_station = self.station_id if local else pkt.src_station
            may_have = local or self.directory.may_have_copy(entry, requester_station)
            if self.config.optimistic_upgrade and may_have:
                return self._grant_exclusive_from_valid(
                    pkt, entry, local, had_remote=(st is LineState.GV)
                )
            # pessimistic (or known-stale): answer with data like a READ_EX
            self.stats.count("upgrade_data_sent")
            data_pkt = Packet(
                mtype=MsgType.READ_EX, addr=pkt.addr,
                src_station=pkt.src_station, dest_mask=0,
                requester=pkt.requester, meta=dict(pkt.meta),
            )
            return self._on_read_ex(data_pkt, entry, local)
        # The requester's copy is long gone (LI/GI): fall back to READ_EX.
        self.stats.count("upgrade_fallback")
        data_pkt = Packet(
            mtype=MsgType.READ_EX, addr=pkt.addr,
            src_station=pkt.src_station, dest_mask=0,
            requester=pkt.requester, meta=dict(pkt.meta),
        )
        return self._on_read_ex(data_pkt, entry, local)

    def _on_special_read(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        """§4.6: the requester owns the line but never received data."""
        if entry.locked:
            return self._nack(pkt, local)
        self.stats.count("special_reads_served")
        data = self.read_line(pkt.addr)
        dram = self._dram_read
        if local:
            self._respond_local(pkt, data, exclusive=True, delay=dram)
        else:
            self._send_data(pkt, data, exclusive=True, inv_follows=False, delay=dram)
        return dram

    # ------------------------------------------------------------------
    # write-backs and returning data
    # ------------------------------------------------------------------
    def _on_write_back(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        self.write_line(pkt.addr, pkt.data)
        if entry.locked and entry.pending is not None and entry.pending.kind in (
            "awaiting_wb",
            "fetch",
        ):
            # the write-back crossed our intervention: complete the request
            pending = entry.pending
            self._unlock(entry)
            self._complete_after_wb(pkt, entry, pending)
            return self._dram_write
        if local:
            # dirty secondary-cache eviction on the home station
            entry.state = LineState.LV
            if pkt.requester is not None:
                entry.proc_mask &= ~(1 << self._local_index(pkt.requester))
            self.directory.set_station(entry, self.station_id)
        else:
            # a network cache ejected its (exclusively held) copy
            entry.state = LineState.GV
            self.directory.add_station(entry, self.station_id)
        return self._dram_write

    def _complete_after_wb(self, pkt: Packet, entry: DirEntry, pending: Pending) -> None:
        req = Packet(
            mtype=pending.req_type, addr=pkt.addr,
            src_station=pending.req_station, dest_mask=0,
            requester=pending.requester,
            meta={"local": pending.is_local, "retry": True},
        )
        # The line is now plain valid; rerun the request against fresh state.
        # Keep the old sharer mask (L2s at the ejecting station may retain
        # shared copies), just fold in the home station.
        entry.state = LineState.LV if pending.is_local else LineState.GV
        entry.proc_mask = 0
        self.directory.add_station(entry, self.station_id)
        self.handle(req)

    def _on_data_home(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        """A copy of the line returning to its home (intervention answers)."""
        if not self._txn_matches(pkt, entry):
            # stray copy (e.g. late duplicate); just absorb the data
            self.stats.count("stale_answers")
            self.write_line(pkt.addr, pkt.data)
            return self._dram_write
        pending = entry.pending
        self.write_line(pkt.addr, pkt.data)
        exclusive = pkt.mtype is MsgType.DATA_RESP_EX
        self._unlock(entry)
        if exclusive:
            # ownership moved to the pending requester
            if pending.is_local:
                idx = self._local_index(pending.requester)
                entry.state = LineState.LI
                entry.proc_mask = 1 << idx
                self.directory.set_station(entry, self.station_id)
                self._respond_local_pending(pkt.addr, pending, pkt.data, exclusive=True)
            else:
                entry.state = LineState.GI
                entry.proc_mask = 0
                self.directory.set_station(entry, pending.req_station)
        else:
            entry.state = LineState.GV
            self.directory.add_station(entry, self.station_id)
            self.directory.add_station(entry, pending.req_station)
            if pending.is_local:
                idx = self._local_index(pending.requester)
                entry.proc_mask |= 1 << idx
                self._respond_local_pending(pkt.addr, pending, pkt.data, exclusive=False)
        return self._dram_write

    def _on_xfer_ack(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        """Ownership-transfer notification from the old owner's NC."""
        if self._txn_matches(pkt, entry):
            pending = entry.pending
            self._unlock(entry)
            entry.state = LineState.GI
            entry.proc_mask = 0
            self.directory.set_station(entry, pending.req_station)
        return 0

    def _on_nack_intervention(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        """The owner's NC could not supply data and no write-back is coming:
        bounce the original requester so it retries from scratch."""
        if not self._txn_matches(pkt, entry):
            self.stats.count("stale_answers")
            return 0
        pending = entry.pending
        self._unlock(entry)
        if pending.is_local:
            cpu = self.station.cpu_by_global(pending.requester)
            self.out_port.send(
                0, self._cmd_ticks,
                lambda c=cpu, a=pkt.addr: c.nack_from_module(a),
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
    # invalidation return (the unlock signal, paper fig 7)
    # ------------------------------------------------------------------
    def _on_invalidate_return(self, pkt: Packet, entry: DirEntry, local: bool) -> int:
        if not (entry.locked and entry.pending is not None and entry.pending.kind == "inv"):
            # an invalidation for a line this memory no longer tracks as
            # pending: invalidate local copies (inexact-mask delivery)
            if entry.proc_mask and entry.state in (LineState.LV, LineState.GV):
                self._invalidate_local(pkt.addr, entry, keep=None)
                entry.state = LineState.GI
            self.stats.count("stray_invalidates")
            return 0
        pending = entry.pending
        self._unlock(entry)
        keep = pending.requester if pending.is_local else None
        self._invalidate_local(pkt.addr, entry, keep=keep)
        if pending.is_local:
            idx = self._local_index(pending.requester)
            entry.state = LineState.LI
            entry.proc_mask = 1 << idx
            self.directory.set_station(entry, self.station_id)
            if pending.grant == "ack" and self._cpu_has_copy(pending.requester, pkt.addr):
                self._respond_local_pending(pkt.addr, pending, None, exclusive=True)
            else:
                self._respond_local_pending(
                    pkt.addr, pending, self.read_line(pkt.addr), exclusive=True,
                    delay=self._dram_read,
                )
        else:
            entry.state = LineState.GI
            entry.proc_mask = 0
            self.directory.set_station(entry, pending.req_station)
        return 0


class NumachineNC(NetworkCache):
    """Network cache state machine: combining, migration, caching and
    coherence localization (fig 6)."""

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

    # ==================================================================
    # local processor requests
    # ==================================================================
    def _on_local_request(self, pkt: Packet) -> int:
        line = self.array.probe(pkt.addr)
        op = pkt.mtype
        cpu = pkt.requester
        if line is not None and line.locked:
            p = line.pending
            if p is not None and p.kind == "fetch" and cpu != p.cpu:
                p.combined.add(cpu)
            c = self.stats.counters
            c["nacks"] = c.get("nacks", 0) + 1
            self._nack_cpu(cpu, pkt.addr)
            return 0
        if line is None:
            occupant = self.array.occupant(pkt.addr)
            if occupant is not None and occupant.locked:
                c = self.stats.counters
                c["conflict_nacks"] = c.get("conflict_nacks", 0) + 1
                self._nack_cpu(cpu, pkt.addr)
                return 0
            if occupant is not None:
                self._eject(occupant)
            line = NCLine(addr=pkt.addr, state=LineState.GI)
            self.array.insert(line)
            return self._start_fetch(line, op, pkt)
        st = line.state
        if st is LineState.GI:
            return self._start_fetch(line, op, pkt)
        if st is LineState.GV:
            if op is MsgType.READ:
                return self._serve_hit(line, cpu)
            # write permission must come from home; NC already has the data,
            # so a dataless upgrade suffices (the response combines with it)
            return self._start_fetch(line, MsgType.UPGRADE, pkt)
        if st is LineState.LV:
            if op is MsgType.READ:
                return self._serve_hit(line, cpu)
            # coherence localization: grant exclusivity without home traffic
            self._count_hit_kind(line, cpu)
            self._invalidate_local(pkt.addr, line.proc_mask, keep=cpu)
            line.state = LineState.LI
            line.proc_mask = 1 << self._local_index(cpu)
            if self._cpu_has_copy(cpu, pkt.addr):
                self._grant_cpu(cpu, pkt.addr, None, exclusive=True)
                line.data = None
                return 0
            data = list(line.data) if line.data is not None else None
            if data is None:
                raise SimulationError(f"LV NC line {pkt.addr:#x} without data")
            line.data = None
            self._grant_cpu(cpu, pkt.addr, data, exclusive=True,
                            delay=self._nc_read)
            return self._nc_read
        # LI: dirty in a local secondary cache
        owner_idx = line.proc_mask.bit_length() - 1
        if line.proc_mask == 0:
            raise SimulationError(f"NC LI line {pkt.addr:#x} with empty proc mask")
        exclusive = op is not MsgType.READ
        self._count_hit_kind(line, cpu)
        line.locked = True
        line.pending = NCPending(
            kind="local_intervention", op=op, cpu=cpu, exclusive=exclusive
        )
        owner = self.station.cpus[owner_idx]
        self.out_port.send(
            0, self._cmd_ticks,
            lambda c=owner, a=pkt.addr, e=exclusive: c.handle_intervention(
                a, e, lambda data, a2=a: self._local_intervention_done(a2, data)
            ),
        )
        return 0

    def _start_fetch(self, line: NCLine, op: MsgType, pkt: Packet) -> int:
        cpu = pkt.requester
        self._count_miss()
        line.locked = True
        line.pending = NCPending(
            kind="fetch", op=op, cpu=cpu, first_issue=self.engine.now,
            phase=pkt.meta.get("phase"),
        )
        if pkt.meta.get("prefetch"):
            line.pending.cpu = None
            line.pending.op = MsgType.READ
        self._send_home(line.addr, op,
                        cpu, retry=False, prefetch=bool(pkt.meta.get("prefetch")),
                        phase=line.pending.phase)
        return 0

    def _serve_hit(self, line: NCLine, cpu: int) -> int:
        self._count_hit_kind(line, cpu)
        line.proc_mask |= 1 << self._local_index(cpu)
        data = list(line.data) if line.data is not None else None
        if data is None:
            raise SimulationError(f"NC hit on {line!r} without data")
        self._grant_cpu(cpu, line.addr, data, exclusive=False,
                        delay=self._nc_read)
        return self._nc_read

    # ==================================================================
    # local write-backs (dirty L2 evictions of remote lines)
    # ==================================================================
    def _on_local_writeback(self, pkt: Packet) -> int:
        line = self.array.probe(pkt.addr)
        cpu = pkt.requester
        if line is not None and line.locked:
            p = line.pending
            if p is not None and p.kind in ("local_intervention", "intervention"):
                # the write-back crossed our bus intervention; use its data
                self._local_intervention_done(pkt.addr, pkt.data, from_wb=True)
                return self._nc_write
            if p is not None and p.kind == "fetch":
                # stale WB racing a new fetch; push home so nothing is lost
                self._forward_wb_home(pkt.addr, pkt.data)
                return 0
        if line is not None:
            # normal case: LI -> LV (fig 6 LocalWrBack edge)
            line.data = list(pkt.data)
            line.state = LineState.LV
            if cpu is not None:
                line.proc_mask &= ~(1 << self._local_index(cpu))
            line.brought_by = cpu
            return self._nc_write
        occupant = self.array.occupant(pkt.addr)
        if occupant is None:
            # re-adopt the line: home still believes this station owns it
            line = NCLine(
                addr=pkt.addr, state=LineState.LV, data=list(pkt.data),
                brought_by=cpu,
            )
            self.array.insert(line)
            return self._nc_write
        # slot busy with another line: hand the data back to home memory
        self._forward_wb_home(pkt.addr, pkt.data)
        return 0

    # ==================================================================
    # responses from the network
    # ==================================================================
    def _on_data(self, pkt: Packet) -> int:
        line = self.array.probe(pkt.addr)
        if line is None or not line.locked or line.pending is None:
            self.stats.count("stray_data")
            return 0
        p = line.pending
        p.data = list(pkt.data)
        p.data_exclusive = pkt.mtype is MsgType.DATA_RESP_EX
        p.inv_follows = bool(pkt.meta.get("inv_follows"))
        self._maybe_complete(line)
        return self._nc_write

    def _on_nack(self, pkt: Packet) -> int:
        line = self.array.probe(pkt.addr)
        if line is None or not line.locked or line.pending is None:
            return 0
        p = line.pending
        p.retries += 1
        self.stats.count("remote_retries")
        # linear-capped backoff keeps NACK storms from flooding the rings
        self.engine.schedule(
            self._retry_ticks * min(p.retries, 8),
            lambda l=line: self._resend_fetch(l),
        )
        return 0

    def _resend_fetch(self, line: NCLine) -> None:
        p = line.pending
        if p is None or p.kind != "fetch":
            return
        self._send_home(line.addr, p.op, p.cpu, retry=True,
                        prefetch=(p.cpu is None), phase=p.phase)

    def _on_invalidate(self, pkt: Packet) -> int:
        line = self.array.probe(pkt.addr)
        if line is None:
            # ejected from the NC: broadcast to all four processors (§2.3)
            self.stats.count("invalidate_broadcasts")
            self._invalidate_local_all(pkt.addr)
            return 0
        if line.locked and line.pending is not None and line.pending.kind == "fetch":
            p = line.pending
            ours = (
                pkt.meta.get("writer_station") == self.station_id
                and pkt.requester == p.cpu
                and p.op in (MsgType.READ_EX, MsgType.UPGRADE, MsgType.SPECIAL_READ)
            )
            if ours:
                p.inv_arrived = True
                self._invalidate_local(pkt.addr, line.proc_mask, keep=p.cpu)
                # ours implies a write op, so p.cpu is a real cpu id (prefetch
                # pendings are forced to READ)
                line.proc_mask &= 1 << self._local_index(p.cpu)
                self._maybe_complete(line)
            else:
                # someone else's write beat us: our copies are now stale
                p.copy_invalidated = True
                self._invalidate_local(pkt.addr, line.proc_mask, keep=None)
                line.proc_mask = 0
                line.data = None
            return 0
        if line.state is LineState.GV:
            self._invalidate_local(pkt.addr, line.proc_mask, keep=None)
            line.proc_mask = 0
            line.state = LineState.GI
            line.data = None
            self.stats.count("invalidations_applied")
            return 0
        if line.state in (LineState.LV, LineState.LI):
            # This station owns the line exclusively, so the home directory
            # is GI pointing here and cannot have issued a *current*
            # invalidation: this one is from an older write epoch, still in
            # flight when ownership moved.  Ignoring it is the only safe
            # action — applying it would destroy the current dirty data.
            self.stats.count("invalidate_stale_owner")
            return 0
        # GI: the inexact routing mask over-delivered; nothing to do (§2.3)
        self.stats.count("invalidate_ignored_gi")
        return 0

    # ==================================================================
    # fetch completion
    # ==================================================================
    def _maybe_complete(self, line: NCLine) -> None:
        p = line.pending
        if p is None or p.kind != "fetch":
            return
        op = p.op
        cfg = self.config
        if op is MsgType.READ:
            if p.data is None:
                return
            line.locked = False
            line.pending = None
            line.state = LineState.GV
            line.data = list(p.data)
            line.brought_by = p.cpu
            if p.cpu is not None:
                line.proc_mask = 1 << self._local_index(p.cpu)
                self._grant_cpu(p.cpu, line.addr, list(p.data), exclusive=False)
            else:
                line.proc_mask = 0
                self.stats.count("prefetch_fills")
            self.stats.count("combined_requests", len(p.combined))
            return
        if op in (MsgType.READ_EX, MsgType.SPECIAL_READ):
            if p.data is None:
                return
            if cfg.sc_locking and p.inv_follows and not p.inv_arrived:
                return
            line.locked = False
            line.pending = None
            line.state = LineState.LI
            line.data = None
            line.brought_by = p.cpu
            line.proc_mask = 1 << self._local_index(p.cpu)
            self._grant_cpu(p.cpu, line.addr, list(p.data), exclusive=True)
            self.stats.count("combined_requests", len(p.combined))
            return
        if op is MsgType.UPGRADE:
            if p.data is not None:
                # home fell back to sending data (stale-sharer path)
                if cfg.sc_locking and p.inv_follows and not p.inv_arrived:
                    return
                line.locked = False
                line.pending = None
                line.state = LineState.LI
                line.data = None
                line.brought_by = p.cpu
                line.proc_mask = 1 << self._local_index(p.cpu)
                self._grant_cpu(p.cpu, line.addr, list(p.data), exclusive=True)
                self.stats.count("combined_requests", len(p.combined))
                return
            if not p.inv_arrived:
                return
            # ack-only grant: do we still hold valid data anywhere? (§4.6)
            if not p.copy_invalidated and self._cpu_has_copy(p.cpu, line.addr):
                line.locked = False
                line.pending = None
                line.state = LineState.LI
                line.data = None
                line.brought_by = p.cpu
                line.proc_mask = 1 << self._local_index(p.cpu)
                self._grant_cpu(p.cpu, line.addr, None, exclusive=True)
                self.stats.count("combined_requests", len(p.combined))
                return
            if not p.copy_invalidated and line.data is not None:
                data = list(line.data)
                line.locked = False
                line.pending = None
                line.state = LineState.LI
                line.data = None
                line.brought_by = p.cpu
                line.proc_mask = 1 << self._local_index(p.cpu)
                self._grant_cpu(p.cpu, line.addr, data, exclusive=True)
                self.stats.count("combined_requests", len(p.combined))
                return
            # ownership granted but no valid data anywhere on the station:
            # the rare special read request of §4.6
            self.stats.count("special_reads")
            p.op = MsgType.SPECIAL_READ
            p.inv_arrived = False
            self._send_home(line.addr, MsgType.SPECIAL_READ, p.cpu,
                            retry=False, phase=p.phase)
            return


class NumachineProtocol(CoherenceProtocol):
    """The paper's hierarchical write-back invalidate protocol."""

    name = "numachine"
    memory_class = NumachineMemory
    nc_class = NumachineNC

    #: (pre, post) pairs illegal between two *unlocked* observations —
    #: a valid-global line can never silently become home-exclusive
    illegal_mem = frozenset(
        {(LineState.GV, LineState.LV), (LineState.GI, LineState.LV)}
    )
    illegal_nc = frozenset(
        {(LineState.GV, LineState.LV), (LineState.GI, LineState.LV)}
    )
    valid_nc_states = (LineState.LV, LineState.GV)
    conformance_invariants = (
        "legal-transition",
        "locked-liveness",
        "proc-mask-coverage",
        "routing-mask-coverage",
        "sc-blocking",
        "single-writer",
        "writer-reader-exclusion",
        "nonsink-priority",
    )

    # ------------------------------------------------------------------
    # checker mask policy (moved verbatim from verify.checker)
    # ------------------------------------------------------------------
    def check_mem_masks(self, checker, mem, la: int, entry, pkt: Optional[Packet]) -> None:
        state = entry.state
        checks = checker.checks
        if state in self.valid_nc_states:  # LV or GV: memory's copy is valid
            checks["proc-mask-coverage"] = checks.get("proc-mask-coverage", 0) + 1
            pend = checker._pending_inval[mem.station_id].get(la)
            mask = entry.proc_mask
            for i, cpu in enumerate(mem.station.cpus):
                line = cpu.l2.lookup(la)
                if line is None or not line.state.readable:
                    continue
                if (mask >> i) & 1:
                    continue
                if pend is not None and cpu.cpu_id in pend:
                    continue
                checker._violate(
                    "proc-mask-coverage",
                    f"P{cpu.cpu_id} holds {line.state.value} but proc_mask "
                    f"{mask:#b} does not cover it",
                    la=la, where=f"mem@S{mem.station_id}", pkt=pkt,
                )
        if state is _GV:
            checks["routing-mask-coverage"] = checks.get("routing-mask-coverage", 0) + 1
            inflight = checker._inval_inflight
            for st in checker.machine.stations:
                if st.station_id == mem.station_id:
                    continue
                nline = st.nc.array.probe(la)
                if nline is None or nline.locked or nline.state not in self.valid_nc_states:
                    # a locked NC line is mid-transaction: its recorded state
                    # is not yet a stable claim the home mask must cover
                    continue
                if mem.directory.may_have_copy(entry, st.station_id):
                    continue
                if inflight[st.station_id].get(la):
                    continue  # stale copy with its invalidation in flight
                checker._violate(
                    "routing-mask-coverage",
                    f"S{st.station_id} NC holds {nline.state.value} but the "
                    f"routing mask would not deliver an invalidation there",
                    la=la, where=f"mem@S{mem.station_id}", pkt=pkt,
                )
        elif state is _GI:
            checks["routing-mask-coverage"] = checks.get("routing-mask-coverage", 0) + 1
            if mem.directory.sharer_mask(entry) == 0:
                checker._violate(
                    "routing-mask-coverage",
                    "GI line with an empty owner mask",
                    la=la, where=f"mem@S{mem.station_id}", pkt=pkt,
                )

    def check_nc_masks(self, checker, nc, la: int, line, pkt: Optional[Packet]) -> None:
        if line.state not in self.valid_nc_states:
            return
        checks = checker.checks
        checks["proc-mask-coverage"] = checks.get("proc-mask-coverage", 0) + 1
        pend = checker._pending_inval[nc.station_id].get(la)
        mask = line.proc_mask
        for i, cpu in enumerate(nc.station.cpus):
            l2 = cpu.l2.lookup(la)
            if l2 is None or not l2.state.readable:
                continue
            if (mask >> i) & 1:
                continue
            if pend is not None and cpu.cpu_id in pend:
                continue
            checker._violate(
                "proc-mask-coverage",
                f"P{cpu.cpu_id} holds {l2.state.value} but NC proc_mask "
                f"{mask:#b} does not cover it",
                la=la, where=f"nc@S{nc.station_id}", pkt=pkt,
            )
