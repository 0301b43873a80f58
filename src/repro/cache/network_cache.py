"""The network cache (NC) and its coherence engine (paper §3.1.4, Fig. 6).

The NC is a large direct-mapped DRAM cache shared by all processors on a
station, holding lines whose home memory is remote.  It provides the
paper's four effects, all measured by this module's statistics:

* **migration** — a line fetched by one processor is later hit by another;
* **caching** — a line written back / retained from a processor's own
  earlier use is hit again by that processor;
* **combining** — concurrent requests to the same remote line collapse into
  a single network request: later requesters are NACKed while the line is
  locked, and their retries hit locally once the response arrives;
* **coherence localization** — lines in LV/LI state are granted, read and
  written entirely within the station without contacting the home memory.

It also supplies the station's snooping-equivalent functionality: remote
interventions are answered from NC DRAM or by a bus intervention to the
owning secondary cache, and invalidations for ejected lines are broadcast
to all four processors.

:class:`BypassNC` is a pure forwarding agent with no storage: the flat
MSI protocol's NC, and every station's with ``nc_enabled=False`` — the
baseline for the NC ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.states import LineState
from ..interconnect.packet import MsgType, Packet, dispatch_table
from ..sim.engine import Engine, SimulationError, ns_to_ticks
from ..sim.fifo import Fifo
from ..sim.stats import StatGroup
from .nc_array import NCArray, NCLine

_WRITE_BACK = MsgType.WRITE_BACK


@dataclass(slots=True)
class NCPending:
    """In-flight transaction record for a locked NC line."""

    kind: str                      # 'fetch' | 'local_intervention' | 'intervention'
    op: Optional[MsgType] = None   # original processor request type
    cpu: Optional[int] = None      # global cpu id of the requester
    data: Optional[List] = None
    data_exclusive: bool = False
    inv_follows: Optional[bool] = None
    inv_arrived: bool = False
    copy_invalidated: bool = False  # a foreign invalidation hit us mid-flight
    combined: Set[int] = field(default_factory=set)
    retries: int = 0
    exclusive: bool = False        # for intervention kinds
    orig_pkt: Optional[Packet] = None
    first_issue: int = 0           # tick of the first (non-retry) issue
    phase: Optional[int] = None    # requester's phase register (§3.3 monitor)


class NetworkCache:
    """Per-station network cache: storage, plumbing and shared machinery.

    Like :class:`~repro.memory.memory_module.MemoryModule`, the coherence
    state machine lives in a protocol plug-in (:mod:`repro.protocol`): a
    subclass supplies the transition handlers and declares them in
    ``DISPATCH``.  This base keeps the NC array, the service loop, the
    intervention machinery, softctl handlers and the send helpers.
    """

    #: (MsgType name, handler method name) pairs — the protocol subclass's
    #: transition table for ring-side traffic
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
        self.array = NCArray(
            f"S{self.station_id}.nc", config.nc_size_bytes, config.line_bytes
        )
        from ..system.bus import OrderedPort

        self.out_port = OrderedPort(engine, station.bus)
        self.in_fifo = Fifo(f"S{self.station_id}.nc.in", capacity=None)
        self._busy = False
        self.stats = StatGroup(f"S{self.station_id}.nc")
        self.monitor = None
        #: transaction tracer (repro.obs), or None when tracing is off
        self.tracer = None
        #: invariant checker (repro.verify), or None when checking is off
        self.verifier = None
        self._tag_ticks = ns_to_ticks(config.nc_tag_ns)
        # hot-path tick values cached once (see MemoryModule)
        self._cmd_ticks = config.cmd_bus_ticks
        self._line_ticks = config.line_bus_ticks
        self._cpus_per_station = config.cpus_per_station
        self._line_flits = config.line_flits
        self._nc_read = ns_to_ticks(config.nc_dram_read_ns)
        self._nc_write = ns_to_ticks(config.nc_dram_write_ns)
        self._retry_ticks = 4 * config.nack_retry_cpu_cycles * config.cpu_cycle_ticks
        #: content key of the service-done event (see repro.sim.engine)
        self._done_key = ~engine.alloc_uid()
        engine.blocked_watchers.append(self._blocked_reason)

    # ==================================================================
    # serialization plumbing (mirrors the memory module)
    # ==================================================================
    def handle(self, pkt: Packet) -> None:
        """Entry for both bus-side and ring-side traffic; an idle NC's
        packet passes straight through its input FIFO (see
        MemoryModule.handle)."""
        engine = self.engine
        now = engine.now
        tr = self.tracer
        if tr is not None:
            tr.stamp_pkt(pkt, "nc.in", now)
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
        # Engine.schedule inlined (_tag_ticks is a non-negative constant)
        seq = engine._seq + 1
        engine._seq = seq
        engine._push((now + self._tag_ticks, 1, seq, self._service, pkt))

    def _service(self, pkt: Packet) -> None:
        engine = self.engine
        tr = self.tracer
        if tr is not None:
            tr.stamp_pkt(pkt, "nc.svc", engine.now)
        monitor = self.monitor
        if monitor is not None:
            monitor.record_txn("nc", self.station_id, pkt, self.array.probe(pkt.addr))
        mtype = pkt.mtype
        if pkt.meta.get("local"):
            if mtype is _WRITE_BACK:
                extra = self._on_local_writeback(pkt)
            else:
                extra = self._on_local_request(pkt)
        else:
            extra = self.HANDLERS[mtype._value_](self, pkt)
        v = self.verifier
        if v is not None:
            v.observe(self, pkt.addr, pkt)
        # The done event carries this module's content key: unique (the
        # _busy flag serializes services) and sorting below any counter key
        # at its tick.
        engine._push(
            (engine.now + (extra or 0), 1, self._done_key, _nc_service_done, self)
        )

    def _on_other(self, pkt: Packet) -> int:
        # imported on first use: only soft-control traffic reaches here
        from ..softctl import ops as softops

        return softops.nc_dispatch(self, pkt)

    # ==================================================================
    # request accounting (hit/miss/migration/caching counters)
    # ==================================================================
    def _count_hit_kind(self, line: NCLine, cpu: int) -> None:
        c = self.stats.counters
        c["requests"] = c.get("requests", 0) + 1
        c["hits"] = c.get("hits", 0) + 1
        if line.brought_by is not None and line.brought_by == cpu:
            c["caching_hits"] = c.get("caching_hits", 0) + 1
        else:
            c["migration_hits"] = c.get("migration_hits", 0) + 1

    def _count_miss(self) -> None:
        c = self.stats.counters
        c["requests"] = c.get("requests", 0) + 1
        c["misses"] = c.get("misses", 0) + 1

    # ==================================================================
    # local write-backs (dirty L2 evictions of remote lines)
    # ==================================================================
    def _forward_wb_home(self, addr: int, data: List) -> None:
        home = self.config.home_station(addr)
        wb = Packet(
            mtype=MsgType.WRITE_BACK, addr=addr,
            src_station=self.station_id,
            dest_mask=self.codec.station_mask(home),
            data=list(data), flits=self._line_flits,
        )
        self.stats.count("wb_forwarded")
        self._send_packet(wb, has_data=True)

    # ==================================================================
    # interventions from the home memory
    # ==================================================================
    def _on_intervention(self, pkt: Packet) -> int:
        exclusive = pkt.mtype is MsgType.INTERVENTION_EX
        if pkt.meta.get("false_remote"):
            self.stats.count("false_remotes")
        line = self.array.probe(pkt.addr)
        if line is None or line.state is LineState.GI or (
            line.locked and line.pending is not None and line.pending.kind == "fetch"
        ):
            self._broadcast_intervention(pkt, exclusive)
            return 0
        if line.locked:
            # an intervention is already being serviced; home will retry
            self._send_simple(MsgType.NACK_INTERVENTION, pkt)
            return 0
        if line.state is LineState.LV or (
            line.state is LineState.GV and line.data is not None
        ):
            data = list(line.data)
            self._answer_intervention(pkt, data, exclusive, line)
            return self._nc_read
        if line.state is LineState.LI:
            owner_idx = line.proc_mask.bit_length() - 1
            line.locked = True
            line.pending = NCPending(
                kind="intervention", exclusive=exclusive, orig_pkt=pkt
            )
            owner = self.station.cpus[owner_idx]
            self.out_port.send(
                0, self._cmd_ticks,
                lambda c=owner, a=pkt.addr, e=exclusive: c.handle_intervention(
                    a, e, lambda data, a2=a: self._local_intervention_done(a2, data)
                ),
            )
            return 0
        self._send_simple(MsgType.NACK_INTERVENTION, pkt)
        return 0

    def _broadcast_intervention(self, pkt: Packet, exclusive: bool) -> None:
        """NC lost (or never had) the owner info: ask every processor.

        The responder's copy is always *taken away* (exclusive against the
        processor) even for a read intervention: with no NC entry to record
        the would-be-downgraded sharer, a kept shared copy could never be
        invalidated again.  The reply to requester and home still follows
        the requested (shared/exclusive) semantics."""
        self.stats.count("intervention_broadcasts")
        cpus = list(self.station.cpus)
        results: List[Optional[List]] = []

        def on_reply(data, a=pkt.addr) -> None:
            results.append(data)
            if len(results) == len(cpus):
                found = next((d for d in results if d is not None), None)
                if found is not None:
                    self._answer_intervention(pkt, list(found), exclusive, None)
                else:
                    # Nothing here (any write-back is still in flight and will
                    # reach home on its own): bounce so the requester retries.
                    self._send_simple(MsgType.NACK_INTERVENTION, pkt)

        self.out_port.send(
            0, self._cmd_ticks,
            lambda: [
                c.handle_intervention(pkt.addr, True, on_reply) for c in cpus
            ],
        )

    def _answer_intervention(
        self, pkt: Packet, data: List, exclusive: bool, line: Optional[NCLine]
    ) -> None:
        home = pkt.meta["home"]
        req_station = pkt.meta["req_station"]
        prefetch = bool(pkt.meta.get("prefetch"))
        if exclusive:
            if line is not None:
                self._invalidate_local(pkt.addr, line.proc_mask, keep=None)
                line.proc_mask = 0
                line.state = LineState.GI
                line.data = None
            if req_station == home:
                resp = Packet(
                    mtype=MsgType.DATA_RESP_EX, addr=pkt.addr,
                    src_station=self.station_id,
                    dest_mask=self.codec.station_mask(home),
                    requester=pkt.requester, data=data,
                    flits=self._line_flits,
                    meta={"to_home": True, "txn": pkt.meta.get("txn")},
                )
                self._send_packet(resp, has_data=True)
            else:
                resp = Packet(
                    mtype=MsgType.DATA_RESP_EX, addr=pkt.addr,
                    src_station=self.station_id,
                    dest_mask=self.codec.station_mask(req_station),
                    requester=pkt.requester, data=data,
                    flits=self._line_flits,
                    meta={"inv_follows": False, "prefetch": prefetch},
                )
                self._send_packet(resp, has_data=True)
                ack = Packet(
                    mtype=MsgType.XFER_ACK, addr=pkt.addr,
                    src_station=self.station_id,
                    dest_mask=self.codec.station_mask(home),
                    requester=pkt.requester,
                    meta={"txn": pkt.meta.get("txn")},
                )
                self._send_packet(ack, has_data=False)
        else:
            if line is not None:
                line.state = LineState.GV
                line.data = list(data)
            if req_station == home:
                resp = Packet(
                    mtype=MsgType.DATA_RESP, addr=pkt.addr,
                    src_station=self.station_id,
                    dest_mask=self.codec.station_mask(home),
                    requester=pkt.requester, data=data,
                    flits=self._line_flits,
                    meta={"to_home": True, "txn": pkt.meta.get("txn")},
                )
                self._send_packet(resp, has_data=True)
            else:
                resp = Packet(
                    mtype=MsgType.DATA_RESP, addr=pkt.addr,
                    src_station=self.station_id,
                    dest_mask=self.codec.station_mask(req_station),
                    requester=pkt.requester, data=data,
                    flits=self._line_flits,
                    meta={"inv_follows": False, "prefetch": prefetch},
                )
                self._send_packet(resp, has_data=True)
                copy = Packet(
                    mtype=MsgType.DATA_RESP, addr=pkt.addr,
                    src_station=self.station_id,
                    dest_mask=self.codec.station_mask(home),
                    requester=pkt.requester, data=list(data),
                    flits=self._line_flits,
                    meta={"to_home": True, "txn": pkt.meta.get("txn")},
                )
                self._send_packet(copy, has_data=True)

    def _local_intervention_done(self, addr: int, data, from_wb: bool = False) -> None:
        line = self.array.probe(addr)
        if line is None or line.pending is None:
            return
        p = line.pending
        if data is None:
            # crossed with the owner's write-back; it will land here shortly
            return
        if p.kind == "local_intervention":
            line.locked = False
            line.pending = None
            if p.exclusive:
                # ownership moves between local caches; NC stays LI
                line.state = LineState.LI
                line.proc_mask = 1 << self._local_index(p.cpu)
                line.data = None
                self._grant_cpu(p.cpu, addr, list(data), exclusive=True)
            else:
                line.state = LineState.LV
                line.data = list(data)
                line.proc_mask |= 1 << self._local_index(p.cpu)
                self._grant_cpu(p.cpu, addr, list(data), exclusive=False)
        elif p.kind == "intervention":
            line.locked = False
            pkt = p.orig_pkt
            line.pending = None
            self._answer_intervention(pkt, list(data), p.exclusive, line)
        v = self.verifier
        if v is not None:
            v.observe(self, addr)

    # ==================================================================
    # eviction
    # ==================================================================
    def _eject(self, occupant: NCLine) -> None:
        """Direct-mapped replacement (fig 6 'Ejection' edges).

        Shared local copies (LV/GV) are invalidated on ejection: once the
        entry is gone (and possibly re-created for the same line) the NC can
        no longer name those sharers, so a later invalidation would miss
        them.  A dirty local copy (LI) is deliberately *kept* — losing only
        the directory info is what seeds the paper's false remote requests
        (§4.6, Table 3); it stays safe because interventions for untracked
        lines are broadcast to all processors."""
        self.stats.count("ejections")
        if occupant.state is LineState.LV:
            # NC is the owner of record: the data must go home
            if occupant.data is None:
                raise SimulationError(f"ejecting LV {occupant!r} without data")
            self._invalidate_local(occupant.addr, occupant.proc_mask, keep=None)
            self._forward_wb_home(occupant.addr, occupant.data)
        elif occupant.state is LineState.GV:
            self._invalidate_local(occupant.addr, occupant.proc_mask, keep=None)
        elif occupant.state is LineState.LI:
            self.stats.count("li_info_lost")
        self.array.evict(occupant.addr)

    # ==================================================================
    # softctl support
    # ==================================================================
    def _on_multicast_data(self, pkt: Packet) -> int:
        """Software multicast update (§3.2): adopt the new data, invalidating
        any local secondary-cache copies."""
        line = self.array.probe(pkt.addr)
        if line is None:
            occupant = self.array.occupant(pkt.addr)
            if occupant is not None and occupant.locked:
                return 0  # drop; multicasts are best-effort placement
            if occupant is not None:
                self._eject(occupant)
            line = NCLine(addr=pkt.addr, state=LineState.GV)
            self.array.insert(line)
        if line.locked:
            return 0
        self._invalidate_local(pkt.addr, line.proc_mask, keep=None)
        line.proc_mask = 0
        line.state = LineState.GV
        line.data = list(pkt.data)
        line.brought_by = None
        self.stats.count("multicast_fills")
        return self._nc_write

    def _on_kill(self, pkt: Packet) -> int:
        """Software kill: drop every local copy, dirty or not (§3.2)."""
        line = self.array.probe(pkt.addr)
        self._invalidate_local_all(pkt.addr, include_dirty=True)
        if line is not None and not line.locked:
            self.array.evict(pkt.addr)
        self.stats.count("kills")
        return 0

    # ==================================================================
    # helpers
    # ==================================================================
    def _local_index(self, global_cpu: int) -> int:
        return global_cpu % self._cpus_per_station

    def _cpu_has_copy(self, global_cpu: Optional[int], line_addr: int) -> bool:
        if global_cpu is None:
            return False
        cpu = self.station.cpu_by_global(global_cpu)
        line = cpu.l2.lookup(line_addr)
        return line is not None and line.state.readable

    def _nack_cpu(self, cpu: int, addr: int) -> None:
        # delivered as a data tuple (see repro.system.bus._bus_complete)
        c = self.station.cpu_by_global(cpu)
        self.out_port.send(0, self._cmd_ticks, (c, addr, None))

    def _grant_cpu(
        self, cpu: int, addr: int, data: Optional[List], exclusive: bool,
        delay: int = 0,
    ) -> None:
        c = self.station.cpu_by_global(cpu)
        ticks = self._cmd_ticks + (
            self._line_ticks if data is not None else 0
        )

        self.out_port.send(
            delay, ticks,
            lambda cc=c, a=addr, d=data, e=exclusive: cc.complete_fill(
                a, d, exclusive=e
            ),
        )

    def _invalidate_local(self, addr: int, proc_mask: int, keep: Optional[int]) -> None:
        if keep is not None:
            proc_mask &= ~(1 << self._local_index(keep))
        if proc_mask == 0:
            return
        victims = [
            self.station.cpus[i]
            for i in range(self._cpus_per_station)
            if proc_mask & (1 << i)
        ]
        v = self.verifier
        if v is not None:
            v.note_local_inval(self.station_id, addr, [c.cpu_id for c in victims])
        self.out_port.send(
            0, self._cmd_ticks,
            lambda vs=victims, a=addr: [
                c.invalidate_line(a, only_shared=True) for c in vs
            ],
        )

    def _invalidate_local_all(
        self, addr: int, keep: Optional[int] = None, include_dirty: bool = False
    ) -> None:
        """Broadcast invalidation to every local processor.  Shared copies
        only, unless ``include_dirty`` (software kill): a dirty copy means
        this station owns the line, which a current invalidation can never
        target — see _on_invalidate."""
        victims = [
            c for c in self.station.cpus
            if keep is None or c.cpu_id != keep
        ]
        v = self.verifier
        if v is not None:
            v.note_local_inval(self.station_id, addr, [c.cpu_id for c in victims])
        self.out_port.send(
            0, self._cmd_ticks,
            lambda vs=victims, a=addr, d=include_dirty: [
                c.invalidate_line(a, only_shared=not d) for c in vs
            ],
        )

    def _send_home(
        self, addr: int, op: MsgType, cpu: Optional[int], retry: bool,
        prefetch: bool = False, phase: Optional[int] = None,
    ) -> None:
        home = self.config.home_station(addr)
        req = Packet(
            mtype=op, addr=addr,
            src_station=self.station_id,
            dest_mask=self.codec.station_mask(home),
            requester=cpu,
        )
        meta = req.meta
        meta["retry"] = retry
        meta["prefetch"] = prefetch
        if phase is not None:
            # the requester's phase identifier travels with the transaction
            # so the home station's monitor can attribute it (§3.3)
            meta["phase"] = phase
        self._send_packet(req, has_data=False)

    def _send_simple(self, mtype: MsgType, orig: Packet) -> None:
        home = orig.meta.get("home", orig.src_station)
        pkt = Packet(
            mtype=mtype, addr=orig.addr,
            src_station=self.station_id,
            dest_mask=self.codec.station_mask(home),
            requester=orig.requester,
            meta={"txn": orig.meta.get("txn")},
        )
        self._send_packet(pkt, has_data=False)

    def _send_packet(self, pkt: Packet, has_data: bool, delay: int = 0) -> None:
        ticks = self._cmd_ticks + (
            self._line_ticks if has_data else 0
        )
        self.out_port.send(
            delay, ticks, lambda p=pkt: self.station.ring_interface.send(p)
        )

    def _blocked_reason(self) -> Optional[str]:
        stuck = [
            line for line in self.array.lines()
            if line.locked and line.pending is not None and line.pending.kind == "fetch"
        ]
        if stuck:
            return (
                f"S{self.station_id} NC has {len(stuck)} lines locked awaiting "
                f"remote responses: {stuck[:3]}"
            )
        return None


def _nc_service_done(nc: NetworkCache) -> None:
    """The service-done event: start the next queued packet, if any."""
    f = nc.in_fifo
    items = f._items
    if not items:
        nc._busy = False
        return
    engine = nc.engine
    now = engine.now
    # Fifo.pop inlined
    pkt, enq = items.popleft()
    f.wait_total += now - enq
    seq = engine._seq + 1
    engine._seq = seq
    engine._push((now + nc._tag_ticks, 1, seq, nc._service, pkt))


class BypassNC(NetworkCache):
    """No network cache: a pure forwarding agent with an always-empty array.

    The flat MSI protocol's NC, and every station's NC when
    ``nc_enabled=False`` (the NC ablation).  Every local miss goes straight
    to the home station and its response completes the matching pending
    record; a remote intervention finds no line, so it is answered by a
    processor broadcast.
    """

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

    def __init__(self, engine: Engine, config, station) -> None:
        super().__init__(engine, config, station)
        #: outstanding fetches keyed by (line_addr, cpu)
        self._pending: Dict[Tuple[int, Optional[int]], NCPending] = {}

    def _on_local_request(self, pkt: Packet) -> int:
        cpu = pkt.requester
        key = (pkt.addr, cpu)
        self._count_miss()
        if key in self._pending:
            # the processor retried while the fetch is still outstanding
            self._nack_cpu(cpu, pkt.addr)
            return 0
        p = NCPending(kind="fetch", op=pkt.mtype, cpu=cpu,
                      first_issue=self.engine.now,
                      phase=pkt.meta.get("phase"))
        self._pending[key] = p
        self._send_home(pkt.addr, pkt.mtype, cpu, retry=False, phase=p.phase)
        return 0

    def _on_local_writeback(self, pkt: Packet) -> int:
        self._forward_wb_home(pkt.addr, pkt.data)
        return 0

    def _on_data(self, pkt: Packet) -> int:
        key = (pkt.addr, pkt.requester)
        p = self._pending.get(key)
        if p is None:
            return 0
        p.data = list(pkt.data)
        p.data_exclusive = pkt.mtype is MsgType.DATA_RESP_EX
        p.inv_follows = bool(pkt.meta.get("inv_follows"))
        self._maybe_complete(key, p)
        return 0

    def _on_nack(self, pkt: Packet) -> int:
        p = self._pending.get((pkt.addr, pkt.requester))
        if p is not None:
            p.retries += 1
            self.engine.schedule(
                self._retry_ticks,
                lambda a=pkt.addr, c=pkt.requester, o=p.op, ph=p.phase:
                    self._send_home(a, o, c, retry=True, phase=ph),
            )
        return 0

    def _on_invalidate(self, pkt: Packet) -> int:
        if pkt.meta.get("writer_station") == self.station_id:
            key = (pkt.addr, pkt.requester)
            p = self._pending.get(key)
            if p is not None and p.op in (
                MsgType.READ_EX, MsgType.UPGRADE, MsgType.SPECIAL_READ
            ):
                p.inv_arrived = True
                self._invalidate_local_all(pkt.addr, keep=p.cpu)
                self._maybe_complete(key, p)
                return 0
        self._invalidate_local_all(pkt.addr)
        return 0

    def _on_multicast_data(self, pkt: Packet) -> int:
        """Software update multicast (§3.2) with no NC line to adopt it:
        nothing here names the local sharers, so invalidate every local
        copy; re-reads refetch the updated line from home, which adopted
        the data when the multicast reached it."""
        self._invalidate_local_all(pkt.addr)
        self.stats.count("multicast_fills")
        return 0

    def _maybe_complete(self, key, p: NCPending) -> None:
        if p.op is MsgType.READ:
            if p.data is None:
                return
        elif p.op is MsgType.UPGRADE and p.data is None:
            if not p.inv_arrived:
                return
            del self._pending[key]
            if self._cpu_has_copy(p.cpu, key[0]):
                self._grant_cpu(p.cpu, key[0], None, exclusive=True)
            else:
                self.stats.count("special_reads")
                p2 = NCPending(kind="fetch", op=MsgType.SPECIAL_READ,
                               cpu=p.cpu, phase=p.phase)
                self._pending[key] = p2
                self._send_home(key[0], MsgType.SPECIAL_READ, p.cpu,
                                retry=False, phase=p.phase)
            return
        else:
            if p.data is None:
                return
            if self.config.sc_locking and p.inv_follows and not p.inv_arrived:
                return
        del self._pending[key]
        self._grant_cpu(
            p.cpu, key[0], list(p.data),
            exclusive=p.op is not MsgType.READ,
        )

    def _blocked_reason(self) -> Optional[str]:
        if self._pending:
            return (
                f"S{self.station_id} NC(bypass) has {len(self._pending)} "
                "outstanding fetches"
            )
        return None
