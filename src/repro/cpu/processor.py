"""The processor module (paper §3.1.1).

Models an R4400-class CPU: in-order, blocking on its single outstanding
memory request, with a direct-mapped on-chip primary cache (L1) and a
direct-mapped external 1 MB secondary cache (L2).  The external agent's
FIFOs and formatting overhead are folded into the fixed
``l2_miss_detect`` / ``cpu_fill`` latencies.

Execution is driven by a workload generator (see :mod:`repro.cpu.ops`).
Cache hits are resolved synchronously in batches of ``config.cpu_batch``
ops per scheduler event — the fast path that keeps simulation cost
proportional to misses.  A Read or Write hit costs one iteration of the
batch loop in :meth:`Processor._step`: two array probes, a counter and
a tick charge.  Each probe is a cache array's ``lookup``, the bound
``get`` of its address-keyed line dict, so an L1 hit runs no Python
frame below ``_step`` (an L2 hit adds the L1 ``install``).  Array views
hand the loop the same ``Read`` op for the same word (see
:mod:`repro.cpu.ops`).  An invalidation arriving mid-batch takes effect
at the next batch boundary (tens of CPU cycles), far below the
protocol's latency scale; tests that check sequential-consistency
litmus outcomes run with ``cpu_batch=1`` where batching cannot reorder
anything.

The module also carries the interrupt register, the two (sense-alternating)
barrier registers, and the phase-identifier register of §3.2/§3.3.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..cache.base import CacheArray, CacheLine
from ..core.states import CacheState
from ..interconnect.packet import MsgType, Packet, next_pid
from ..sim.engine import Engine, SimulationError, ns_to_ticks
from ..sim.stats import StatGroup
from . import ops as O


_READ = MsgType.READ
_READ_EX = MsgType.READ_EX
_UPGRADE = MsgType.UPGRADE
_SHARED = CacheState.SHARED


def _cpu_send_request(cpu: "Processor") -> None:
    """Send ``cpu``'s pending miss to its station's memory module or NC.

    The request type is re-evaluated first: the line may have arrived or
    changed while the request waited.  Bound as ``Processor._send_request``;
    the NACK retry schedules it with the CPU as the event argument, so a
    retry allocates no bound method.
    """
    p = cpu._pending
    if p is None:
        return
    la = p["la"]
    line = cpu.l2.lookup(la)
    if p["kind"] == "read":
        if line is not None and line.state.readable:
            cpu._complete_locally()
            return
        # exclusive-only pages (§3.2 software-managed caching) never
        # take shared copies: a single cache owns the line at a time
        mtype = _READ_EX if p.get("exclusive_only") else _READ
    else:
        # a write or an atomic read-modify-write
        if line is not None and line.state.writable:
            cpu._complete_locally()
            return
        mtype = _UPGRADE if line is not None and line.state is _SHARED else _READ_EX
    st = cpu.station
    pkt = p.get("pkt")
    if pkt is None:
        pkt = Packet(
            mtype=mtype,
            addr=la,
            src_station=st.station_id,
            dest_mask=0,
            requester=cpu.cpu_id,
            meta={"local": True, "retry": False, "phase": cpu.phase},
        )
        p["pkt"] = pkt
    else:
        # NACKed and re-issued: the module dropped the previous attempt
        # synchronously (locked lines are never queued), so the same
        # packet object is safe to resend.  A fresh pid keeps every
        # network attempt distinguishable.
        pkt.mtype = mtype
        pkt.pid = next_pid()
        pkt.meta["retry"] = True
    # Station.module_for inlined
    home = la // cpu._station_mem_bytes
    if home == st.station_id:
        target = st.memory
    elif home < cpu._num_stations:
        target = st.nc
    else:
        raise ValueError(f"address {la:#x} beyond physical memory")
    tr = cpu.tracer
    if tr is not None:
        tr.stamp(cpu.cpu_id, "cpu.send", cpu.engine.now)
    # the delivery is a data tuple (see repro.system.bus._bus_complete)
    st.bus.request(cpu._cmd_ticks, (target, pkt))


class Processor:
    """One CPU + L1 + L2 + external agent."""

    def __init__(self, engine: Engine, config, cpu_id: int, station) -> None:
        self.engine = engine
        self.config = config
        self.cpu_id = cpu_id                      # global id
        self.station = station
        self.l1 = CacheArray(
            f"P{cpu_id}.l1", config.l1_size_bytes, config.line_bytes
        )
        self.l2 = CacheArray(
            f"P{cpu_id}.l2", config.l2_size_bytes, config.line_bytes
        )
        self.stats = StatGroup(f"P{cpu_id}")
        self.program = None
        self.finished_at: Optional[int] = None
        self.started = False
        self._resume_value: Any = None
        self._pending: Optional[dict] = None
        self._run: Optional[dict] = None          # active ReadRun/WriteRun
        self._request_start = 0
        # registers (§3.2)
        self.interrupt_reg = 0
        self.barrier_regs = [0, 0]                # sense-alternating pair
        self._barrier_wait: Optional[tuple] = None
        self.phase = 0
        self.on_finish: Optional[Callable[["Processor"], None]] = None
        self.on_interrupt: Optional[Callable[[int], None]] = None
        #: per-page software caching attributes accessor (set by Machine)
        self.page_attrs: Optional[Callable[[int], object]] = None
        #: transaction tracer (repro.obs), or None when tracing is off
        self.tracer = None
        #: invariant checker (repro.verify), or None when checking is off
        self.verifier = None
        # timing in ticks
        self._cpu = config.cpu_cycle_ticks
        self._l1_hit = config.l1_hit_cpu_cycles * self._cpu
        self._l2_hit = config.l2_hit_cpu_cycles * self._cpu
        self._miss_detect = ns_to_ticks(config.l2_miss_detect_ns)
        self._fill = ns_to_ticks(config.cpu_fill_ns)
        self._retry = config.nack_retry_cpu_cycles * self._cpu
        self._cmd_ticks = config.cmd_bus_ticks
        self._line_ticks = config.line_bus_ticks
        # home routing of a request (Station.module_for)
        self._station_mem_bytes = config.station_mem_bytes
        self._num_stations = config.num_stations
        # hit-path address helpers and counters, bound once: these run for
        # every batched cache hit, not just for misses
        self._line_mask = config.line_bytes - 1
        self._word_bytes = config.word_bytes
        self._reads_ctr = self.stats.counter("reads")
        self._writes_ctr = self.stats.counter("writes")
        self._rmws_ctr = self.stats.counter("rmws")
        self._program_send = None
        # per-kind miss counters, created lazily on first use so the stat
        # group's contents match the original creation order exactly
        self._miss_ctrs: Dict[str, Any] = {}
        engine.blocked_watchers.append(self._blocked_reason)

    # ==================================================================
    # program control
    # ==================================================================
    def set_program(self, program) -> None:
        self.program = program
        self._program_send = getattr(program, "send", None)
        self.finished_at = None
        self.started = False
        self.engine.schedule(0, self._step)

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    # ==================================================================
    # the execution loop
    # ==================================================================
    def _finish(self, extra_ticks: int) -> None:
        self.finished_at = self.engine.now + extra_ticks
        if self.on_finish is not None:
            self.engine.schedule(extra_ticks, lambda: self.on_finish(self))

    def _step(self) -> None:
        program = self.program
        if program is None or self.finished_at is not None:
            return
        cfg = self.config
        schedule = self.engine.schedule
        Read, Write, Compute, AtomicRMW = O.Read, O.Write, O.Compute, O.AtomicRMW
        acc = 0
        run = self._run
        if run is not None:
            acc = self._advance_run(run, 0)
            if acc is None:
                return
        # Read and Write hits resolve inside this loop.  The value sent
        # into the program lives in ``value`` and is stored back to
        # ``_resume_value`` on every exit from the loop.
        value = self._resume_value
        send = self._program_send if self.started else None
        l1 = self.l1
        l1_lookup, l2_lookup = l1.lookup, self.l2.lookup
        l1_hit, l2_hit = self._l1_hit, self._l2_hit
        lmask = self._line_mask
        wb = self._word_bytes
        for _ in range(cfg.cpu_batch):
            try:
                if send is not None:
                    v, value = value, None
                    op = send(v)
                elif self.started:
                    # plain iterators are fine for programs that ignore
                    # read values
                    value = None
                    op = next(program)
                else:
                    # the first op starts the program and leaves the resume
                    # value alone
                    self.started = True
                    send = self._program_send
                    op = next(program)
            except StopIteration:
                self._resume_value = value
                self._finish(acc)
                return
            cls = type(op)
            if cls is Read:
                addr = op.addr
                la = addr & ~lmask
                line = l2_lookup(la)
                if line is not None and line.state.readable:
                    self._reads_ctr.value += 1
                    if l1_lookup(la) is not None:
                        acc += l1_hit
                    else:
                        l1.install(la, line.state, None)
                        acc += l2_hit
                    value = line.data[(addr & lmask) // wb]
                    continue
                self._resume_value = value
                schedule(acc, self._issue, ("read", addr, None))
                return
            if cls is Write:
                addr = op.addr
                la = addr & ~lmask
                line = l2_lookup(la)
                if line is not None and line.state.writable:
                    self._writes_ctr.value += 1
                    if l1_lookup(la) is not None:
                        acc += l1_hit
                    else:
                        l1.install(la, line.state, None)
                        acc += l2_hit
                    line.data[(addr & lmask) // wb] = op.value
                    continue
                self._resume_value = value
                schedule(acc, self._issue, ("write", addr, op.value))
                return
            if cls is Compute:
                acc += int(op.cycles * cfg.compute_scale) * self._cpu
                continue
            if cls is O.ReadRun:
                stride = op.stride or self._word_bytes
                run = self._run = {
                    "kind": "read", "addr": op.addr, "stride": stride,
                    "end": op.addr + op.count * stride,
                    "out": [], "values": None, "vi": 0, "awaiting": False,
                }
                self._resume_value = value
                acc = self._advance_run(run, acc)
                if acc is None:
                    return
                value = self._resume_value
                continue
            if cls is O.WriteRun:
                stride = op.stride or self._word_bytes
                vals = op.values
                run = self._run = {
                    "kind": "write", "addr": op.addr, "stride": stride,
                    "end": op.addr + len(vals) * stride,
                    "out": None, "values": vals, "vi": 0, "awaiting": False,
                }
                self._resume_value = value
                acc = self._advance_run(run, acc)
                if acc is None:
                    return
                value = self._resume_value
                continue
            if cls is AtomicRMW:
                hit, ticks, old = self._try_rmw(op.addr, op.fn)
                if hit:
                    acc += ticks
                    value = old
                    continue
                self._resume_value = value
                schedule(acc, self._issue, ("rmw", op.addr, op.fn))
                return
            if cls is O.Barrier:
                self._resume_value = value
                schedule(acc, self._do_barrier, op)
                return
            if cls is O.Phase:
                self.phase = op.pid
                continue
            if cls is O.SoftOp:
                self._resume_value = value
                schedule(acc, self._do_softop, op)
                return
            raise SimulationError(f"unknown op {op!r} from program on P{self.cpu_id}")
        self._resume_value = value
        schedule(max(acc, 1), self._step)

    # ------------------------------------------------------------------
    # cache fast paths
    # ------------------------------------------------------------------
    def _word_index(self, addr: int) -> int:
        return (addr & self._line_mask) // self._word_bytes

    def _try_rmw(self, addr: int, fn):
        la = addr & ~self._line_mask
        line = self.l2.lookup(la)
        if line is not None and line.state.writable:
            self._rmws_ctr.value += 1
            idx = (addr & self._line_mask) // self._word_bytes
            old = line.data[idx]
            line.data[idx] = fn(old)
            return True, self._l2_hit, old
        return False, 0, None

    # ------------------------------------------------------------------
    # hit-run batching (ReadRun / WriteRun)
    # ------------------------------------------------------------------
    def _advance_run(self, run: dict, acc: int):
        """Advance the active access run by whole cache lines.

        Hits are charged closed-form per line: the first touch pays the
        L1-or-L2 hit latency, every further word covered by the run pays an
        L1 hit — identical, tick for tick, to yielding the same accesses one
        op at a time, but at one Python iteration per line.  Counters and
        data movement also match the word-by-word loop exactly.

        Returns the accumulated tick count when the run completes; returns
        ``None`` when it suspended (a miss was issued through the normal
        miss path, or the per-event line budget ran out and a continuation
        was scheduled) — the caller must return immediately.
        """
        stride = run["stride"]
        wb = self._word_bytes
        if stride % wb:
            raise SimulationError(
                f"run stride {stride} is not a multiple of the word size"
            )
        addr = run["addr"]
        end = run["end"]
        read = run["kind"] == "read"
        if run["awaiting"]:
            # the word that missed was completed by the fill; consume it
            run["awaiting"] = False
            if read:
                run["out"].append(self._resume_value)
                self._resume_value = None
            else:
                run["vi"] += 1
            addr += stride
        lmask = self._line_mask
        l1 = self.l1
        l2 = self.l2
        l1_hit = self._l1_hit
        step = stride // wb
        # each line consumed in one iteration counts as one batched op
        budget = self.config.cpu_batch
        while addr < end:
            if budget <= 0:
                run["addr"] = addr
                self.engine.schedule(max(acc, 1), self._step)
                return None
            budget -= 1
            la = addr & ~lmask
            line = l2.lookup(la)
            if line is None or not (
                line.state.readable if read else line.state.writable
            ):
                run["addr"] = addr
                run["awaiting"] = True
                if read:
                    self.engine.schedule(acc, self._issue, ("read", addr, None))
                else:
                    self.engine.schedule(
                        acc, self._issue, ("write", addr, run["values"][run["vi"]])
                    )
                return None
            # accesses of this run that land on this line
            span = min(end, la + lmask + 1) - addr
            n = (span + stride - 1) // stride
            if l1.lookup(la) is not None:
                acc += n * l1_hit
            else:
                l1.install(la, line.state, None)
                acc += self._l2_hit + (n - 1) * l1_hit
            w0 = (addr & lmask) // wb
            data = line.data
            if read:
                self._reads_ctr.value += n
                if step == 1:
                    run["out"].extend(data[w0:w0 + n])
                else:
                    run["out"].extend(data[w0:w0 + (n - 1) * step + 1:step])
            else:
                self._writes_ctr.value += n
                vi = run["vi"]
                vals = run["values"]
                if step == 1:
                    data[w0:w0 + n] = vals[vi:vi + n]
                else:
                    data[w0:w0 + (n - 1) * step + 1:step] = vals[vi:vi + n]
                run["vi"] = vi + n
            addr += n * stride
        self._run = None
        if read:
            self._resume_value = run["out"]
        return acc

    # ------------------------------------------------------------------
    # miss path
    # ------------------------------------------------------------------
    def _issue(self, spec) -> None:
        kind, addr, payload = spec
        la = self.config.line_addr(addr)
        attrs = self.page_attrs(addr) if self.page_attrs is not None else None
        if attrs is not None and not attrs.cacheable:
            self._issue_uncached(kind, addr, payload)
            return
        self._pending = {
            "kind": kind,
            "addr": addr,
            "la": la,
            "payload": payload,
            "exclusive_only": bool(attrs is not None and attrs.exclusive_only),
        }
        self._request_start = self.engine.now
        ctr = self._miss_ctrs.get(kind)
        if ctr is None:
            ctr = self._miss_ctrs[kind] = self.stats.counter(f"{kind}_misses")
        ctr.value += 1
        tr = self.tracer
        if tr is not None:
            tr.begin(self.cpu_id, kind, la, self.engine.now)
        v = self.verifier
        if v is not None:
            v.cpu_issue(self, la)
        self.engine.schedule(self._miss_detect, self._send_request)

    #: send the pending miss (see :func:`_cpu_send_request`)
    _send_request = _cpu_send_request

    def _complete_locally(self) -> None:
        """The miss resolved while queued (e.g. a fill raced ahead)."""
        p = self._pending
        self._pending = None
        tr = self.tracer
        if tr is not None:
            # no network transaction and no latency sample: drop the trace
            tr.abandon(self.cpu_id)
        v = self.verifier
        if v is not None:
            v.cpu_local_complete(self)
        la, addr = p["la"], p["addr"]
        line = self.l2.lookup(la)
        idx = self._word_index(addr)
        if p["kind"] == "read":
            self._resume_value = line.data[idx]
        elif p["kind"] == "write":
            line.data[idx] = p["payload"]
        else:
            old = line.data[idx]
            line.data[idx] = p["payload"](old)
            self._resume_value = old
        self.engine.schedule(self._l2_hit, self._step)

    # ------------------------------------------------------------------
    # responses from memory / network cache
    # ------------------------------------------------------------------
    def complete_fill(self, la: int, data: Optional[List], exclusive: bool) -> None:
        p = self._pending
        if p is None or p["la"] != la:
            # a grant we no longer wait for (e.g. duplicate); install data
            if data is not None:
                self._install(la, data, exclusive)
                v = self.verifier
                if v is not None:
                    v.cpu_fill(self, la, exclusive, consumed=False)
            return
        self._pending = None
        if data is None:
            # upgrade ack: promote the shared copy in place
            line = self.l2.lookup(la)
            if line is None or not line.state.readable:
                raise SimulationError(
                    f"P{self.cpu_id}: upgrade ack for {la:#x} without a copy"
                )
            line.state = CacheState.DIRTY
            l1 = self.l1.lookup(la)
            if l1 is not None:
                l1.state = CacheState.DIRTY
        else:
            self._install(la, data, exclusive)
        v = self.verifier
        if v is not None:
            v.cpu_fill(self, la, exclusive, consumed=True)
        line = self.l2.lookup(la)
        addr, idx = p["addr"], self._word_index(p["addr"])
        if p["kind"] == "read":
            self._resume_value = line.data[idx]
        elif p["kind"] == "write":
            if not exclusive:
                raise SimulationError("write completed without exclusivity")
            line.data[idx] = p["payload"]
        else:  # rmw
            old = line.data[idx]
            line.data[idx] = p["payload"](old)
            self._resume_value = old
        # permission-only acks restart quickly; line fills pay the full
        # external-agent + cache-fill pipeline
        restart = self._fill if data is not None else 2 * self._cpu
        self.stats.accumulator(f"{p['kind']}_latency").add(
            self.engine.now + restart - self._request_start
        )
        tr = self.tracer
        if tr is not None:
            # closed at the same instant the latency accumulator samples, so
            # a trace's span-chain total equals the recorded latency exactly
            tr.finish(self.cpu_id, self.engine.now + restart)
        self.engine.schedule(restart, self._step)

    def _install(self, la: int, data: List, exclusive: bool) -> None:
        state = CacheState.DIRTY if exclusive else CacheState.SHARED
        victim = self.l2.install(la, state, list(data))
        self.l1.install(la, state, None)
        if victim is not None:
            self.l1.invalidate(victim.addr)
            if victim.state is CacheState.DIRTY:
                self._write_back(victim)

    def _write_back(self, victim: CacheLine) -> None:
        self.stats.counter("writebacks").incr()
        target = self.station.module_for(victim.addr)
        wb = Packet(
            mtype=MsgType.WRITE_BACK,
            addr=victim.addr,
            src_station=self.station.station_id,
            dest_mask=0,
            requester=self.cpu_id,
            data=list(victim.data),
            meta={"local": True},
        )
        self.station.bus.request(
            self._cmd_ticks + self._line_ticks,
            lambda start, t=target, k=wb: t.handle(k),
        )

    # ------------------------------------------------------------------
    # uncached word accesses (cacheable=False pages, §3.2)
    # ------------------------------------------------------------------
    def _issue_uncached(self, kind: str, addr: int, payload) -> None:
        self.stats.counter("uncached_ops").incr()
        home = self.config.home_station(addr)
        local = home == self.station.station_id
        if kind == "rmw":
            raise SimulationError("atomic RMW requires a cacheable page")
        if kind == "write":
            pkt = Packet(
                mtype=MsgType.WRITE_UNCACHED, addr=addr,
                src_station=self.station.station_id, dest_mask=0,
                requester=self.cpu_id, data=payload, meta={"local": local},
            )
            # posted write: the program continues as soon as it is sent
            self._dispatch_uncached(pkt, local, home)
            self.engine.schedule(self._cpu, self._step)
            return
        self._pending = {"kind": "ucread", "addr": addr, "la": None,
                         "payload": None}
        self._request_start = self.engine.now
        pkt = Packet(
            mtype=MsgType.READ_UNCACHED, addr=addr,
            src_station=self.station.station_id, dest_mask=0,
            requester=self.cpu_id, meta={"local": local},
        )
        self._dispatch_uncached(pkt, local, home)

    def _dispatch_uncached(self, pkt: Packet, local: bool, home: int) -> None:
        if local:
            self.station.bus.request(
                self._cmd_ticks,
                lambda start, p=pkt: self.station.memory.handle(p),
            )
        else:
            pkt.dest_mask = self.station.codec.station_mask(home)
            self.station.bus.request(
                self._cmd_ticks,
                lambda start, p=pkt: self.station.ring_interface.send(p),
            )

    def complete_uncached(self, addr: int, value) -> None:
        p = self._pending
        if p is None or p["kind"] != "ucread" or p["addr"] != addr:
            return
        self._pending = None
        self._resume_value = value
        self.stats.accumulator("uncached_latency").add(
            self.engine.now - self._request_start
        )
        self.engine.schedule(2 * self._cpu, self._step)

    def nack_from_module(self, la: int) -> None:
        p = self._pending
        if p is None or p["la"] != la:
            return
        self.stats.counter("retries").incr()
        engine = self.engine
        tr = self.tracer
        if tr is not None:
            tr.retry(self.cpu_id, engine.now)
        # Engine.schedule inlined, with the CPU as the event argument
        seq = engine._seq + 1
        engine._seq = seq
        engine._push((engine.now + self._retry, 1, seq, _cpu_send_request, self))

    # ------------------------------------------------------------------
    # coherence actions against this CPU's caches
    # ------------------------------------------------------------------
    def invalidate_line(self, la: int, only_shared: bool = False) -> None:
        v = self.verifier
        if v is not None:
            v.cpu_invalidated(self, la)
        if only_shared:
            line = self.l2.lookup(la)
            if line is not None and line.state is CacheState.DIRTY:
                # a dirty copy means this processor owns the line; the
                # invalidation is from an older epoch (see the NC's
                # stale-owner rule) and must not destroy the data
                self.stats.counter("stale_invalidations_ignored").incr()
                return
        self.l1.invalidate(la)
        self.l2.invalidate(la)
        self.stats.counter("invalidations_received").incr()

    def handle_intervention(
        self, la: int, exclusive: bool, respond: Callable[[Optional[List]], None]
    ) -> None:
        """Memory/NC asks for this CPU's dirty copy.  Responds over the bus
        with the data (or None if the copy is gone — a write-back race)."""
        line = self.l2.lookup(la)
        if line is None or line.state is not CacheState.DIRTY:
            respond(None)
            return
        data = list(line.data)
        if exclusive:
            self.invalidate_line(la)
        else:
            self.l2.downgrade(la)
            l1 = self.l1.lookup(la)
            if l1 is not None:
                l1.state = CacheState.SHARED
        self.stats.counter("interventions").incr()
        # the CPU drives the data onto the bus
        self.station.bus.request(
            self._cmd_ticks + self._line_ticks,
            lambda start, d=data: respond(d),
        )

    # ------------------------------------------------------------------
    # barriers / interrupts (§3.2)
    # ------------------------------------------------------------------
    def _do_barrier(self, op: O.Barrier) -> None:
        sense = op.bid & 1
        # grouped by station once per distinct cpus tuple per machine; the
        # packet carries the groups, so each station walks only its own cpus
        full, dest_mask, groups = self.station.barrier_plan(tuple(op.cpus))
        pkt = Packet(
            mtype=MsgType.BARRIER_WRITE,
            addr=0,
            src_station=self.station.station_id,
            dest_mask=dest_mask,
            requester=self.cpu_id,
            meta={"groups": groups, "bit": 1 << self.cpu_id, "sense": sense},
        )
        self._barrier_wait = (sense, full)
        self.stats.counter("barriers").incr()
        self.station.bus.request(
            self._cmd_ticks,
            lambda start, k=pkt: self.station.ring_interface.send(k),
        )
        # writing no bit runs the release check alone
        self.barrier_write(0, sense)

    def barrier_write(self, bit: int, sense: int) -> None:
        """A barrier-register write (one bit of a BARRIER_WRITE multicast),
        then the release check: once every bit the waiting barrier needs is
        set, clear them and resume.  The one copy of the release rule, and
        one frame per write."""
        regs = self.barrier_regs
        regs[sense] |= bit
        wait = self._barrier_wait
        if wait is None:
            return
        sense, full = wait
        if regs[sense] & full == full:
            regs[sense] &= ~full
            self._barrier_wait = None
            # one cycle to notice the register (local spin, no traffic)
            self.engine.schedule(self._cpu, self._step)

    def raise_interrupt(self, bits: int) -> None:
        self.interrupt_reg |= bits
        if self.on_interrupt is not None:
            self.on_interrupt(bits)

    def read_interrupt_reg(self) -> int:
        """Reading clears the register (§3.2)."""
        v = self.interrupt_reg
        self.interrupt_reg = 0
        return v

    # ------------------------------------------------------------------
    def _do_softop(self, op: O.SoftOp) -> None:
        from ..softctl import ops as softops

        softops.cpu_softop(self, op)

    def resume(self, value: Any = None, delay: int = 0) -> None:
        """Used by softctl completions to restart the program."""
        self._resume_value = value
        self.engine.schedule(delay, self._step)

    def _blocked_reason(self) -> Optional[str]:
        if self.done or self.program is None:
            return None
        if self._pending is not None:
            return (
                f"P{self.cpu_id} blocked on {self._pending['kind']} "
                f"{self._pending['la']:#x}"
            )
        if self._barrier_wait is not None:
            return f"P{self.cpu_id} blocked at barrier"
        return None
