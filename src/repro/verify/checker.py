"""The coherence invariant checker (see the package docstring).

Design constraints, in order:

1. **Read-only.**  The checker may look at any simulation state but never
   changes it, never schedules events and never draws from shared id/rng
   streams — this is what makes checked runs bit-identical to unchecked
   ones.
2. **Transient-aware.**  The protocol *by design* lets stale copies
   outlive a write (ack-free ordered invalidation: the writer proceeds
   once the multicast reaches its own station; downstream sharers see it
   later).  Naive "no readers while a writer exists" would fire on every
   contended write.  Each invariant below is formulated at a point where
   the protocol's own ordering makes it exact, with checker-maintained
   shadow sets covering the in-flight invalidation windows.
3. **Cheap.**  Checks touch only the line the current event is about plus
   the small per-station cache arrays; nothing scans the whole machine
   except the single-writer check at exclusive installs (misses only).
   The budget per memory or NC transaction is one Python frame
   (:meth:`CoherenceChecker.observe`, plus the plug-in's mask check when
   the line is unlocked) and a few dict operations: line state lives in
   per-module maps keyed by line address, counts are bumped in place, and
   violation messages are formatted only when a check fails.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional, Set, Tuple

from ..core.states import CacheState, LineState
from ..interconnect.packet import MsgType, Packet
from ..sim.engine import SimulationError

_INVALIDATE = MsgType.INVALIDATE
_DIRTY = CacheState.DIRTY


class InvariantViolation(SimulationError):
    """A protocol invariant did not hold.

    Carries enough context to reproduce and localize the failure:
    ``invariant`` (the rule name), ``line_addr`` (the guilty line),
    ``where`` (module description), ``trace_id`` (packet pid that
    triggered the check, if any), ``seed`` (the run's replay seed, set by
    the harness via :meth:`CoherenceChecker.set_seed`), plus the engine
    ``now`` / ``events_run`` at detection time.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        line_addr: Optional[int] = None,
        where: str = "?",
        now: int = 0,
        events_run: int = 0,
        trace_id: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.invariant = invariant
        self.line_addr = line_addr
        self.where = where
        self.now = now
        self.events_run = events_run
        self.trace_id = trace_id
        self.seed = seed
        line = f"{line_addr:#x}" if line_addr is not None else "?"
        super().__init__(
            f"[{invariant}] {message} (line={line} at={where} now={now} "
            f"events={events_run} pid={trace_id} seed={seed})"
        )


def _default_policy():
    """Fallback mask/transition policy for checkers attached before a
    machine resolved its protocol (direct unit-test construction)."""
    from ..protocol import get_protocol

    return get_protocol("numachine")


class _LineLog:
    """What the checker knows of one module's lines (a home directory or a
    network cache).

    ``lookup(la)`` is the module's record of a line (the directory's
    ``peek``, the NC array's ``probe``: bound dict ``get`` methods), or
    ``None`` for a network cache in bypass mode, which holds no lines.
    ``last`` maps each observed line to its last observed state.
    ``since`` maps each line whose last observation found it locked to
    the tick of the first observation of that locked dwell, so a line was
    locked when last seen exactly when it has a ``since`` entry.
    ``illegal`` is the plug-in's unlocked-transition blacklist for this
    kind of module, ``where`` names the module in violation messages and
    ``check`` is the plug-in's mask check for an unlocked line.
    """

    __slots__ = ("lookup", "last", "since", "illegal", "where", "check")

    def __init__(self, lookup, illegal, where: str, check) -> None:
        self.lookup = lookup
        self.last: Dict[int, LineState] = {}
        self.since: Dict[int, int] = {}
        self.illegal = illegal
        self.where = where
        self.check = check


class CoherenceChecker:
    """Runtime invariant checker attached across a whole machine."""

    def __init__(
        self,
        max_locked_ticks: int = 3_000_000,
        seed: Optional[int] = None,
    ) -> None:
        #: locked-liveness bound: a line continuously locked for more sim
        #: ticks than this (~1 ms at the default 3 ticks/ns) is stuck
        self.max_locked_ticks = max_locked_ticks
        self.seed = seed
        self.machine = None
        #: mask/transition policy: the machine's coherence-protocol plug-in
        #: (set at attach; per-protocol invariants live on the plug-in)
        self._policy = None
        #: per-invariant count of checks performed (not violations)
        self.checks: Dict[str, int] = {}
        #: memory module / network cache -> its line log (set at attach)
        self._logs: Dict[object, _LineLog] = {}
        #: per station id, line -> cpu ids with a bus invalidation
        #: delivered after the mask cleared
        self._pending_inval: List[Dict[int, Set[int]]] = []
        #: per station id, line -> ordered-multicast invalidations in flight
        self._inval_inflight: List[Dict[int, int]] = []
        # outstanding miss per cpu: cpu_id -> (line, issue_tick)
        self._cpu_out: Dict[int, Tuple[int, int]] = {}
        self._last_complete: Dict[int, int] = {}
        self._engine = None
        self._line_mask = 0
        #: every CPU's ``l2.lookup``, in ``machine.cpus`` order
        self._l2_lookups: List = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, machine) -> "CoherenceChecker":
        """Install the checker on every hook point of ``machine``."""
        self.machine = machine
        self._engine = machine.engine
        self._line_mask = ~(machine.config.line_bytes - 1)
        policy = self._policy = getattr(machine, "protocol", None) or _default_policy()
        machine.verifier = self
        for cpu in machine.cpus:
            cpu.verifier = self
        self._l2_lookups = [cpu.l2.lookup for cpu in machine.cpus]
        self._logs = {}
        for st in machine.stations:
            sid, mem, nc = st.station_id, st.memory, st.nc
            self._logs[mem] = _LineLog(
                mem.directory.peek, policy.illegal_mem, f"mem@S{sid}",
                policy.check_mem_masks,
            )
            self._logs[nc] = _LineLog(
                nc.array.probe if nc.enabled else None, policy.illegal_nc,
                f"nc@S{sid}", policy.check_nc_masks,
            )
            mem.verifier = nc.verifier = st.ring_interface.verifier = self
        self._pending_inval = [{} for _ in machine.stations]
        self._inval_inflight = [{} for _ in machine.stations]
        return self

    def detach(self) -> None:
        machine = self.machine
        if machine is None:
            return
        machine.verifier = None
        for cpu in machine.cpus:
            cpu.verifier = None
        for st in machine.stations:
            st.memory.verifier = None
            st.nc.verifier = None
            st.ring_interface.verifier = None
        self.machine = None

    def set_seed(self, seed: Optional[int]) -> None:
        """Record the replay seed violations should carry."""
        self.seed = seed

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _violate(
        self,
        invariant: str,
        message: str,
        *,
        la: Optional[int] = None,
        where: str = "?",
        pkt: Optional[Packet] = None,
    ) -> None:
        engine = self.machine.engine if self.machine is not None else None
        raise InvariantViolation(
            invariant,
            message,
            line_addr=la,
            where=where,
            now=engine.now if engine is not None else 0,
            events_run=engine.events_run if engine is not None else 0,
            trace_id=pkt.pid if pkt is not None else None,
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    # memory module and network cache hook
    # ------------------------------------------------------------------
    def observe(self, module, addr: int, pkt: Optional[Packet] = None) -> None:
        """``module`` (a memory module or a network cache) dispatched
        ``pkt`` for ``addr``, or changed that line outside a dispatch
        (``pkt`` None: a bus intervention answer landed).

        Checks the line's transition and lock dwell against the last
        observation, then, on an unlocked line, the plug-in's masks."""
        la = addr & self._line_mask
        log = self._logs[module]
        if pkt is not None and pkt.mtype is _INVALIDATE:
            self._inval_delivered(module.station_id, la)
        lookup = log.lookup
        if lookup is None:
            return
        rec = lookup(la)
        last = log.last
        if rec is None:
            # line evicted / never present: epoch reset
            if last.pop(la, None) is not None:
                log.since.pop(la, None)
            return
        state = rec.state
        locked = rec.locked
        since = log.since
        checks = self.checks
        checks["legal-transition"] = checks.get("legal-transition", 0) + 1
        pstate = last.get(la)
        if pstate is not state:
            # only a change of state can be an illegal transition
            if pstate is not None:
                if la in since:
                    if locked:
                        self._violate(
                            "legal-transition",
                            f"locked line changed state {pstate.value}->{state.value}",
                            la=la, where=log.where, pkt=pkt,
                        )
                elif (pstate, state) in log.illegal:
                    self._violate(
                        "legal-transition",
                        f"illegal transition {pstate.value}->{state.value}",
                        la=la, where=log.where, pkt=pkt,
                    )
            last[la] = state
        checks["locked-liveness"] = checks.get("locked-liveness", 0) + 1
        if locked:
            now = self._engine.now
            first = since.setdefault(la, now)
            if now - first > self.max_locked_ticks:
                self._violate(
                    "locked-liveness",
                    f"line locked for {now - first} ticks "
                    f"(bound {self.max_locked_ticks})",
                    la=la, where=log.where, pkt=pkt,
                )
        else:
            since.pop(la, None)
            # what a valid mask *is* depends on the protocol (hierarchical
            # routing masks vs a flat full map): the plug-in owns the rule
            log.check(self, module, la, rec, pkt)

    def note_invalidate_sent(self, mem, inv: Packet) -> None:
        """Home memory launched an ordered-multicast invalidation."""
        la = inv.addr & self._line_mask
        inflight = self._inval_inflight
        for s in mem.codec.stations(inv.dest_mask):
            counts = inflight[s]
            counts[la] = counts.get(la, 0) + 1

    def _inval_delivered(self, station_id: int, la: int) -> None:
        counts = self._inval_inflight[station_id]
        n = counts.get(la)
        if n is not None:
            if n <= 1:
                del counts[la]
            else:
                counts[la] = n - 1

    # ------------------------------------------------------------------
    # local bus invalidation shadow
    # ------------------------------------------------------------------
    def note_local_inval(self, station_id: int, addr: int, cpu_ids) -> None:
        """A module cleared mask bits and put an invalidation on the bus;
        until each victim processes it, its copy is legitimately uncovered."""
        la = addr & self._line_mask
        pending = self._pending_inval[station_id]
        pend = pending.get(la)
        if pend is None:
            pend = pending[la] = set()
        pend.update(cpu_ids)

    def cpu_invalidated(self, cpu, la: int) -> None:
        """A bus invalidation reached ``cpu`` (whatever its outcome)."""
        pending = self._pending_inval[cpu.station.station_id]
        pend = pending.get(la)
        if pend is not None:
            pend.discard(cpu.cpu_id)
            if not pend:
                del pending[la]

    # ------------------------------------------------------------------
    # processor hooks (sc-blocking + single-writer)
    # ------------------------------------------------------------------
    def cpu_issue(self, cpu, la: int) -> None:
        checks = self.checks
        checks["sc-blocking"] = checks.get("sc-blocking", 0) + 1
        cpu_id = cpu.cpu_id
        out = self._cpu_out.get(cpu_id)
        if out is not None:
            self._violate(
                "sc-blocking",
                f"P{cpu_id} issued a miss for {la:#x} while "
                f"{out[0]:#x} (issued at {out[1]}) is still outstanding",
                la=la, where=f"P{cpu_id}",
            )
        self._cpu_out[cpu_id] = (la, self._engine.now)

    def cpu_local_complete(self, cpu) -> None:
        self._cpu_out.pop(cpu.cpu_id, None)

    def cpu_fill(self, cpu, la: int, exclusive: bool, consumed: bool) -> None:
        checks = self.checks
        if consumed:
            checks["sc-blocking"] = checks.get("sc-blocking", 0) + 1
            self._cpu_out.pop(cpu.cpu_id, None)
            now = self._engine.now
            last = self._last_complete.get(cpu.cpu_id)
            if last is not None and now < last:
                self._violate(
                    "sc-blocking",
                    f"P{cpu.cpu_id} completed at {now} before its previous "
                    f"completion at {last}",
                    la=la, where=f"P{cpu.cpu_id}",
                )
            self._last_complete[cpu.cpu_id] = now
        checks["single-writer"] = checks.get("single-writer", 0) + 1
        station = cpu.station
        if exclusive:
            # only the CPUs whose L2 holds the line, in machine order (each
            # L2's ``lookup`` is a bound dict get, so a probe is one call)
            found = [lookup(la) for lookup in self._l2_lookups]
            for other in compress(self.machine.cpus, found):
                if other is cpu:
                    continue
                line = other.l2.lookup(la)
                if line.state is _DIRTY:
                    self._violate(
                        "single-writer",
                        f"P{cpu.cpu_id} installed DIRTY while P{other.cpu_id} "
                        f"also holds the line DIRTY",
                        la=la, where=f"P{cpu.cpu_id}",
                    )
                if other.station is station and line.state.readable:
                    checks["writer-reader-exclusion"] = checks.get("writer-reader-exclusion", 0) + 1
                    self._violate(
                        "writer-reader-exclusion",
                        f"P{cpu.cpu_id} installed DIRTY while same-station "
                        f"P{other.cpu_id} holds {line.state.value}",
                        la=la, where=f"P{cpu.cpu_id}",
                    )
            if station.nc.enabled:
                nline = station.nc.array.probe(la)
                if nline is not None and not nline.locked \
                        and nline.state in self._policy.valid_nc_states:
                    self._violate(
                        "single-writer",
                        f"P{cpu.cpu_id} installed DIRTY while its NC still "
                        f"claims {nline.state.value}",
                        la=la, where=f"P{cpu.cpu_id}",
                    )
        else:
            checks["writer-reader-exclusion"] = checks.get("writer-reader-exclusion", 0) + 1
            for other in station.cpus:
                if other is cpu:
                    continue
                line = other.l2.lookup(la)
                if line is not None and line.state is _DIRTY:
                    self._violate(
                        "writer-reader-exclusion",
                        f"P{cpu.cpu_id} installed a readable copy while "
                        f"same-station P{other.cpu_id} holds the line DIRTY",
                        la=la, where=f"P{cpu.cpu_id}",
                    )

    # ------------------------------------------------------------------
    # ring interface hooks (deadlock-avoidance rules)
    # ------------------------------------------------------------------
    def ri_credit(self, ri) -> None:
        checks = self.checks
        checks["nonsink-priority"] = checks.get("nonsink-priority", 0) + 1
        credits = ri._nonsink_credits
        if credits < 0 or credits > ri.nonsink_limit:
            self._violate(
                "nonsink-priority",
                f"S{ri.station_id} nonsinkable credits {credits} outside "
                f"[0, {ri.nonsink_limit}]",
                where=f"ri@S{ri.station_id}",
            )

    def ri_drain(self, ri, packet: Packet, kind: str) -> None:
        checks = self.checks
        checks["nonsink-priority"] = checks.get("nonsink-priority", 0) + 1
        if kind == "nonsink" and ri._sink_items:
            self._violate(
                "nonsink-priority",
                f"S{ri.station_id} drained a nonsinkable message while "
                f"{len(ri.sink_q)} sinkable messages were queued",
                where=f"ri@S{ri.station_id}", pkt=packet,
            )

    # ------------------------------------------------------------------
    # end-of-run checks
    # ------------------------------------------------------------------
    def assert_quiescent(self) -> None:
        """After a drained run: no line anywhere may still be locked."""
        machine = self.machine
        if machine is None:
            return
        checks = self.checks
        checks["locked-liveness"] = checks.get("locked-liveness", 0) + 1
        for st in machine.stations:
            for la, entry in st.memory.directory.lines():
                if entry.locked:
                    self._violate(
                        "locked-liveness",
                        "line still locked after the run drained",
                        la=la, where=f"mem@S{st.station_id}",
                    )
            for line in st.nc.array.lines():
                if line.locked:
                    self._violate(
                        "locked-liveness",
                        "NC line still locked after the run drained",
                        la=line.addr, where=f"nc@S{st.station_id}",
                    )
