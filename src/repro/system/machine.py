"""Whole-machine assembly and run loop — the public entry point.

Typical use::

    from repro import Machine, MachineConfig

    machine = Machine(MachineConfig.small())
    region = machine.allocate(4096)
    def program(cpu_id):
        def gen():
            v = yield Read(region.addr(0))
            yield Write(region.addr(8), v + 1)
        return gen()
    result = machine.run({0: program(0)})
    print(result.time_ns, result.speedup_base)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..interconnect.topology import Interconnect, build_interconnect
from ..interconnect.interfaces import StationRingInterface
from ..sim.engine import DeadlockError, Engine, ns_to_ticks, ticks_to_ns
from .address_map import AddressMap, PageAttributes, Region
from .config import MachineConfig
from .station import Station


@dataclass
class RunResult:
    """Measurements from one simulation run."""

    time_ticks: int
    time_ns: float
    events: int
    cpu_finish_ns: Dict[int, float] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"RunResult(time={self.time_ns:.0f}ns events={self.events})"


class Machine:
    """A complete NUMAchine instance."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.config = config or MachineConfig()
        self.config.validate()
        # ``backend`` is a label, not a choice: every machine runs the same
        # station classes (see the ``backend`` property)
        if backend not in (None, "elab", "interp"):
            raise ValueError(
                f"unknown backend {backend!r}: expected None, 'elab' or 'interp'"
            )
        self._backend_label = "interp" if backend == "interp" else "elab"
        # coherence protocol plug-in (NUMACHINE_PROTOCOL / config.protocol):
        # resolved once here so every layer agrees for the machine's lifetime
        from ..protocol import resolve_protocol

        self.protocol = resolve_protocol(self.config)
        self.protocol_name = self.protocol.name
        self.engine = Engine()
        self.net: Interconnect = build_interconnect(self.engine, self.config)
        self.codec = self.net.codec
        self.stations: List[Station] = [
            Station(self.engine, self.config, self.codec, s, protocol=self.protocol)
            for s in range(self.config.num_stations)
        ]
        # attach station ring interfaces
        for station in self.stations:
            ring, pos = self.net.local_ring_for(station.station_id)
            sri = StationRingInterface(
                self.engine,
                self.codec,
                station.station_id,
                ring,
                pos,
                pkt_gen_ticks=ns_to_ticks(self.config.pkt_gen_ns),
                handler_ticks=ns_to_ticks(self.config.handler_ns),
                bus_granter=station.bus.request,
                deliver=station.deliver_from_ring,
                nonsink_limit=self.config.nonsink_limit,
                in_fifo_capacity=self.config.ring_in_fifo_capacity,
                line_bus_ticks=self.config.line_bus_ticks,
                cmd_bus_ticks=self.config.cmd_bus_ticks,
                seq_ticks=ns_to_ticks(self.config.seq_point_ns),
            )
            ring.attach(pos, sri)
            station.ring_interface = sri
        barrier_plans: dict = {}
        for station in self.stations:
            station._peers = self.stations
            station.barrier_plans = barrier_plans
        self.cpus = [cpu for st in self.stations for cpu in st.cpus]
        self.memory_map = AddressMap(self.config)
        for cpu in self.cpus:
            cpu.page_attrs = self.memory_map.attrs_for
        self.monitor = None  # set via attach_monitor()
        self.obs = None  # set via attach_observability()
        self.verifier = None  # set via attach_verifier()
        self.watchdog = None  # set via attach_watchdog()
        self.fault = None  # set via attach_fault()

    # ------------------------------------------------------------------
    # memory allocation
    # ------------------------------------------------------------------
    def allocate(
        self,
        nbytes: int,
        placement="round_robin",
        name: Optional[str] = None,
        attrs: Optional[PageAttributes] = None,
    ) -> Region:
        return self.memory_map.allocate(nbytes, placement, name, attrs)

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def attach_monitor(self, monitor) -> None:
        """Install a :class:`repro.monitor.Monitor` across all modules:
        the memory and NC services record every transaction they serve."""
        self.monitor = monitor
        for st in self.stations:
            st.memory.monitor = monitor
            st.nc.monitor = monitor

    def attach_observability(self, obs) -> None:
        """Install a :class:`repro.obs.Observability` layer (transaction
        tracer + time-series probes) across all components.

        The memory, NC and CPU stamp the tracer as transactions pass.  The
        probes are the engine's sampler, called between events, so an
        observed run equals the unobserved one in simulated time and event
        count.
        """
        obs.attach(self)

    def attach_verifier(self, verifier=None):
        """Install a :class:`repro.verify.CoherenceChecker` across all
        components (null-object pattern: zero cost when not attached, and
        bit-identical event streams when attached)."""
        if verifier is None:
            from ..verify import CoherenceChecker

            verifier = CoherenceChecker()
        verifier.attach(self)
        return verifier

    def attach_watchdog(self, watchdog=None, **kwargs):
        """Install a :class:`repro.fault.Watchdog` bounding simulated
        time and/or event count; overruns raise a diagnostic
        :class:`repro.fault.WatchdogError` instead of hanging."""
        if watchdog is None:
            from ..fault import Watchdog

            watchdog = Watchdog(self, **kwargs)
        return watchdog.attach()

    def attach_fault(self, plan):
        """Apply a :class:`repro.fault.FaultPlan` via a
        :class:`repro.fault.FaultInjector`; must be called before
        :meth:`run`."""
        from ..fault import FaultInjector

        self.fault = FaultInjector(plan).attach(self)
        return self.fault

    @property
    def backend(self) -> str:
        """The ``backend=`` label this machine was built with: ``"interp"``
        when pinned so, else ``"elab"``.  It changes nothing about the run.

        The label and the validation of ``backend=`` stay only for the
        numabench harness, whose probes build ``Machine(backend=...)`` and
        check this property; both go with the benchmark change that
        ROADMAP item 5 lists."""
        return self._backend_label

    def obs_snapshot(self, include_wall: bool = True) -> dict:
        """The unified metrics snapshot (see :mod:`repro.obs.registry`);
        works with or without an attached observability layer."""
        from ..obs.registry import snapshot

        return snapshot(self, include_wall=include_wall)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        programs: Dict[int, object],
        max_events: Optional[int] = None,
        until_ns: Optional[float] = None,
    ) -> RunResult:
        """Run the given per-CPU generator programs to completion.

        ``programs`` maps global cpu ids to generators.  Raises
        :class:`DeadlockError` if the event queue drains while any program
        is still blocked (a protocol bug or a genuinely deadlocked workload).
        """
        for cpu_id, program in programs.items():
            self.cpus[cpu_id].set_program(program)
        until = ns_to_ticks(until_ns) if until_ns is not None else None
        start_events = self.engine.events_run
        self.engine.run(until=until, max_events=max_events)
        try:
            self.engine.check_quiescent()
        except DeadlockError as exc:
            raise self._deadlock(exc) from None
        running = [
            cpu for cpu in self.cpus if cpu.program is not None and not cpu.done
        ]
        if self.engine.pending == 0 and running:
            raise self._deadlock(
                DeadlockError(
                    f"programs never finished on cpus {[c.cpu_id for c in running]}"
                )
            )
        if self.engine.pending == 0 and self.verifier is not None:
            self.verifier.assert_quiescent()
        finish = {
            cpu.cpu_id: ticks_to_ns(cpu.finished_at)
            for cpu in self.cpus
            if cpu.finished_at is not None
        }
        return RunResult(
            time_ticks=self.engine.now,
            time_ns=ticks_to_ns(self.engine.now),
            events=self.engine.events_run - start_events,
            cpu_finish_ns=finish,
        )

    def _deadlock(self, exc: DeadlockError) -> DeadlockError:
        """Enrich a drained-queue deadlock with the watchdog's diagnostic
        dump when a watchdog is attached (already-wrapped errors pass
        through unchanged)."""
        if self.watchdog is None:
            return exc
        from ..fault import WatchdogError

        if isinstance(exc, WatchdogError):
            return exc
        return self.watchdog.deadlock_error(exc)

    # ------------------------------------------------------------------
    # metrics used by the benches (Figs. 15-18, Table 3)
    # ------------------------------------------------------------------
    def parallel_time_ns(self, result: RunResult) -> float:
        """Parallel-section time: until the last participating CPU finished
        (the paper's 'master completes wait() for all children')."""
        if not result.cpu_finish_ns:
            return result.time_ns
        return max(result.cpu_finish_ns.values())

    def nc_stats(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for st in self.stations:
            for name, value in st.nc.stats.counters.items():
                out[name] = out.get(name, 0) + value
        return out

    def memory_stats(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for st in self.stations:
            for name, value in st.memory.stats.counters.items():
                out[name] = out.get(name, 0) + value
        return out

    def nc_hit_rate(self) -> Dict[str, float]:
        s = self.nc_stats()
        total = s.get("hits", 0) + s.get("misses", 0)
        if total == 0:
            return {"total": 0.0, "migration": 0.0, "caching": 0.0}
        return {
            "total": s.get("hits", 0) / total,
            "migration": s.get("migration_hits", 0) / total,
            "caching": s.get("caching_hits", 0) / total,
        }

    def nc_combining_rate(self) -> float:
        s = self.nc_stats()
        total = s.get("hits", 0) + s.get("misses", 0)
        if total == 0:
            return 0.0
        return s.get("combined_requests", 0) / total

    def false_remote_rate(self) -> float:
        s = self.nc_stats()
        total = s.get("requests", 0)
        if total == 0:
            return 0.0
        return s.get("false_remotes", 0) / total

    def special_read_count(self) -> int:
        return self.nc_stats().get("special_reads", 0)

    def utilizations(self) -> Dict[str, float]:
        now = self.engine.now
        bus = [st.bus.utilization(now) for st in self.stations]
        local = [r.utilization(now) for r in self.net.local_rings]
        out = {
            "bus": sum(bus) / len(bus),
            "local_ring": sum(local) / len(local),
        }
        if self.codec.geometry.num_levels > 1:
            out["central_ring"] = self.net.central_ring.utilization(now)
        return out

    def ring_interface_delays(self) -> Dict[str, float]:
        """Average delays in ring-clock cycles (paper Fig. 18).

        Reads only the accumulators that exist: a read must not create
        empty ones that every later snapshot would then carry."""
        slot = self.config.ring_slot_ticks

        def mean(groups, name) -> float:
            accs = [g.accumulators[name] for g in groups if name in g.accumulators]
            total = sum(a.total for a in accs)
            count = sum(a.count for a in accs)
            return (total / count / slot) if count else 0.0

        ris = [st.ring_interface.stats for st in self.stations]
        out = {
            "send": mean(ris, "send_delay"),
            "down_sinkable": mean(ris, "down_delay_sink"),
            "down_nonsinkable": mean(ris, "down_delay_nonsink"),
        }
        if self.net.iris:
            iris = [iri.stats for iri in self.net.iris]
            out["iri_up"] = mean(iris, "up_delay")
            out["iri_down"] = mean(iris, "down_delay")
        return out

    # ------------------------------------------------------------------
    # debugging / verification helpers
    # ------------------------------------------------------------------
    def flush_all_dirty(self) -> None:
        """Test helper: push every dirty L2 line's data into its home
        memory's backing store *without* simulating traffic."""
        from ..core.states import CacheState, LineState

        for cpu in self.cpus:
            for line in cpu.l2.lines():
                if line.state is CacheState.DIRTY:
                    home = self.stations[self.config.home_station(line.addr)]
                    home.memory.write_line(line.addr, line.data)
        for st in self.stations:
            for line in st.nc.array.lines():
                if line.state is LineState.LV and line.data is not None:
                    home = self.stations[self.config.home_station(line.addr)]
                    home.memory.write_line(line.addr, line.data)

    def read_word(self, addr: int):
        """Coherent debug read: the most up-to-date value of a word,
        honouring owner caches over memory."""
        from ..core.states import CacheState, LineState

        cfg = self.config
        la = cfg.line_addr(addr)
        idx = (addr % cfg.line_bytes) // cfg.word_bytes
        for cpu in self.cpus:
            line = cpu.l2.lookup(la)
            if line is not None and line.state is CacheState.DIRTY:
                return line.data[idx]
        for st in self.stations:
            nline = st.nc.array.probe(la)
            if nline is not None and nline.state is LineState.LV and nline.data:
                return nline.data[idx]
        return self.stations[cfg.home_station(addr)].memory.read_line(la)[idx]
