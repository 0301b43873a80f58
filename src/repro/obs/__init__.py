"""repro.obs — the non-intrusive observability layer (paper §3.3).

NUMAchine's monitoring hardware watches every bus and ring without
perturbing them; this package is the simulator's equivalent.  It bundles:

* :class:`~repro.obs.trace.Tracer` — per-transaction lifecycle tracing with
  Chrome trace-event (Perfetto) export and latency breakdowns;
* :class:`~repro.obs.probes.ProbeSet` — periodic sampling of FIFO depths,
  bus/ring utilization and NC occupancy into bounded time series;
* :mod:`~repro.obs.registry` — the unified metrics snapshot with JSON and
  Prometheus-text exporters;
* :class:`~repro.obs.profile.Profiler` — the simulator *self*-profiler,
  attributing event-loop wall time to pump sites;
* ``python -m repro.obs.report`` — a CLI renderer for saved snapshots.

:class:`Observability` is the front door::

    machine = Machine(MachineConfig.small())
    obs = Observability().attach(machine)
    machine.run(programs)
    obs.write_trace("trace.json")          # open in ui.perfetto.dev
    obs.write_snapshot("obs.json")         # python -m repro.obs.report obs.json

Every instrumentation hook in the simulator defaults to ``None`` and costs
one attribute load plus an ``is not None`` test when disabled.  No piece
schedules an event: the tracer stamps transactions as they pass, and the
probes sample on the engine's run loop between events, so an observed run
equals the unobserved one in simulated time, event count and every
statistic.
"""

from __future__ import annotations

from typing import Optional

from .probes import ProbeSet
from .profile import Profiler
from .registry import snapshot, to_prometheus, write_snapshot
from .trace import (
    Tracer,
    TxnTrace,
    chrome_trace,
    dump_chrome_events,
    write_chrome_trace,
)

__all__ = [
    "Observability",
    "ProbeSet",
    "Profiler",
    "Tracer",
    "TxnTrace",
    "chrome_trace",
    "dump_chrome_events",
    "write_chrome_trace",
    "snapshot",
    "to_prometheus",
    "write_snapshot",
]


class Observability:
    """Attachable tracing + probing bundle for one :class:`Machine`.

    Parameters
    ----------
    trace:
        Enable the transaction tracer.
    trace_capacity:
        Bound on retained finished transactions (``None`` = unbounded).
    probes:
        Enable periodic time-series sampling.
    probe_period_ns / probe_capacity:
        Sampling period and per-series ring-buffer length.
    """

    def __init__(
        self,
        trace: bool = True,
        trace_capacity: Optional[int] = None,
        probes: bool = True,
        probe_period_ns: float = 2000.0,
        probe_capacity: int = 4096,
    ) -> None:
        self.tracer = Tracer(trace_capacity) if trace else None
        self.probes = ProbeSet(probe_period_ns, probe_capacity) if probes else None
        self.machine = None

    # ------------------------------------------------------------------
    def attach(self, machine) -> "Observability":
        """Wire the tracer into every component and put the default probe
        set on the machine's engine.  Returns ``self`` for chaining."""
        self.machine = machine
        machine.obs = self
        tr = self.tracer
        if tr is not None:
            for cpu in machine.cpus:
                cpu.tracer = tr
            for st in machine.stations:
                st.memory.tracer = tr
                st.nc.tracer = tr
                st.ring_interface.tracer = tr
            for iri in machine.net.iris:
                iri.tracer = tr
        if self.probes is not None:
            self._default_probes(machine)
            self.probes.attach(machine.engine)
        return self

    def _default_probes(self, machine) -> None:
        ps = self.probes
        for st in machine.stations:
            s = f"S{st.station_id}"
            ps.add_rate(f"{s}.bus.util", lambda b=st.bus: b.busy_ticks)
            ps.add_gauge(f"{s}.mem.in.depth",
                         lambda f=st.memory.in_fifo: len(f), "pkts")
            ps.add_gauge(f"{s}.nc.in.depth",
                         lambda f=st.nc.in_fifo: len(f), "pkts")
            ps.add_gauge(f"{s}.nc.occupancy",
                         lambda a=st.nc.array: a.occupancy(), "lines")
            ri = st.ring_interface
            ps.add_gauge(f"{s}.ri.out.depth", lambda f=ri.out_fifo: len(f), "pkts")
            ps.add_gauge(f"{s}.ri.in.depth", lambda f=ri.in_fifo: len(f), "pkts")
            ps.add_gauge(f"{s}.ri.sink.depth", lambda f=ri.sink_q: len(f), "pkts")
            ps.add_gauge(f"{s}.ri.nonsink.depth",
                         lambda f=ri.nonsink_q: len(f), "pkts")
        for _key, ring in sorted(machine.net.rings.items()):
            ps.add_rate(f"{ring.name}.util",
                        lambda r=ring: r.busy_ticks, scale=ring.size)
        for iri in machine.net.iris:
            ps.add_gauge(f"{iri.name}.up.depth", lambda f=iri.up_fifo: len(f), "pkts")
            ps.add_gauge(f"{iri.name}.down.depth",
                         lambda f=iri.down_fifo: len(f), "pkts")

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def snapshot(self, include_wall: bool = True) -> dict:
        return snapshot(self.machine, include_wall=include_wall)

    def chrome_trace(self, dump=None) -> dict:
        """The Perfetto document; pass a watchdog ``diagnostic_dump`` to
        overlay blocked components / locked lines as instant events."""
        return chrome_trace(self.tracer, self.probes, dump)

    def write_trace(self, path, dump=None) -> None:
        write_chrome_trace(path, self.tracer, self.probes, dump)

    def write_snapshot(self, path, include_wall: bool = True) -> None:
        write_snapshot(path, self.snapshot(include_wall=include_wall))

    def prometheus(self) -> str:
        return to_prometheus(self.snapshot())
