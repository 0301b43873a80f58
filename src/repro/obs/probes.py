"""Time-series probes — the paper's FIFO-depth monitoring as a series.

§3.3 lists "FIFO depth monitoring" and per-resource utilization among the
fixed monitoring circuits; the seed simulator only kept end-of-run
aggregates (``max_depth``, total busy ticks).  A :class:`ProbeSet` samples
live gauges (queue depths, NC occupancy) and rate probes (busy-tick deltas
per interval = utilization) on a configurable tick period into bounded
ring buffers, so *when* a queue filled up is visible, not just how deep it
ever got.

Sampling is not an event.  :meth:`ProbeSet.attach` puts the set in the
engine's ``sampler`` slot, and :meth:`Engine.run` calls
:meth:`ProbeSet.sample` between events: at each period boundary the model
reaches, and once more when the queue drains, at the time of the last
event.  Probe callbacks read simulator state but never mutate it, so a
probed run equals an unprobed one in simulated time, event count and
event order.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from ..sim.engine import ns_to_ticks


class _Gauge:
    """Instantaneous value probe (queue depth, occupancy)."""

    __slots__ = ("name", "unit", "fn")

    def __init__(self, name: str, fn: Callable[[], float], unit: str) -> None:
        self.name = name
        self.fn = fn
        self.unit = unit

    def prime(self) -> None:
        pass

    def sample(self, dt: int) -> float:
        return self.fn()


class _Rate:
    """Cumulative-counter delta probe: ``(total - prev) / (dt * scale)``.

    With ``fn`` returning busy ticks and ``scale`` the number of parallel
    links, the sample is the resource's utilization over the interval.
    """

    __slots__ = ("name", "unit", "fn", "scale", "_prev")

    def __init__(self, name: str, fn: Callable[[], float], scale: float, unit: str) -> None:
        self.name = name
        self.fn = fn
        self.scale = scale
        self.unit = unit
        self._prev = 0.0

    def prime(self) -> None:
        self._prev = self.fn()

    def sample(self, dt: int) -> float:
        cur = self.fn()
        prev, self._prev = self._prev, cur
        return (cur - prev) / (dt * self.scale)


class ProbeSet:
    """A machine's sampled time series, all on one tick period."""

    def __init__(self, period_ns: float = 2000.0, capacity: int = 4096) -> None:
        self.period_ticks = max(1, ns_to_ticks(period_ns))
        self.capacity = capacity
        self.probes: List = []
        self._series: Dict[str, deque] = {}
        self._last = 0
        #: the next period boundary, read by the engine's run loop
        self.next_tick = self.period_ticks
        self.samples = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_gauge(self, name: str, fn: Callable[[], float], unit: str = "") -> None:
        self._register(_Gauge(name, fn, unit))

    def add_rate(
        self, name: str, fn: Callable[[], float], scale: float = 1.0,
        unit: str = "util",
    ) -> None:
        self._register(_Rate(name, fn, scale, unit))

    def _register(self, probe) -> None:
        if probe.name in self._series:
            raise ValueError(f"duplicate probe {probe.name!r}")
        self.probes.append(probe)
        self._series[probe.name] = deque(maxlen=self.capacity)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def attach(self, engine) -> None:
        """Sample on ``engine``'s run loop every period from its current
        time on."""
        self._last = engine.now
        self.next_tick = engine.now + self.period_ticks
        for probe in self.probes:
            probe.prime()
        engine.sampler = self

    def sample(self, now: int) -> None:
        """Record one point per series at ``now``; the engine calls this at
        each period boundary and when its queue drains."""
        if now >= self.next_tick:
            self.next_tick = now + self.period_ticks
        dt = now - self._last
        if dt <= 0:
            return  # drained where the last sample was taken
        self._last = now
        for probe in self.probes:
            self._series[probe.name].append((now, probe.sample(dt)))
        self.samples += 1

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def series(self) -> Dict[str, dict]:
        """``{name: {"unit", "period_ticks", "t": [...], "v": [...]}}``."""
        out: Dict[str, dict] = {}
        for probe in self.probes:
            buf = self._series[probe.name]
            out[probe.name] = {
                "unit": probe.unit,
                "period_ticks": self.period_ticks,
                "t": [t for t, _v in buf],
                "v": [v for _t, v in buf],
            }
        return out

    def last(self, name: str) -> Optional[float]:
        buf = self._series.get(name)
        if not buf:
            return None
        return buf[-1][1]
