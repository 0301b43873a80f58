"""Statistics primitives shared by every monitored component.

These model the paper's monitoring substrate in a simulation-friendly way:
counters, mean/max accumulators for delays, busy-time trackers for
utilization, and binned histograms.  All are incremental (O(1) per sample)
so they can be left enabled during large runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


class Counter:
    """A named integer event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def incr(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Accumulator:
    """Streaming sum / count / min / max for latency-style samples."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def add(self, sample: int) -> None:
        self.count += 1
        self.total += sample
        if self.min is None or sample < self.min:
            self.min = sample
        if self.max is None or sample > self.max:
            self.max = sample

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def __repr__(self) -> str:
        return f"Accumulator({self.name}: n={self.count} mean={self.mean:.2f})"


class BusyTracker:
    """Tracks total busy ticks of a resource for utilization reporting.

    Components call :meth:`add_busy` with each occupancy interval; utilization
    over a window is ``busy / elapsed``.  Supports resetting at the start of
    the parallel section so utilization covers only the measured region, the
    way the paper reports it.
    """

    __slots__ = ("name", "busy", "_window_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy = 0
        self._window_start = 0

    def add_busy(self, ticks: int) -> None:
        self.busy += ticks

    def start_window(self, now: int) -> None:
        self.busy = 0
        self._window_start = now

    def utilization(self, now: int) -> float:
        elapsed = now - self._window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy / elapsed)

    def __repr__(self) -> str:
        return f"BusyTracker({self.name}: busy={self.busy})"


@dataclass
class StatGroup:
    """A component's bag of named statistics, lazily created."""

    owner: str
    counters: Dict[str, Counter] = field(default_factory=dict)
    accumulators: Dict[str, Accumulator] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(f"{self.owner}.{name}")
        return c

    def accumulator(self, name: str) -> Accumulator:
        a = self.accumulators.get(name)
        if a is None:
            a = self.accumulators[name] = Accumulator(f"{self.owner}.{name}")
        return a

    def reset(self) -> None:
        for c in self.counters.values():
            c.reset()
        for a in self.accumulators.values():
            a.reset()

    def snapshot(self) -> Dict[str, float]:
        """Flat name -> value view, for reports and tests."""
        out: Dict[str, float] = {}
        for name, c in self.counters.items():
            out[name] = c.value
        for name, a in self.accumulators.items():
            out[f"{name}.mean"] = a.mean
            out[f"{name}.count"] = a.count
        return out
