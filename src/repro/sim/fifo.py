"""Bounded FIFOs with occupancy statistics and backpressure signalling.

Every NUMAchine module moves packets through FIFOs (processor external
agent, memory module, ring interfaces, inter-ring interfaces).  The paper's
flow control halts an upstream ring when an interface input FIFO nears
capacity; :class:`Fifo` exposes that via a high-water threshold
(:attr:`Fifo.pressured`), which the ring interfaces check after each
arrival to halt the upstream link.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from .stats import Accumulator, Counter


class FifoFullError(RuntimeError):
    """Raised on a forced push into a full FIFO (a model bug, not a protocol
    condition — protocol code must check :meth:`Fifo.full` first)."""


class Fifo:
    """A bounded FIFO of ``(item, enqueue_time)`` entries.

    Parameters
    ----------
    name:
        Diagnostic / statistics label.
    capacity:
        Maximum entries; ``None`` means unbounded.
    high_water:
        Occupancy at which :attr:`pressured` becomes true (defaults to
        ``capacity - 2`` as a ring-latency safety margin, mirroring the
        hardware's early-stop threshold).
    """

    __slots__ = (
        "name",
        "capacity",
        "high_water",
        "_items",
        "max_depth",
        "wait_time",
        "pushes",
        "_depth_area",
        "_last_change",
    )

    def __init__(
        self,
        name: str,
        capacity: Optional[int] = None,
        high_water: Optional[int] = None,
    ) -> None:
        self.name = name
        self.capacity = capacity
        if high_water is None and capacity is not None:
            high_water = max(1, capacity - 2)
        self.high_water = high_water
        self._items: Deque[tuple[Any, int]] = deque()
        self.max_depth = 0
        self.wait_time = Accumulator(f"{name}.wait")
        self.pushes = Counter(f"{name}.pushes")
        # time-weighted occupancy: integral of depth over time, advanced at
        # every mutation so mean_depth(now) is exact at any instant
        self._depth_area = 0
        self._last_change = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    @property
    def pressured(self) -> bool:
        """True once occupancy reaches the high-water mark."""
        return self.high_water is not None and len(self._items) >= self.high_water

    @property
    def empty(self) -> bool:
        return not self._items

    def push(self, item: Any, now: int) -> None:
        items = self._items
        if self.capacity is not None and len(items) >= self.capacity:
            raise FifoFullError(f"{self.name} overflow (capacity={self.capacity})")
        self._depth_area += len(items) * (now - self._last_change)
        self._last_change = now
        items.append((item, now))
        self.pushes.value += 1
        depth = len(items)
        if depth > self.max_depth:
            self.max_depth = depth

    def peek(self) -> Any:
        return self._items[0][0]

    def pop(self, now: int) -> Any:
        self._depth_area += len(self._items) * (now - self._last_change)
        self._last_change = now
        item, enq = self._items.popleft()
        # Accumulator.add inlined: pop is on every packet's path
        wt = self.wait_time
        sample = now - enq
        wt.count += 1
        wt.total += sample
        if wt.min is None or sample < wt.min:
            wt.min = sample
        if wt.max is None or sample > wt.max:
            wt.max = sample
        return item

    def mean_depth(self, now: int) -> float:
        """Time-weighted mean occupancy over [0, now]."""
        if now <= 0:
            return float(len(self._items))
        area = self._depth_area + len(self._items) * (now - self._last_change)
        return area / now

    def stats_snapshot(self, now: int) -> dict:
        """Flat occupancy/wait statistics for the metrics registry."""
        return {
            "depth": len(self._items),
            "capacity": self.capacity,
            "max_depth": self.max_depth,
            "mean_depth": self.mean_depth(now),
            "pushes": self.pushes.value,
            "wait_mean_ticks": self.wait_time.mean,
            "wait_count": self.wait_time.count,
        }

    def drain(self) -> List[Any]:
        """Remove and return all items (no wait-time accounting); test helper."""
        items = [it for it, _ in self._items]
        self._items.clear()
        return items

    def __repr__(self) -> str:
        return f"Fifo({self.name}: {len(self._items)}/{self.capacity})"
