"""Bounded FIFOs with occupancy statistics and backpressure signalling.

Every NUMAchine module moves packets through FIFOs (processor external
agent, memory module, ring interfaces, inter-ring interfaces).  The paper's
flow control halts an upstream ring when an interface input FIFO nears
capacity; :class:`Fifo` exposes that via a high-water threshold
(:attr:`Fifo.pressured`), which the ring interfaces check after each
arrival to halt the upstream link.

Occupancy statistics follow from two running sums by Little's law: the
time integral of a FIFO's depth equals the total time its entries spent
queued, so ``pushes`` and ``wait_total`` (pop tick minus enqueue tick,
summed over popped entries) plus the ages of the queued entries give the
time-weighted mean depth, the wait count and the mean wait.  The generated
core (:mod:`repro.elab.codegen`) inlines :meth:`Fifo.push` /
:meth:`Fifo.pop` for the memory and NC input FIFOs only, and keeps the
same sums; every other FIFO runs these methods on both cores.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional


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
        "pushes",
        "wait_total",
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
        #: entries ever pushed
        self.pushes = 0
        #: summed wait of every popped entry, in ticks
        self.wait_total = 0

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
        items.append((item, now))
        self.pushes += 1
        depth = len(items)
        if depth > self.max_depth:
            self.max_depth = depth

    def peek(self) -> Any:
        return self._items[0][0]

    def pop(self, now: int) -> Any:
        item, enq = self._items.popleft()
        self.wait_total += now - enq
        return item

    def mean_depth(self, now: int) -> float:
        """Time-weighted mean occupancy over [0, now]: the depth integral
        is the time every entry, popped or still queued, spent queued."""
        if now <= 0:
            return float(len(self._items))
        area = self.wait_total + sum(now - enq for _, enq in self._items)
        return area / now

    def stats_snapshot(self, now: int) -> dict:
        """Flat occupancy/wait statistics for the metrics registry."""
        waited = self.pushes - len(self._items)
        return {
            "depth": len(self._items),
            "capacity": self.capacity,
            "max_depth": self.max_depth,
            "mean_depth": self.mean_depth(now),
            "pushes": self.pushes,
            "wait_mean_ticks": self.wait_total / waited if waited else 0.0,
            "wait_count": waited,
        }

    def __repr__(self) -> str:
        return f"Fifo({self.name}: {len(self._items)}/{self.capacity})"
