"""Bounded FIFOs with occupancy statistics and backpressure signalling.

Every NUMAchine module moves packets through FIFOs (processor external
agent, memory module, ring interfaces, inter-ring interfaces).  The paper's
flow control halts an upstream ring when an interface input FIFO nears
capacity; :class:`Fifo` exposes that via a high-water threshold:
:meth:`Fifo.push` returns whether the FIFO has reached it, and the ring
interfaces halt the upstream link when it has.

Occupancy statistics follow from two running sums by Little's law: the
time integral of a FIFO's depth equals the total time its entries spent
queued, so ``pushes`` and ``wait_total`` (pop tick minus enqueue tick,
summed over popped entries) plus the ages of the queued entries give the
time-weighted mean depth, the wait count and the mean wait.  The memory
module and the network cache inline :meth:`Fifo.push` / :meth:`Fifo.pop`
on their unbounded input FIFOs and keep the same sums; a packet that
reaches an idle module passes straight through (one push, no wait).
Every other FIFO runs these methods.  The ring interfaces bind each
FIFO's ``_items`` deque once and test it for emptiness directly, so a
packet passing through costs one push and one pop call, with no
:attr:`Fifo.pressured` frame.
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

    ``capacity`` and ``high_water`` are read on every push, so lowering
    them after construction (as :mod:`repro.fault` does) takes effect at
    once.
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

    def push(self, item: Any, now: int) -> bool:
        """Enqueue ``item`` at tick ``now``.  Returns :attr:`pressured`
        after the push: True once occupancy has reached the high-water
        mark, the cue to halt the upstream link."""
        items = self._items
        depth = len(items) + 1
        capacity = self.capacity
        if capacity is not None and depth > capacity:
            raise FifoFullError(f"{self.name} overflow (capacity={capacity})")
        items.append((item, now))
        self.pushes += 1
        if depth > self.max_depth:
            self.max_depth = depth
        high_water = self.high_water
        return high_water is not None and depth >= high_water

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
