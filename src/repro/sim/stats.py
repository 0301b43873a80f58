"""Statistics shared by every monitored component.

These model the paper's monitoring substrate (§3.3) in a simulation-friendly
way: each component keeps a :class:`StatGroup` of plain event counts and
streaming delay accumulators, both written in place and O(1) per sample, so
they can be left enabled during large runs.  An entry appears at its first
count or sample; reading a name that was never counted creates nothing.
"""

from __future__ import annotations

from typing import Dict, Optional


class Accumulator:
    """Streaming sum / count / min / max for latency-style samples."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

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


class StatGroup:
    """A component's statistics: ``counters`` maps a name to an int and
    ``accumulators`` a name to an :class:`Accumulator`.

    Hot paths may bump ``counters`` inline (``c[name] = c.get(name, 0) +
    1``); every entry is named ``f"{owner}.{name}"`` in a snapshot.
    """

    __slots__ = ("owner", "counters", "accumulators")

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self.counters: Dict[str, int] = {}
        self.accumulators: Dict[str, Accumulator] = {}

    def count(self, name: str, n: int = 1) -> None:
        c = self.counters
        c[name] = c.get(name, 0) + n

    def add(self, name: str, sample: int) -> None:
        """Record one sample in accumulator ``name`` (one frame per sample)."""
        a = self.accumulators.get(name)
        if a is None:
            a = self.accumulators[name] = Accumulator(f"{self.owner}.{name}")
        a.count += 1
        a.total += sample
        if a.min is None or sample < a.min:
            a.min = sample
        if a.max is None or sample > a.max:
            a.max = sample

    def accumulator(self, name: str) -> Accumulator:
        """Accumulator ``name``, created empty if absent; a reader that must
        not create entries reads ``accumulators`` instead."""
        a = self.accumulators.get(name)
        if a is None:
            a = self.accumulators[name] = Accumulator(f"{self.owner}.{name}")
        return a
