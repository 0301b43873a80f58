"""Generic cache array used for L1 and L2 (secondary) caches.

The R4400's secondary cache is direct-mapped; the array nevertheless
supports set-associativity with LRU so experiments can vary it.  Lines
carry real data words — the simulator moves actual values through the
coherence protocol, which is how the test suite can assert that sequential
consistency holds (stale data is a test failure, not a silent inaccuracy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.states import CacheState


@dataclass(slots=True)
class CacheLine:
    addr: int
    state: CacheState
    data: List = field(default_factory=list)

    def __repr__(self) -> str:
        return f"CacheLine({self.addr:#x} {self.state.value})"


class CacheArray:
    """A set-associative write-back cache array with LRU replacement.

    Sets materialize lazily: a 1 MB L2 has 16K sets, and a 64-processor
    machine builds 128 cache arrays, so eagerly allocating every set dict
    dominates machine construction time for short runs and sweeps.
    """

    __slots__ = ("name", "line_bytes", "assoc", "num_sets", "_sets")

    def __init__(
        self,
        name: str,
        size_bytes: int,
        line_bytes: int,
        assoc: int = 1,
    ) -> None:
        if size_bytes % (line_bytes * assoc):
            raise ValueError(f"{name}: size not a multiple of line*assoc")
        self.name = name
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.num_sets = size_bytes // (line_bytes * assoc)
        # set index -> insertion-ordered dict addr -> CacheLine; last = MRU.
        # Sets are created on first install and never removed.
        self._sets: Dict[int, Dict[int, CacheLine]] = {}

    # ------------------------------------------------------------------
    def lookup(self, line_addr: int, touch: bool = True) -> Optional[CacheLine]:
        s = self._sets.get((line_addr // self.line_bytes) % self.num_sets)
        if s is None:
            return None
        line = s.get(line_addr)
        if line is not None and touch and len(s) > 1:
            s.pop(line_addr)
            s[line_addr] = line  # move to MRU
        return line

    def install(
        self, line_addr: int, state: CacheState, data: Optional[List]
    ) -> Optional[CacheLine]:
        """Insert / replace a line; returns the evicted victim, if any.

        A returned victim in DIRTY state must be written back by the caller.
        """
        idx = (line_addr // self.line_bytes) % self.num_sets
        s = self._sets.get(idx)
        if s is None:
            s = self._sets[idx] = {}
        victim = None
        existing = s.pop(line_addr, None)
        if existing is None and len(s) >= self.assoc:
            lru_addr = next(iter(s))
            victim = s.pop(lru_addr)
        line = existing or CacheLine(addr=line_addr, state=state)
        line.state = state
        if data is not None:
            line.data = data
        s[line_addr] = line
        return victim

    def remove(self, line_addr: int) -> Optional[CacheLine]:
        s = self._sets.get((line_addr // self.line_bytes) % self.num_sets)
        if s is None:
            return None
        return s.pop(line_addr, None)

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Drop a line (coherence invalidation); returns it if present."""
        return self.remove(line_addr)

    def downgrade(self, line_addr: int) -> Optional[CacheLine]:
        """DIRTY -> SHARED (ownership surrendered, data kept)."""
        line = self.lookup(line_addr, touch=False)
        if line is not None and line.state is CacheState.DIRTY:
            line.state = CacheState.SHARED
        return line

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def lines(self):
        # set-index order, matching the eager-list behaviour exactly
        for idx in sorted(self._sets):
            yield from self._sets[idx].values()
