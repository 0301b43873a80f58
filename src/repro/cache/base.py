"""Generic cache array used for the L1 (primary) and L2 (secondary) caches.

Both of the R4400's caches are direct-mapped (paper §3.1.1), so a set holds
exactly one line.  Lines carry real data words — the simulator moves actual
values through the coherence protocol, which is how the test suite can
assert that sequential consistency holds (stale data is a test failure, not
a silent inaccuracy).
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
    """A direct-mapped write-back cache array: set index -> resident line.

    Sets fill lazily: a 1 MB L2 has 16K sets, and a 64-processor machine
    builds 128 cache arrays, so eagerly allocating every set dominates
    machine construction time for short runs and sweeps.
    """

    __slots__ = ("name", "line_bytes", "num_sets", "_lines")

    def __init__(self, name: str, size_bytes: int, line_bytes: int) -> None:
        if size_bytes % line_bytes:
            raise ValueError(f"{name}: size not a multiple of the line size")
        self.name = name
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // line_bytes
        # set index -> the one line it holds; empty sets have no key
        self._lines: Dict[int, CacheLine] = {}

    # ------------------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        line = self._lines.get((line_addr // self.line_bytes) % self.num_sets)
        if line is not None and line.addr == line_addr:
            return line
        return None

    def install(
        self, line_addr: int, state: CacheState, data: Optional[List]
    ) -> Optional[CacheLine]:
        """Insert / replace a line; returns the evicted victim, if any.

        A returned victim in DIRTY state must be written back by the caller.
        """
        idx = (line_addr // self.line_bytes) % self.num_sets
        victim = self._lines.get(idx)
        if victim is not None and victim.addr == line_addr:
            line, victim = victim, None
            line.state = state
        else:
            line = self._lines[idx] = CacheLine(addr=line_addr, state=state)
        if data is not None:
            line.data = data
        return victim

    def remove(self, line_addr: int) -> Optional[CacheLine]:
        idx = (line_addr // self.line_bytes) % self.num_sets
        line = self._lines.get(idx)
        if line is not None and line.addr == line_addr:
            return self._lines.pop(idx)
        return None

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Drop a line (coherence invalidation); returns it if present."""
        return self.remove(line_addr)

    def downgrade(self, line_addr: int) -> Optional[CacheLine]:
        """DIRTY -> SHARED (ownership surrendered, data kept)."""
        line = self.lookup(line_addr)
        if line is not None and line.state is CacheState.DIRTY:
            line.state = CacheState.SHARED
        return line

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return len(self._lines)

    def lines(self):
        # set-index order, matching the eager-list behaviour exactly
        for idx in sorted(self._lines):
            yield self._lines[idx]
