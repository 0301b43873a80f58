"""Generic cache array used for the L1 (primary) and L2 (secondary) caches.

Both of the R4400's caches are direct-mapped (paper §3.1.1), so a set holds
exactly one line.  Lines carry real data words — the simulator moves actual
values through the coherence protocol, which is how the test suite can
assert that sequential consistency holds (stale data is a test failure, not
a silent inaccuracy).  An L1 line is only a tag and a state: its data stays
in the L2 line, so it carries ``data=None``.

Resident lines are keyed by line address, so a hit is one C-level dict
probe with no Python frame: ``lookup`` is that dict's bound ``get``.  A
second dict, set index -> line, does the direct-mapped replacement.
:class:`~repro.cache.nc_array.NCArray` uses the same layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.states import CacheState


@dataclass(slots=True)
class CacheLine:
    addr: int
    state: CacheState
    data: Optional[List] = None

    def __repr__(self) -> str:
        return f"CacheLine({self.addr:#x} {self.state.value})"


class CacheArray:
    """A direct-mapped write-back cache array.

    ``lookup(line_addr)`` returns the resident line whose address *is*
    ``line_addr``, or ``None``.  It is the bound ``get`` of the
    address-keyed ``_lines`` dict, bound once in ``__init__`` (a slot
    cannot share its name with a method, hence this docstring); ``_lines``
    is never rebound, or ``lookup`` would go stale.  ``_sets`` maps set
    index -> line and keeps :meth:`lines` in set-index order.

    Sets fill lazily: a 1 MB L2 has 16K sets, and a 64-processor machine
    builds 128 cache arrays, so eagerly allocating every set dominates
    machine construction time for short runs and sweeps.
    """

    __slots__ = ("name", "line_bytes", "num_sets", "_lines", "_sets", "lookup")

    def __init__(self, name: str, size_bytes: int, line_bytes: int) -> None:
        if size_bytes % line_bytes:
            raise ValueError(f"{name}: size not a multiple of the line size")
        self.name = name
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // line_bytes
        # line address -> resident line
        self._lines: Dict[int, CacheLine] = {}
        # set index -> the one line it holds; empty sets have no key
        self._sets: Dict[int, CacheLine] = {}
        self.lookup = self._lines.get

    # ------------------------------------------------------------------
    def install(
        self, line_addr: int, state: CacheState, data: Optional[List]
    ) -> Optional[CacheLine]:
        """Insert / replace a line; returns the evicted victim, if any.

        Re-installing a resident line updates its state, and its data when
        ``data`` is given.  A returned victim in DIRTY state must be
        written back by the caller.
        """
        line = self._lines.get(line_addr)
        if line is not None:
            line.state = state
            if data is not None:
                line.data = data
            return None
        idx = (line_addr // self.line_bytes) % self.num_sets
        victim = self._sets.get(idx)
        if victim is not None:
            del self._lines[victim.addr]
        self._sets[idx] = self._lines[line_addr] = CacheLine(line_addr, state, data)
        return victim

    def remove(self, line_addr: int) -> Optional[CacheLine]:
        line = self._lines.pop(line_addr, None)
        if line is not None:
            del self._sets[(line_addr // self.line_bytes) % self.num_sets]
        return line

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
        sets = self._sets
        for idx in sorted(sets):
            yield sets[idx]
