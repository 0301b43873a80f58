"""Histogram tables (paper §3.3.2-3.3.3).

The monitoring hardware's most useful circuits are SRAM histogram tables:
general two-dimensional counters configured per experiment.  Each table has
two halves — one accumulating, one frozen after an overflow interrupt — so
monitoring continues while software drains results.

:class:`CoherenceHistogram` is the paper's worked example (§3.3.3): for
every memory transaction type it counts how often each cache-line state
(LV/LI/GV/GI, locked or unlocked) was encountered, optionally restricted to
an address range and/or a phase identifier.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple


class HistogramTable:
    """A two-half counting table: (row, column) -> count.

    ``overflow_limit`` models the hardware counter width: when any cell of
    the active half reaches the limit, the halves swap, the overflowed half
    is frozen, and ``on_overflow`` (the interrupt) fires.
    """

    def __init__(
        self,
        name: str,
        overflow_limit: int = 1 << 16,
        on_overflow: Optional[Callable[["HistogramTable"], None]] = None,
    ) -> None:
        self.name = name
        self.overflow_limit = overflow_limit
        self.on_overflow = on_overflow
        self._halves: List[Dict[Tuple[Hashable, Hashable], int]] = [{}, {}]
        self._drained: Dict[Tuple[Hashable, Hashable], int] = {}
        self.active = 0
        self.overflows = 0

    def record(self, row: Hashable, col: Hashable, n: int = 1) -> None:
        half = self._halves[self.active]
        key = (row, col)
        count = half[key] = half.get(key, 0) + n
        if count >= self.overflow_limit:
            self._swap()

    def _swap(self) -> None:
        self.overflows += 1
        self.active ^= 1
        # the half we are about to reuse was frozen at the previous
        # overflow; software has had its interrupt to drain it — fold its
        # counts into the drained archive so totals stay exact
        for key, n in self._halves[self.active].items():
            self._drained[key] = self._drained.get(key, 0) + n
        self._halves[self.active] = {}
        if self.on_overflow is not None:
            self.on_overflow(self)

    # ------------------------------------------------------------------
    def total(self, row: Hashable = None, col: Hashable = None) -> int:
        """Sum over both halves, optionally filtered by row and/or column."""
        out = 0
        for half in list(self._halves) + [self._drained]:
            for (r, c), n in half.items():
                if row is not None and r != row:
                    continue
                if col is not None and c != col:
                    continue
                out += n
        return out

    def cells(self) -> Dict[Tuple[Hashable, Hashable], int]:
        merged: Dict[Tuple[Hashable, Hashable], int] = dict(self._drained)
        for half in self._halves:
            for key, n in half.items():
                merged[key] = merged.get(key, 0) + n
        return merged

    def rows(self) -> List[Hashable]:
        return sorted({r for (r, _c) in self.cells()}, key=repr)

    def columns(self) -> List[Hashable]:
        return sorted({c for (_r, c) in self.cells()}, key=repr)

    def render(self) -> str:
        """Format as the paper's table: states as rows, txn types as cols."""
        cells = self.cells()
        rows, cols = self.rows(), self.columns()
        width = max([len(str(c)) for c in cols] + [8])
        head = f"{self.name:<14}" + "".join(f"{str(c):>{width + 2}}" for c in cols)
        lines = [head]
        for r in rows:
            line = f"{str(r):<14}" + "".join(
                f"{cells.get((r, c), 0):>{width + 2}}" for c in cols
            )
            lines.append(line)
        return "\n".join(lines)
