"""Network-cache storage array (paper §3.1.4).

The NC is direct-mapped: DRAM holds line data (large and cheap), SRAM holds
tags, the LV/LI/GV/GI state, the per-line processor mask, and the lock bit.
Unlike the secondary caches the NC does *not* enforce inclusion — ejecting
an entry silently forgets directory information about lines still cached in
local L2s, which is exactly what produces the paper's rare *false remote
requests* (Table 3).

``brought_by`` remembers which processor's miss (or write-back) last filled
the line, so hit statistics can be split into the paper's *migration*
(another processor benefits) and *caching* (the same processor benefits)
effects of Fig. 15.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.states import LineState


@dataclass(slots=True)
class NCLine:
    """One NC slot's contents (tag + SRAM state + DRAM data)."""

    addr: int
    state: LineState
    proc_mask: int = 0
    locked: bool = False
    pending: Optional[Any] = None
    data: Optional[List] = None
    brought_by: Optional[int] = None

    @property
    def data_valid(self) -> bool:
        """NC DRAM holds usable data (LV or GV)."""
        return self.state in (LineState.LV, LineState.GV) and self.data is not None

    def __repr__(self) -> str:
        lock = "*" if self.locked else ""
        return f"NCLine({self.addr:#x} {self.state.value}{lock} pmask={self.proc_mask:#b})"


class NCArray:
    """Direct-mapped slot array, in the layout of
    :class:`~repro.cache.base.CacheArray`.

    ``probe(line_addr)`` is the tag-matching lookup: the occupant only if
    it *is* this line, else ``None``.  It is the bound ``get`` of the
    address-keyed ``_lines`` dict, bound once in ``__init__``, so a probe
    costs no Python frame; ``_lines`` is never rebound.  ``_slots`` maps
    slot index -> occupant for :meth:`occupant`, for the line
    :meth:`insert` displaces and for :meth:`lines`, which lists occupants
    in slot-fill order (the watchdog dump and blocked-CPU reports print
    it).
    """

    __slots__ = ("name", "line_bytes", "num_slots", "_lines", "_slots", "probe")

    def __init__(self, name: str, size_bytes: int, line_bytes: int) -> None:
        self.name = name
        self.line_bytes = line_bytes
        self.num_slots = size_bytes // line_bytes
        # line address -> occupant
        self._lines: Dict[int, NCLine] = {}
        # slot index -> occupant; empty slots have no key
        self._slots: Dict[int, NCLine] = {}
        self.probe = self._lines.get

    def slot_index(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) % self.num_slots

    def occupant(self, line_addr: int) -> Optional[NCLine]:
        """Whatever currently sits in this line's slot (tag may differ)."""
        return self._slots.get(self.slot_index(line_addr))

    def insert(self, line: NCLine) -> Optional[NCLine]:
        """Place ``line`` in its slot; returns the displaced occupant (a
        *different* line whose ejection the caller must handle), if any."""
        idx = self.slot_index(line.addr)
        displaced = self._slots.get(idx)
        if displaced is not None:
            del self._lines[displaced.addr]
            if displaced.addr == line.addr:
                displaced = None
        self._slots[idx] = self._lines[line.addr] = line
        return displaced

    def evict(self, line_addr: int) -> Optional[NCLine]:
        line = self._lines.pop(line_addr, None)
        if line is not None:
            del self._slots[self.slot_index(line_addr)]
        return line

    def occupancy(self) -> int:
        return len(self._slots)

    def lines(self):
        return list(self._slots.values())
