"""The machine-wide monitor (paper §3.3).

NUMAchine embeds non-intrusive monitoring in every subsystem; because the
monitoring PLDs are reprogrammable the same circuits implement different
tables per experiment.  The simulator mirrors that: a :class:`Monitor`
attached via ``machine.attach_monitor`` observes every memory / network
cache transaction (zero perturbation of timing) and feeds:

* the cache-coherence histogram (state x transaction type, §3.3.3),
* per-originator transaction tables ("resource hogs", §3.3),
* trace memory — a bounded ring of recent transactions for post-mortem
  inspection around errors or barriers,
* phase-identifier attribution: counts keyed by the phase register value
  the requesting processor had set (§3.3).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..core.states import LineState
from ..interconnect.packet import Packet
from .histogram import HistogramTable

#: the §3.3.3 histogram row of a line state, unlocked and locked: ``[state][locked]``
_ROWS = {s: (s._value_, s._value_ + "*") for s in LineState}


class TraceMemory:
    """Bounded history of transactions (the monitor's trace DRAM).

    ``record(entry)`` is the bound ``append`` of the bounded ``_entries``
    deque (never rebound), so logging a transaction costs no Python frame.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._entries: Deque[Tuple] = deque(maxlen=capacity)
        self.record = self._entries.append

    def recent(self, n: int = 50):
        return list(self._entries)[-n:]

    def __len__(self) -> int:
        return len(self._entries)


class Monitor:
    """Aggregated monitoring hardware for one machine."""

    def __init__(
        self,
        address_range: Optional[Tuple[int, int]] = None,
        phase_filter: Optional[int] = None,
        trace_capacity: int = 4096,
    ) -> None:
        self.address_range = address_range
        self.phase_filter = phase_filter
        self.coherence_histogram = HistogramTable("mem state x txn")
        self.nc_histogram = HistogramTable("nc state x txn")
        self.originator_table = HistogramTable("txn x originator")
        self.phase_table = HistogramTable("txn x phase")
        self.trace = TraceMemory(trace_capacity)

    # ------------------------------------------------------------------
    def _in_scope(self, pkt: Packet) -> bool:
        if self.address_range is not None:
            lo, hi = self.address_range
            if not lo <= pkt.addr < hi:
                return False
        if self.phase_filter is not None:
            if pkt.meta.get("phase") != self.phase_filter:
                return False
        return True

    def record_txn(self, kind: str, station_id: int, pkt: Packet, rec) -> None:
        """Count one memory (``kind`` ``"mem"``, ``rec`` the directory
        entry) or network-cache (``"nc"``, ``rec`` the NC line or ``None``)
        transaction in scope: its line state against its type, its
        originator and phase, and an entry in the trace memory.  The
        monitoring PLDs watch the NC's bus port with the same originator
        and phase tables as the memory's.

        Each table count is :meth:`HistogramTable.record` written out in
        place, so a transaction costs no Python frame per table."""
        if (self.address_range is not None or self.phase_filter is not None) \
                and not self._in_scope(pkt):
            return
        # ``_name_`` is the enum member's slot: ``.name`` is a property call
        txn = pkt.mtype._name_
        requester = pkt.requester
        table = self.coherence_histogram if kind == "mem" else self.nc_histogram
        key = ("NotIn" if rec is None else _ROWS[rec.state][rec.locked], txn)
        half = table._halves[table.active]
        n = half[key] = half.get(key, 0) + 1
        if n >= table.overflow_limit:
            table._swap()
        table = self.originator_table
        key = (txn, requester)
        half = table._halves[table.active]
        n = half[key] = half.get(key, 0) + 1
        if n >= table.overflow_limit:
            table._swap()
        phase = pkt.meta.get("phase")
        if phase is not None:
            table = self.phase_table
            key = (txn, phase)
            half = table._halves[table.active]
            n = half[key] = half.get(key, 0) + 1
            if n >= table.overflow_limit:
                table._swap()
        self.trace.record((kind, station_id, txn, pkt.addr, requester))

    # ------------------------------------------------------------------
    def report(self) -> str:
        parts = [
            self.coherence_histogram.render(),
            "",
            self.nc_histogram.render(),
            "",
            self.originator_table.render(),
            "",
            self.phase_table.render(),
        ]
        return "\n".join(parts)
