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

from ..interconnect.packet import Packet
from .histogram import HistogramTable


class TraceMemory:
    """Bounded history of transactions (the monitor's trace DRAM)."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._entries: Deque[Tuple] = deque(maxlen=capacity)

    def record(self, entry: Tuple) -> None:
        self._entries.append(entry)

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

    # Both recorders read the enum members' ``_name_`` / ``_value_`` slots:
    # ``.name`` / ``.value`` are property calls, paid on every transaction.
    def record_memory_txn(self, station_id: int, pkt: Packet, entry) -> None:
        if not self._in_scope(pkt):
            return
        txn = pkt.mtype._name_
        lock = "*" if entry.locked else ""
        self.coherence_histogram.record(entry.state._value_ + lock, txn)
        self.originator_table.record(txn, pkt.requester)
        phase = pkt.meta.get("phase")
        if phase is not None:
            self.phase_table.record(txn, phase)
        self.trace.record(("mem", station_id, txn, pkt.addr, pkt.requester))

    def record_nc_txn(self, station_id: int, pkt: Packet, line) -> None:
        if not self._in_scope(pkt):
            return
        txn = pkt.mtype._name_
        if line is None:
            state = "NotIn"
        else:
            state = line.state._value_ + ("*" if line.locked else "")
        self.nc_histogram.record(state, txn)
        # same originator / phase attribution as memory transactions: the
        # monitoring PLDs watch the NC's bus port with identical tables
        self.originator_table.record(txn, pkt.requester)
        phase = pkt.meta.get("phase")
        if phase is not None:
            self.phase_table.record(txn, phase)
        self.trace.record(("nc", station_id, txn, pkt.addr, pkt.requester))

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
