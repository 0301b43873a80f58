"""Directory storage for memory modules and network caches (paper §2.3).

The two-level directory is:

* **network level** (home memory): a full directory of *routing masks* per
  cache line — which stations may hold copies.  Because masks OR together
  (inexactly), the per-line cost grows only logarithmically with machine
  size.
* **station level**: a *processor mask* per line — which local processors
  hold copies.  Memory modules keep processor masks for local processors;
  network caches keep them for lines cached from remote homes.

Entries also carry the L/G + V/I state and the lock bit.  The directory is
conceptually SRAM; here it is a dict from line address to
:class:`DirEntry`, created on first touch (untouched memory is LV with no
sharers).

An ``exact_sharers`` option replaces the OR-mask with a true station set —
the ablation used by ``bench_ablation_routing_masks`` to measure what the
paper's inexactness costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from ..interconnect.routing import RoutingMaskCodec
from .states import LineState


@dataclass
class DirEntry:
    """One cache line's directory state.

    ``routing_mask`` is the network-level sharer encoding; when the owning
    module runs in *exact* mode, ``exact_stations`` carries the true set and
    the mask is derived from it on read.  ``pending`` holds the in-flight
    transaction record while the line is locked.
    """

    state: LineState
    routing_mask: int = 0
    proc_mask: int = 0
    locked: bool = False
    pending: Optional[Any] = None
    exact_stations: Optional[Set[int]] = None

    def __repr__(self) -> str:
        lock = "*" if self.locked else ""
        return (
            f"DirEntry({self.state.value}{lock} rmask={self.routing_mask:#b} "
            f"pmask={self.proc_mask:#b})"
        )


class Directory:
    """Per-module directory: line address -> :class:`DirEntry`."""

    def __init__(
        self,
        codec: RoutingMaskCodec,
        home_station: int,
        default_state: LineState,
        exact_sharers: bool = False,
    ) -> None:
        self.codec = codec
        self.home_station = home_station
        self.default_state = default_state
        self.exact_sharers = exact_sharers
        self._entries: Dict[int, DirEntry] = {}
        #: look without creating: the bound ``get`` of ``_entries`` (never
        #: rebound), so the checker's per-transaction peek costs no frame
        self.peek = self._entries.get

    def entry(self, line_addr: int) -> DirEntry:
        e = self._entries.get(line_addr)
        if e is None:
            e = DirEntry(state=self.default_state)
            if self.exact_sharers:
                e.exact_stations = set()
            self._entries[line_addr] = e
        return e

    def drop(self, line_addr: int) -> None:
        self._entries.pop(line_addr, None)

    # ------------------------------------------------------------------
    # sharer-set operations, mask-encoded or exact
    # ------------------------------------------------------------------
    def add_station(self, entry: DirEntry, station_id: int) -> None:
        entry.routing_mask |= self.codec.station_mask(station_id)
        if entry.exact_stations is not None:
            entry.exact_stations.add(station_id)

    def set_station(self, entry: DirEntry, station_id: int) -> None:
        entry.routing_mask = self.codec.station_mask(station_id)
        if entry.exact_stations is not None:
            entry.exact_stations = {station_id}

    def clear_stations(self, entry: DirEntry) -> None:
        entry.routing_mask = 0
        if entry.exact_stations is not None:
            entry.exact_stations = set()

    def sharer_mask(self, entry: DirEntry) -> int:
        """The mask used to address sharers.  In exact mode this is the OR
        of exactly the true sharer stations (still mask-encoded for the ring,
        but never wider than the true set union — the per-line *storage* in
        exact mode is the full set, which is what the ablation costs out)."""
        if entry.exact_stations is not None:
            return self.codec.combine(entry.exact_stations)
        return entry.routing_mask

    def may_have_copy(self, entry: DirEntry, station_id: int) -> bool:
        """Would the directory route an invalidation to ``station_id``?
        Inexact masks can say yes for stations that hold nothing."""
        if entry.exact_stations is not None:
            return station_id in entry.exact_stations
        if entry.routing_mask == 0:
            return False
        return self.codec.selects(entry.routing_mask, station_id)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def lines(self):
        return self._entries.items()
