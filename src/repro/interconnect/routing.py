"""Hierarchical routing masks (paper §2.2).

A routing mask has one bit-field per level of the ring hierarchy.  For the
prototype's two-level 4x4 geometry the mask is 8 bits: a 4-bit *ring* field
(which local rings) and a 4-bit *station* field (which station positions on
those rings).  A single station sets exactly one bit per field; a multicast
destination set is formed by OR-ing station masks, which may *overspecify*
(Fig. 3): OR-ing {ring 0, station 0} with {ring 1, station 1} also selects
{ring 0, station 1} and {ring 1, station 0}.

The same masks double as the network-level directory entries, which is why
the per-cache-line directory cost grows only logarithmically with system
size.  :class:`RoutingMaskCodec` performs all encode/decode/inexactness
operations on plain ints so they are cheap enough to use on every packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class Geometry:
    """Machine geometry: ``levels[0]`` is stations per local ring,
    ``levels[1]`` local rings on the central ring, and so on upward.

    The prototype is ``Geometry((4, 4))`` = 16 stations, 64 processors with
    4 CPUs per station.  A single-ring machine is ``Geometry((n,))``.
    """

    levels: Tuple[int, ...]
    processors_per_station: int = 4

    def __post_init__(self) -> None:
        if not self.levels or any(n < 1 for n in self.levels):
            raise ValueError(f"invalid geometry levels {self.levels}")

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def num_stations(self) -> int:
        n = 1
        for width in self.levels:
            n *= width
        return n

    @property
    def num_processors(self) -> int:
        return self.num_stations * self.processors_per_station

    def station_coords(self, station_id: int) -> Tuple[int, ...]:
        """Decompose a flat station id into per-level positions,
        lowest level first (station-on-ring, ring-on-central, ...)."""
        if not 0 <= station_id < self.num_stations:
            raise ValueError(f"station {station_id} out of range")
        coords = []
        rest = station_id
        for width in self.levels:
            coords.append(rest % width)
            rest //= width
        return tuple(coords)

    def station_id(self, coords: Sequence[int]) -> int:
        sid = 0
        for width, c in zip(reversed(self.levels), reversed(list(coords))):
            if not 0 <= c < width:
                raise ValueError(f"coordinate {c} out of range for width {width}")
            sid = sid * width + c
        return sid


class RoutingMaskCodec:
    """Encode/decode routing masks for a given :class:`Geometry`.

    Masks are ints.  Field for level 0 (stations) occupies the low bits;
    each higher level is shifted left by the widths below it.
    """

    def __init__(self, geometry: Geometry) -> None:
        self.geometry = geometry
        self._shifts: List[int] = []
        shift = 0
        for width in geometry.levels:
            self._shifts.append(shift)
            shift += width
        self.total_bits = shift
        self._field_masks = [
            ((1 << width) - 1) << sh
            for width, sh in zip(geometry.levels, self._shifts)
        ]
        # per-station lookup tables: coords and masks are consulted on every
        # packet routing decision and are pure functions of the station id
        self._station_coords = [
            geometry.station_coords(s) for s in range(geometry.num_stations)
        ]
        self._station_masks = []
        for coords in self._station_coords:
            mask = 0
            for coord, sh in zip(coords, self._shifts):
                mask |= 1 << (sh + coord)
            self._station_masks.append(mask)
        # a target differs from the source at some level above 0 exactly
        # when the mask has an upper-field bit the source's own mask lacks
        upper = sum(self._field_masks[1:])
        self._ascend_masks = [upper & ~mask for mask in self._station_masks]
        # per-mask memos of the two decodes home memory runs on its
        # directory masks (pure functions of the mask; a geometry has at
        # most 2**total_bits masks)
        self._stations: Dict[int, Tuple[int, ...]] = {}
        self._single: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def station_mask(self, station_id: int) -> int:
        """The unique routing mask with one bit per field for a station."""
        return self._station_masks[station_id]

    def combine(self, station_ids: Iterable[int]) -> int:
        """OR together station masks — the paper's (inexact) multicast set."""
        mask = 0
        for sid in station_ids:
            mask |= self.station_mask(sid)
        return mask

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def field(self, mask: int, level: int) -> int:
        """Extract the bit-field for one hierarchy level (unshifted)."""
        return (mask & self._field_masks[level]) >> self._shifts[level]

    def stations(self, mask: int) -> List[int]:
        """All stations selected by ``mask`` (the overspecified set: the
        cartesian product of the per-level fields), ascending, as a fresh
        list the caller may keep or change.  The expansion is memoized per
        mask: a station is in the product exactly when ``mask`` selects it."""
        sel = self._stations.get(mask)
        if sel is None:
            masks = self._station_masks
            sel = self._stations[mask] = tuple(
                s for s, smask in enumerate(masks) if mask & smask == smask
            )
        return list(sel)

    def selects(self, mask: int, station_id: int) -> bool:
        """Does ``mask`` select ``station_id``?  (O(levels), no expansion.)

        Equivalent to ``mask & station_mask == station_mask`` — every field
        must have the station's bit set."""
        smask = self._station_masks[station_id]
        return mask & smask == smask

    def is_single_station(self, mask: int) -> bool:
        """True when exactly one bit is set in every field."""
        for level in range(self.geometry.num_levels):
            fld = self.field(mask, level)
            if fld == 0 or fld & (fld - 1):
                return False
        return True

    def single_station(self, mask: int) -> int:
        """Decode a point-to-point mask to its station id (memoized per
        mask; a mask that is not a single station raises every time)."""
        sid = self._single.get(mask)
        if sid is None:
            if not self.is_single_station(mask):
                raise ValueError(f"mask {mask:#x} is not a single station")
            coords = []
            for level in range(self.geometry.num_levels):
                coords.append(self.field(mask, level).bit_length() - 1)
            sid = self._single[mask] = self.geometry.station_id(coords)
        return sid

    # ------------------------------------------------------------------
    # routing decisions (paper §2.2 ascend/descend rules)
    # ------------------------------------------------------------------
    def highest_level_needed(self, mask: int, src_station: int) -> int:
        """The highest hierarchy level a packet from ``src_station`` must
        ascend to in order to reach every station in ``mask``.

        Level 0 means all targets are on the source's local ring; level k
        means the packet must climb to the ring at level k.  This is where
        the packet *turns around* and starts descending, and (for
        invalidations) where the sequencing point orders it.
        """
        src_coords = self._station_coords[src_station]
        top = 0
        for level in range(self.geometry.num_levels - 1, 0, -1):
            # Targets differing from the source at `level` or above require
            # ascending to that level.
            fld = self.field(mask, level)
            if fld & ~(1 << src_coords[level]):
                top = level
                break
        return top

    def ascend_mask(self, src_station: int) -> int:
        """The upper-field bits that send a packet from ``src_station`` up
        the hierarchy: ``mask & ascend_mask(s)`` is non-zero exactly when
        ``highest_level_needed(mask, s) > 0``.  A station ring interface
        binds its own once, so the per-send routing decision is one AND;
        a packet that stays is cleared with ``mask & field_mask(0)``, which
        equals ``clear_upper(mask, 1)``."""
        return self._ascend_masks[src_station]

    def field_mask(self, level: int) -> int:
        """The bits of one hierarchy level's field, in place."""
        return self._field_masks[level]

    def clear_upper(self, mask: int, level: int) -> int:
        """When a packet is switched down past ``level``, all bits in the
        fields above are cleared (paper: 'all bits in the higher-level field
        are cleared to zero')."""
        out = mask
        for lv in range(level, self.geometry.num_levels):
            out &= ~self._field_masks[lv]
        return out
