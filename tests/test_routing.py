"""Tests for hierarchical routing masks (paper §2.2, Fig. 3)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, MachineConfig
from repro.interconnect.packet import (
    ROUTE_ASCEND,
    ROUTE_DELIVER,
    ROUTE_TO_SEQ,
    MsgType,
    Packet,
)
from repro.interconnect.routing import Geometry, RoutingMaskCodec


@pytest.fixture
def proto():
    """The prototype's 4x4 two-level codec."""
    return RoutingMaskCodec(Geometry((4, 4)))


def test_geometry_counts():
    g = Geometry((4, 4))
    assert g.num_stations == 16
    assert g.num_processors == 64
    g1 = Geometry((5,), processors_per_station=2)
    assert g1.num_stations == 5
    assert g1.num_processors == 10


def test_geometry_coords_roundtrip():
    g = Geometry((4, 4))
    for sid in range(16):
        assert g.station_id(g.station_coords(sid)) == sid


def test_geometry_rejects_bad_levels():
    with pytest.raises(ValueError):
        Geometry(())
    with pytest.raises(ValueError):
        Geometry((0, 4))


def test_station_mask_single_bits(proto):
    # station 0 on ring 0: bit 0 of stations field, bit 0 of rings field
    assert proto.station_mask(0) == 0b0001_0001
    # station 1 on ring 1 => flat id 5: station bit 1, ring bit 1
    assert proto.station_mask(5) == 0b0010_0010


def test_single_station_roundtrip(proto):
    for sid in range(16):
        mask = proto.station_mask(sid)
        assert proto.is_single_station(mask)
        assert proto.single_station(mask) == sid


def test_paper_figure3_overspecification(proto):
    """Fig. 3: OR-ing {station 0, ring 0} and {station 1, ring 1} also
    selects {station 1, ring 0} and {station 0, ring 1}."""
    s_r0s0 = 0   # ring 0, station 0
    s_r1s1 = 5   # ring 1, station 1
    mask = proto.combine([s_r0s0, s_r1s1])
    selected = proto.stations(mask)
    assert selected == [0, 1, 4, 5]  # includes the two overspecified ones
    assert not proto.is_single_station(mask)


def test_selects_matches_stations_expansion(proto):
    mask = proto.combine([2, 7, 9])
    expanded = set(proto.stations(mask))
    for sid in range(16):
        assert proto.selects(mask, sid) == (sid in expanded)


def test_highest_level_needed(proto):
    # same ring targets need level 0; cross-ring need level 1
    assert proto.highest_level_needed(proto.station_mask(1), src_station=0) == 0
    assert proto.highest_level_needed(proto.station_mask(4), src_station=0) == 1
    both = proto.combine([1, 4])
    assert proto.highest_level_needed(both, src_station=0) == 1


def test_clear_upper(proto):
    mask = proto.combine([0, 5])
    cleared = proto.clear_upper(mask, 1)
    assert proto.field(cleared, 1) == 0
    assert proto.field(cleared, 0) == proto.field(mask, 0)


@pytest.mark.parametrize("levels", [(4, 4), (2, 2, 2)])
def test_send_routing_decision_matches_reference_exhaustively(levels):
    """Every mask from every source station: the precomputed ascend mask
    and the ring interface's send-side routing agree with
    highest_level_needed and clear_upper, which stay as the reference."""
    geometry = Geometry(levels, processors_per_station=1)
    machine = Machine(MachineConfig(geometry=geometry))
    codec = machine.codec
    for station in machine.stations:
        src = station.station_id
        sri = station.ring_interface
        for mask in range(1 << codec.total_bits):
            ascends = codec.highest_level_needed(mask, src) > 0
            assert bool(mask & codec.ascend_mask(src)) == ascends
            assert mask & codec.field_mask(0) == codec.clear_upper(mask, 1)
            for ordered in (False, True):
                pkt = Packet(mtype=MsgType.DATA_RESP, addr=0, src_station=src,
                             dest_mask=mask, ordered=ordered)
                sri._route_prep(pkt)
                if ascends:
                    assert (pkt.route_state, pkt.dest_mask) == (ROUTE_ASCEND, mask)
                else:
                    stay = ROUTE_TO_SEQ if ordered else ROUTE_DELIVER
                    assert pkt.route_state == stay
                    assert pkt.dest_mask == codec.clear_upper(mask, 1)


def _expand(geometry, mask):
    """The overspecified set without the codec: the cartesian product of
    the per-level fields, ascending."""
    per_level, shift = [], 0
    for width in geometry.levels:
        fld = (mask >> shift) & ((1 << width) - 1)
        per_level.append([i for i in range(width) if fld >> i & 1])
        shift += width
    return sorted(geometry.station_id(c) for c in itertools.product(*per_level))


@pytest.mark.parametrize("levels", [(4, 4), (4, 2, 2)])
def test_memoized_decodes_match_the_uncached_expansion(levels):
    """``stations`` and ``single_station`` are memoized per mask: on every
    mask, cold and warm, they agree with the product of the fields, and
    ``stations`` hands out a fresh list each call."""
    geometry = Geometry(levels)
    codec = RoutingMaskCodec(geometry)
    for _pass in ("cold", "warm"):
        for mask in range(1 << codec.total_bits):
            want = _expand(geometry, mask)
            got = codec.stations(mask)
            assert got == want
            got.append(-1)  # the caller's to change: the memo must not see it
            if len(want) == 1:
                assert codec.single_station(mask) == want[0]
            else:
                with pytest.raises(ValueError):
                    codec.single_station(mask)


# ----------------------------------------------------------------------
# property-based: the mask algebra on arbitrary geometries
# ----------------------------------------------------------------------
geometries = st.sampled_from([
    Geometry((4, 4)),
    Geometry((2, 2)),
    Geometry((3, 5)),
    Geometry((8,)),
    Geometry((2, 2, 2)),
])


@given(geometries, st.data())
@settings(max_examples=150, deadline=None)
def test_combine_is_superset_of_members(geom, data):
    """The OR-mask always selects at least the stations combined into it
    (the inexactness only ever ADDS stations, never loses one) — this is
    the property the coherence protocol's correctness rests on."""
    codec = RoutingMaskCodec(geom)
    members = data.draw(
        st.lists(st.integers(0, geom.num_stations - 1), min_size=1, max_size=6)
    )
    mask = codec.combine(members)
    selected = set(codec.stations(mask))
    assert set(members) <= selected
    for sid in members:
        assert codec.selects(mask, sid)


@given(geometries, st.data())
@settings(max_examples=150, deadline=None)
def test_overspecified_set_is_cartesian_product(geom, data):
    """The selected set equals the cartesian product of per-level fields."""
    codec = RoutingMaskCodec(geom)
    members = data.draw(
        st.lists(st.integers(0, geom.num_stations - 1), min_size=1, max_size=4)
    )
    mask = codec.combine(members)
    per_level = []
    for level in range(geom.num_levels):
        fld = codec.field(mask, level)
        per_level.append({i for i in range(geom.levels[level]) if fld >> i & 1})
    expected = set()
    for sid in range(geom.num_stations):
        coords = geom.station_coords(sid)
        if all(c in per_level[lvl] for lvl, c in enumerate(coords)):
            expected.add(sid)
    assert set(codec.stations(mask)) == expected


@given(geometries, st.data())
@settings(max_examples=100, deadline=None)
def test_single_station_masks_are_exact(geom, data):
    codec = RoutingMaskCodec(geom)
    sid = data.draw(st.integers(0, geom.num_stations - 1))
    mask = codec.station_mask(sid)
    assert codec.stations(mask) == [sid]


@given(geometries, st.data())
@settings(max_examples=100, deadline=None)
def test_mask_width_is_logarithmic(geom, data):
    """The paper's cost claim: mask bits = sum of level widths, not the
    product (station count)."""
    codec = RoutingMaskCodec(geom)
    assert codec.total_bits == sum(geom.levels)
    # strictly fewer bits than one-hot once the machine has >1 level
    if geom.num_levels > 1 and geom.num_stations > 4:
        assert codec.total_bits < geom.num_stations
