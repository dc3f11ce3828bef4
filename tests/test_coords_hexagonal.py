"""Tests for the hexagonal coordinate system."""

import pytest
from hypothesis import given, strategies as st

from repro.coords.hexagonal import (
    HexCoord,
    HexDirection,
    axial_to_offset,
    cube_distance,
    offset_to_axial,
    offset_to_cube,
)

coords = st.builds(
    HexCoord, st.integers(-50, 50), st.integers(-50, 50)
)


class TestNeighborGeometry:
    def test_even_row_neighbors(self):
        c = HexCoord(3, 2)
        assert c.neighbor(HexDirection.NORTH_WEST) == HexCoord(2, 1)
        assert c.neighbor(HexDirection.NORTH_EAST) == HexCoord(3, 1)
        assert c.neighbor(HexDirection.SOUTH_WEST) == HexCoord(2, 3)
        assert c.neighbor(HexDirection.SOUTH_EAST) == HexCoord(3, 3)
        assert c.neighbor(HexDirection.EAST) == HexCoord(4, 2)
        assert c.neighbor(HexDirection.WEST) == HexCoord(2, 2)

    def test_odd_row_neighbors(self):
        c = HexCoord(3, 3)
        assert c.neighbor(HexDirection.NORTH_WEST) == HexCoord(3, 2)
        assert c.neighbor(HexDirection.NORTH_EAST) == HexCoord(4, 2)
        assert c.neighbor(HexDirection.SOUTH_WEST) == HexCoord(3, 4)
        assert c.neighbor(HexDirection.SOUTH_EAST) == HexCoord(4, 4)

    @given(coords)
    def test_six_distinct_neighbors(self, c):
        neighbors = [n for _, n in c.neighbors()]
        assert len(set(neighbors)) == 6
        assert c not in neighbors

    @given(coords, st.sampled_from(list(HexDirection)))
    def test_neighbor_symmetry(self, c, direction):
        neighbor = c.neighbor(direction)
        assert neighbor.neighbor(direction.opposite) == c

    @given(coords, st.sampled_from(list(HexDirection)))
    def test_direction_to_inverts_neighbor(self, c, direction):
        assert c.direction_to(c.neighbor(direction)) == direction

    def test_direction_to_non_adjacent_is_none(self):
        assert HexCoord(0, 0).direction_to(HexCoord(5, 5)) is None

    def test_incoming_outgoing_split(self):
        incoming = [d for d in HexDirection if d.is_incoming]
        outgoing = [d for d in HexDirection if d.is_outgoing]
        assert incoming == [HexDirection.NORTH_WEST, HexDirection.NORTH_EAST]
        assert outgoing == [HexDirection.SOUTH_WEST, HexDirection.SOUTH_EAST]

    def test_se_neighbor_aligns_with_port_shift(self):
        # SE of an even row keeps x; SE of an odd row increments x.
        assert HexCoord(2, 0).neighbor(HexDirection.SOUTH_EAST) == HexCoord(2, 1)
        assert HexCoord(2, 1).neighbor(HexDirection.SOUTH_EAST) == HexCoord(3, 2)


class TestConversions:
    @given(coords)
    def test_offset_axial_roundtrip(self, c):
        q, r = offset_to_axial(c)
        assert axial_to_offset(q, r) == c

    @given(coords)
    def test_cube_coordinates_sum_to_zero(self, c):
        x, y, z = offset_to_cube(c)
        assert x + y + z == 0

    @given(coords, coords)
    def test_distance_symmetric(self, a, b):
        assert a.distance(b) == b.distance(a)

    @given(coords)
    def test_distance_to_self_zero(self, c):
        assert c.distance(c) == 0

    @given(coords, st.sampled_from(list(HexDirection)))
    def test_neighbors_at_distance_one(self, c, direction):
        assert c.distance(c.neighbor(direction)) == 1

    @given(coords, coords, coords)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance(c) <= a.distance(b) + b.distance(c)

    def test_cube_distance(self):
        assert cube_distance((0, 0, 0), (2, -1, -1)) == 2


class TestPixels:
    def test_origin_at_zero(self):
        assert HexCoord(0, 0).to_pixel() == (0.0, 0.0)

    def test_odd_row_shifted_right(self):
        x0, _ = HexCoord(0, 0).to_pixel()
        x1, _ = HexCoord(0, 1).to_pixel()
        assert x1 > x0

    def test_rows_descend(self):
        _, y0 = HexCoord(0, 0).to_pixel()
        _, y1 = HexCoord(0, 2).to_pixel()
        assert y1 > y0
