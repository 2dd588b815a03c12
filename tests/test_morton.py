"""Morton code unit and property tests."""

import pytest
from hypothesis import given, strategies as st

from repro.util.morton import (
    FACE_OFFSETS,
    NEIGHBOR_OFFSETS,
    morton_children,
    morton_decode3,
    morton_encode3,
    morton_neighbors,
    morton_parent,
)

coords = st.integers(min_value=0, max_value=(1 << 20) - 1)


class TestEncodeDecode:
    def test_origin(self):
        assert morton_encode3(0, 0, 0) == 0

    def test_unit_vectors(self):
        assert morton_encode3(1, 0, 0) == 0b001
        assert morton_encode3(0, 1, 0) == 0b010
        assert morton_encode3(0, 0, 1) == 0b100

    def test_known_value(self):
        # x=3 (11), y=1 (01), z=2 (10): bits interleave z1 y1 x1 z0 y0 x0.
        assert morton_encode3(3, 1, 2) == 0b101011

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            morton_encode3(-1, 0, 0)
        with pytest.raises(ValueError):
            morton_decode3(-5)

    @given(coords, coords, coords)
    def test_round_trip(self, x, y, z):
        assert morton_decode3(morton_encode3(x, y, z)) == (x, y, z)

    @given(coords, coords, coords)
    def test_monotone_in_each_axis_at_origin(self, x, y, z):
        # Encoding is injective: two distinct coordinate triples never share
        # a code (checked via the round trip plus strict ordering on one).
        code = morton_encode3(x, y, z)
        if x > 0:
            assert morton_encode3(x - 1, y, z) != code

class TestHierarchy:
    @given(coords, coords, coords)
    def test_parent_of_children(self, x, y, z):
        code = morton_encode3(x, y, z)
        for child in morton_children(code):
            assert morton_parent(child) == code

    def test_children_are_distinct_and_ordered(self):
        kids = morton_children(5)
        assert kids == sorted(kids)
        assert len(set(kids)) == 8

    @given(coords, coords, coords)
    def test_parent_halves_coordinates(self, x, y, z):
        parent = morton_parent(morton_encode3(x, y, z))
        assert morton_decode3(parent) == (x // 2, y // 2, z // 2)

class TestNeighbors:
    def test_corner_has_seven_neighbors(self):
        # The corner octant of a level-1 grid touches 7 of the 8 octants.
        assert len(morton_neighbors(0, 1)) == 7

    def test_interior_has_26(self):
        code = morton_encode3(1, 1, 1)
        assert len(morton_neighbors(code, 2)) == 26

    def test_faces_only(self):
        code = morton_encode3(1, 1, 1)
        assert len(morton_neighbors(code, 2, faces_only=True)) == 6

    def test_level0_has_none(self):
        assert morton_neighbors(0, 0) == []

    @given(st.integers(min_value=1, max_value=5), coords, coords, coords)
    def test_neighbors_in_bounds_and_adjacent(self, level, x, y, z):
        n = 1 << level
        x, y, z = x % n, y % n, z % n
        code = morton_encode3(x, y, z)
        for ncode in morton_neighbors(code, level):
            nx, ny, nz = morton_decode3(ncode)
            assert 0 <= nx < n and 0 <= ny < n and 0 <= nz < n
            assert max(abs(nx - x), abs(ny - y), abs(nz - z)) == 1

    def test_offset_tables(self):
        assert len(NEIGHBOR_OFFSETS) == 26
        assert len(FACE_OFFSETS) == 6
        assert (0, 0, 0) not in NEIGHBOR_OFFSETS
