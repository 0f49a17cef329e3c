from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qpacking.geometry import SectorSpec, make_sector
from qpacking.staircase import lattice_window

from helpers import UnimodularMap, coprime_sectors, flip, in_sector, skew, unimodular_maps


def is_integral(m: UnimodularMap) -> bool:
    return all(entry.denominator == 1 for entry in m)


class TestMakeSector:
    def test_plain(self):
        assert make_sector(4, 3) == SectorSpec(4, 3)

    def test_quadrant(self):
        s = make_sector(1, 0)
        assert (s.n, s.m) == (1, 0)

    def test_reduces(self):
        assert make_sector(8, 6) == SectorSpec(4, 3)
        assert make_sector(2, 0) == SectorSpec(1, 0)

    @pytest.mark.parametrize("n,m", [(0, 1), (-3, 2), (2, -1)])
    def test_rejects(self, n, m):
        with pytest.raises(ValueError):
            make_sector(n, m)


class TestSkewMap:
    def test_9_4(self):
        # the second ray (m, n) = (4, 9) goes to (1, 9), and the sector onto the sector of slope 9
        m = skew(make_sector(9, 4))
        assert m.apply((4, 9)) == (1, 9) and m.apply((1, 0)) == (1, 0)
        target = make_sector(9, 1)
        for pt in map(tuple, lattice_window(make_sector(9, 4), 8).tolist()):
            assert in_sector(target, *m.apply(pt))

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_integral_sector_is_identity(self, n):
        assert skew(make_sector(n, 1)) == UnimodularMap(1, 0, 0, 1)

    def test_quadrant_goes_to_slope_one(self):
        m = skew(make_sector(1, 0))
        target = make_sector(1, 1)
        for pt in map(tuple, lattice_window(make_sector(1, 0), 6).tolist()):
            x, y = m.apply(pt)
            assert in_sector(target, x, y)

    def test_inverse_roundtrip_on_lattice(self):
        # 100 deterministic sample points per sector
        for s in coprime_sectors(7, 7):
            m = skew(s)
            inv = m.inverse()
            for pt in map(tuple, lattice_window(s, 9)[:100].tolist()):
                assert inv.apply(m.apply(pt)) == tuple(map(Fraction, pt))


class TestFlipMap:
    def test_matrix(self):
        # flip(9) swaps the rays (1, 0) and (1, 9) of the sector of slope 9 and reverses orientation
        m = flip(9)
        assert m.apply((1, 0)) == (1, 9) and m.apply((1, 9)) == (1, 0)
        assert m.determinant == -1 and is_integral(m)

    def test_involution_example(self):
        m = flip(9)
        assert m.apply(m.apply((2, 5))) == (2, 5)

    def test_unit_sector_point(self):
        assert flip(1).apply((3, 1)) == (3, 2)

    @given(st.integers(1, 30), st.integers(-50, 50), st.integers(-50, 50))
    def test_involution(self, n, x, y):
        m = flip(n)
        assert m.apply(m.apply((x, y))) == (x, y)

    def test_maps_sector_to_itself(self):
        n = 4
        s = make_sector(n, 1)
        m = flip(n)
        for pt in map(tuple, lattice_window(s, 8).tolist()):
            x, y = m.apply(pt)
            assert in_sector(s, x, y)


class TestUnimodularMap:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            UnimodularMap(2, 0, 0, 1)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            UnimodularMap(1.0, 0, 0, 1)

    @given(unimodular_maps)
    def test_determinant_exact(self, m):
        assert m.determinant in (1, -1)

    @given(unimodular_maps, st.integers(-9, 9), st.integers(-9, 9))
    def test_inverse(self, m, x, y):
        assert m.inverse().apply(m.apply((x, y))) == (x, y)

    @given(unimodular_maps, unimodular_maps, st.integers(-9, 9), st.integers(-9, 9))
    def test_compose_order(self, m1, m2, x, y):
        assert (m1 @ m2).apply((x, y)) == m1.apply(m2.apply((x, y)))

    @given(unimodular_maps)
    def test_integral_map_preserves_lattice(self, m):
        # integer entries and determinant +-1: the inverse is integral too,
        # so the integer lattice maps onto itself
        assert is_integral(m)
        assert is_integral(m.inverse())
        for pt in [(0, 0), (1, 0), (2, 5), (-3, 4)]:
            x, y = m.apply(pt)
            assert x.denominator == 1 and y.denominator == 1
