from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpacking.classify import sector_arithmetic
from qpacking.geometry import make_sector
from qpacking.staircase import lattice_window

from helpers import coprime_sectors, in_sector, reference_window, skew, staircase

sectors = st.builds(make_sector, st.integers(1, 12), st.integers(0, 12))


def brute_first_step_y(s, i):
    """Oracle for the record's ``bottom(i)``: scan the residues for the defining congruence."""
    l = gcd(s.m - 1, s.n)
    v = s.n // l
    u = (s.m - 1) // l
    hits = [y for y in range(v) if (u * y + i) % v == 0]
    assert len(hits) == 1
    return hits[0]


class TestLatticeWindow:
    def test_4_3(self):
        assert lattice_window(make_sector(4, 3), 1).tolist() == [[0, 0], [1, 0], [1, 1]]

    def test_apex_only(self):
        for s in [make_sector(4, 3), make_sector(1, 0), make_sector(5, 1)]:
            assert lattice_window(s, 0).tolist() == [[0, 0]]

    def test_quadrant_box(self):
        assert len(lattice_window(make_sector(1, 0), 2)) == 9

    @given(sectors, st.integers(0, 12))
    def test_array_contract(self, s, x_max):
        window = lattice_window(s, x_max)
        assert window.dtype == np.int64 and window.ndim == 2 and window.shape[1] == 2
        assert window.T.flags.c_contiguous  # one (2, N) block: the x and y rows are read without a copy
        assert list(map(tuple, window.tolist())) == reference_window(s, x_max)

    def test_1000_digit_slope(self):
        # n x // m needs Python ints: n/m = (3*10^1000 + 1)/10^1000 is just above 3
        s = make_sector(3 * 10**1000 + 1, 10**1000)
        assert list(map(tuple, lattice_window(s, 4).tolist())) == reference_window(s, 4)
        assert len(lattice_window(s, 4)) == sum(3 * x + 1 for x in range(5))

    @given(sectors, st.integers(0, 12))
    def test_matches_inequalities(self, s, x_max):
        pts = list(map(tuple, lattice_window(s, x_max).tolist()))
        assert pts == sorted(pts)
        assert len(set(pts)) == len(pts)
        for x, y in pts:
            assert 0 <= x <= x_max
            assert in_sector(s, x, y)
            if s.m == 0:
                assert y <= x_max


def staircase_index(s, pt):
    """The i >= 0 with (m-1) y = n x - l i, asserted integral."""
    i, rem = divmod(s.n * pt[0] - (s.m - 1) * pt[1], sector_arithmetic(s).l)
    assert rem == 0 and i >= 0
    return i


class TestStaircaseIndex:
    def test_9_4(self):
        assert staircase_index(make_sector(9, 4), (1, 0)) == 3

    def test_apex(self):
        for s in coprime_sectors(6, 6):
            assert staircase_index(s, (0, 0)) == 0

    def test_quadrant(self):
        assert staircase_index(make_sector(1, 0), (2, 1)) == 3


def bottom(s, i):
    return sector_arithmetic(s).bottom(i)


class TestBottom:
    def test_zero(self):
        for s in coprime_sectors(8, 8):
            assert bottom(s, 0) == 0

    def test_12_7(self):
        assert bottom(make_sector(12, 7), 1) == 1

    def test_9_4(self):
        assert bottom(make_sector(9, 4), 1) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="staircase index must be >= 0"):
            bottom(make_sector(9, 4), -1)

    @given(sectors, st.integers(0, 60))
    def test_matches_brute_force(self, s, i):
        assert bottom(s, i) == brute_first_step_y(s, i)

    @given(sectors, st.integers(0, 40))
    def test_periodic(self, s, i):
        v = s.n // gcd(s.m - 1, s.n)
        assert bottom(s, i + v) == bottom(s, i)
        assert bottom(s, v * i) == 0

    @pytest.mark.parametrize("n, m", [
        (1, 0),  # the quadrant: v = 1, u = -1
        (10**1000 - 7, 10**999 + 1),  # l = 1, so v = n has 1,000 digits
        (3 * 10**999, 10**999 + 1),  # l = 10^999, v = 3, u = 1
        (2**3320, 2**1660 + 1),  # n = l^2 of 1,000 digits: v = l, u = 1
        (2**3320, 3 * 2**1661 + 1),  # n | l^2 with v = l/4 of 500 digits, u = 3
    ], ids=["quadrant", "v-is-n", "small-v", "n-is-l2", "v-divides-l"])
    def test_residue_range_and_period_at_any_size(self, n, m):
        # where brute_first_step_y's scan over [0, v) cannot run
        ar = sector_arithmetic(make_sector(n, m))
        assert ar.u * ar.l == m - 1 and ar.v * ar.l == n
        for i in [*range(8), ar.v - 1, ar.v, 3 * ar.v + 5, 10**1200 + 7]:
            y = ar.bottom(i)
            assert 0 <= y < ar.v
            assert (ar.u * y + i) % ar.v == 0
            assert ar.bottom(i + ar.v) == y


def skewed_steps(s, i):
    return [skew(s).apply(pt) for pt in staircase(s, i)]


class TestStaircasePoints:
    def test_9_4_transformed(self):
        assert skewed_steps(make_sector(9, 4), 3) == [(1, 0), (1, 3), (1, 6), (1, 9)]

    def test_12_7_transformed(self):
        assert skewed_steps(make_sector(12, 7), 1) == [
            (Fraction(1, 2), 1), (Fraction(1, 2), 3), (Fraction(1, 2), 5)]

    def test_index_zero(self):
        for s in coprime_sectors(5, 5):
            assert staircase(s, 0) == [(0, 0)]
            assert skewed_steps(s, 0) == [(0, 0)]

    def test_step_vector(self):
        for s in coprime_sectors(9, 9):
            l = gcd(s.m - 1, s.n)
            step = ((s.m - 1) // l, s.n // l)
            for i in range(12):
                pts = staircase(s, i)
                for p, q in zip(pts, pts[1:]):
                    assert (q[0] - p[0], q[1] - p[1]) == step

    def test_skew_image_matches_transformed(self):
        # a staircase can be empty when n does not divide l^2 (3/2, i = 1)
        for s in coprime_sectors(9, 9):
            v = sector_arithmetic(s).v
            for i in range(12):
                assert all(x == Fraction(i, v) for x, _ in skewed_steps(s, i))


class TestPartition:
    def test_partition_of_window(self):
        for s in coprime_sectors(10, 10):
            window = list(map(tuple, lattice_window(s, 30).tolist()))
            by_index: dict[int, list] = {}
            for pt in window:
                by_index.setdefault(staircase_index(s, pt), []).append(pt)
            for i, pts in by_index.items():
                assert set(pts) <= set(staircase(s, i))
            # staircases restricted to the window (a box on the quadrant) reproduce it exactly
            window_set = set(window)
            rebuilt = [p for i in range(max(by_index) + 1) for p in staircase(s, i) if p in window_set]
            assert sorted(rebuilt) == window


def size_formula(s, i):
    """The closed staircase size (l^2/n) i + [n/l | i]."""
    ar = sector_arithmetic(s)
    return ar.l2_over_n * i + (i % ar.v == 0)


class TestStaircaseSize:
    def test_12_7(self):
        assert len(staircase(make_sector(12, 7), 2)) == size_formula(make_sector(12, 7), 2) == 7

    def test_apex(self):
        for s in coprime_sectors(6, 6):
            assert len(staircase(s, 0)) == 1

    def test_formula_needs_divisibility(self):
        s = make_sector(8, 3)
        assert len(staircase(s, 3)) == 2
        assert size_formula(s, 3) == Fraction(3, 2)

    def test_formula_matches_when_divides(self):
        for s in coprime_sectors(10, 10):
            if (s.m - 1) ** 2 % s.n != 0:
                continue
            for i in range(101):
                assert len(staircase(s, i)) == size_formula(s, i)
