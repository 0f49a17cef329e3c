import random
import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpacking import cli, verify
from qpacking.classify import classify, forced_quadratic_coeffs, sector_arithmetic
from qpacking.geometry import make_sector
from qpacking.poly import AlphaFormCoeffs, QuadPoly, doubled, packing_polynomial
from qpacking.staircase import lattice_window
from qpacking.verify import (
    SearchBounds,
    _prescreen,
    _verdict,
    _window_dtype,
    brute_force_search,
    packing_window_verify,
    value_floor,
)

from helpers import (
    all_classified,
    coprime_sectors,
    reference_prescreen,
    reference_search,
    reference_tail_floor,
    reference_value_floor,
    reference_window_verify,
    skewed_form,
    staircase,
    window_for_threshold,
)

EX1 = packing_polynomial(make_sector(4, 3), 1)

# A full-mode box whose F range reaches below 0; at these small windows the
# search accepts many polynomials that classify() does not list.
SMALL_FULL_BOX = SearchBounds(a=(1, 2), b=(-2, 2), c=(0, 2), d=(-3, 3), e=(-3, 3), f=(-1, 3))

# The benchmark's search boxes.  5/2 is left out: it has no forced quadratic
# part, so its restricted search returns before any prescreen.
BENCH_RESTRICTED = SearchBounds(d=(-16, 16), e=(-16, 16), f=(0, 10))
BENCH_FULL = SearchBounds(a=(1, 3), b=(-3, 3), c=(0, 3), d=(-3, 3), e=(-3, 3), f=(0, 3))
BENCH_SEARCHES = [(n, m, BENCH_RESTRICTED, "restricted", 16) for n, m in ((12, 7), (9, 4), (1, 1), (25, 11))]
BENCH_SEARCHES += [(n, m, BENCH_FULL, "full", 12) for n, m in ((1, 1), (2, 1), (1, 0))]

# SMALL_FULL_BOX at windows small enough that its survivors fail in every way
# a survivor can: unbounded tail, tail below 0, coverage gap, threshold < t_min.
SMALL_FULL_SEARCHES = [(n, m, SMALL_FULL_BOX, "full", x_max) for n, m, x_max in
                       ((1, 1, 2), (2, 1, 2), (3, 1, 2), (1, 0, 1), (1, 0, 3))]

# Random coefficients almost never pack, so classified polynomials and their
# +1 shifts are drawn too, to reach the tail floor and the coverage check.
wide_rationals = st.builds(Fraction, st.integers(-10**30, 10**30) | st.integers(-12, 12), st.integers(1, 6))
random_cases = st.tuples(st.builds(QuadPoly, *[wide_rationals] * 6), st.sampled_from(coprime_sectors(8, 8)))
classified_cases = st.builds(
    lambda e, shift: (QuadPoly(*e.poly.coefficients()[:5], e.poly.c_0 + shift), e.sector),
    st.sampled_from(list(all_classified(8, 8))), st.integers(0, 1))


# For the tail floor: numerators small or up to 10^30 over denominators 1..6.
# Half of the polynomials have a positive semidefinite quadratic part, so that
# most floors are finite; see ``_semidefinite``.
floor_rationals = st.builds(Fraction, st.integers(-6, 6) | st.integers(-10**30, 10**30), st.integers(1, 6))
floor_weights = st.just(Fraction(0)) | floor_rationals.map(abs)
floor_drifts = st.just(Fraction(0)) | floor_rationals


def _semidefinite(s1, al, be, s2, ga, de, x0, y0, lin_x, lin_y, const) -> QuadPoly:
    """s1 (al X + be Y)^2 + s2 (ga X + de Y)^2 + lin_x x + lin_y y + const with
    (X, Y) = (x - x0, y - y0): rank one when s2 = 0, and without the linear
    part its minimum is at (x0, y0), often far out in the sector."""
    a, b, c = s1 * al * al + s2 * ga * ga, 2 * (s1 * al * be + s2 * ga * de), s1 * be * be + s2 * de * de
    return QuadPoly(a, b, c, lin_x - 2 * a * x0 - b * y0, lin_y - b * x0 - 2 * c * y0,
                    const + a * x0 * x0 + b * x0 * y0 + c * y0 * y0)


semidefinite_polys = st.builds(
    _semidefinite, floor_weights, floor_rationals, floor_rationals, floor_weights, floor_rationals,
    floor_rationals, floor_rationals, floor_rationals, floor_drifts, floor_drifts, floor_rationals)
floor_polys = st.builds(QuadPoly, *[floor_rationals] * 6) | semidefinite_polys
floor_sectors = st.just(make_sector(1, 0)) | st.sampled_from(coprime_sectors(9, 9))
floor_x_los = st.integers(0, 300)
small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _cleared(p: QuadPoly) -> tuple[int, ...]:
    """The coefficients of L*p, with L the lcm of p's coefficient denominators: the same floors up to the factor L."""
    scale = lcm(*(q.denominator for q in p.coefficients()))
    return tuple(q.numerator * (scale // q.denominator) for q in p.coefficients())


def _no_y2_quadrant_floor(p: QuadPoly, x_lo: int) -> Fraction | None:
    """The closed-form floor over the quadrant's x >= x_lo of a p with no y^2 term; None for -infinity.

    p is affine in y with slope c_xy x + c_y, which is >= 0 on all of x >= x_lo exactly when
    c_xy >= 0 and c_xy x_lo + c_y >= 0; the floor is then that of p(x, 0) over x >= x_lo.
    """
    if p.c_xy < 0 or p.c_xy * x_lo + p.c_y < 0:
        return None
    a, d, f = map(Fraction, (p.c_xx, p.c_x, p.c_0))  # int coefficients would divide into floats
    if a < 0 or (a == 0 and d < 0):
        return None
    if a > 0 and -d / (2 * a) > x_lo:
        return f - d * d / (4 * a)
    return a * x_lo * x_lo + d * x_lo + f


def _fraction(pair: tuple[int, int] | None) -> Fraction | None:
    return None if pair is None else Fraction(*pair)


class TestValueFloor:
    def test_slope_one_shifted(self):
        # 2 (x(x+1)/2 + y)
        assert _fraction(value_floor((1, 0, 0, 1, 2, 0), make_sector(1, 1), 3)) == 12

    def test_unbounded(self):
        assert value_floor((-1, 0, 0, 0, 0, 0), make_sector(4, 3), 0) is None

    def test_attained_at_origin(self):
        assert _fraction(value_floor((4, -4, 1, 0, 1, 0), make_sector(4, 3), 0)) == 0  # 2 EX1

    def test_indefinite_interior_direction(self):
        # positive on both boundary rays, negative along an interior direction
        assert value_floor((1, -3, 1, 0, 0, 0), make_sector(1, 0), 0) is None

    def test_kernel_valley_decreasing(self):
        assert value_floor((1, -2, 1, -1, 0, 0), make_sector(1, 0), 0) is None  # (x - y)^2 - x

    def test_kernel_valley_increasing(self):
        # (x - y)^2 + x, min on the x = 2 edge
        assert _fraction(value_floor((1, -2, 1, 1, 0, 0), make_sector(1, 0), 2)) == 2

    def test_interior_stationary_point(self):
        # (x - 4)^2 + (y - 2)^2 has its minimum strictly inside the sector
        assert _fraction(value_floor((1, 0, 1, -8, -4, 20), make_sector(1, 1), 0)) == 0

    def test_affine(self):
        assert _fraction(value_floor((0, 0, 0, 1, 1, 5), make_sector(2, 1), 3)) == 8
        assert value_floor((0, 0, 0, -1, 0, 0), make_sector(2, 1), 0) is None

    def test_stationary_point_left_of_the_quadrant(self):
        # a minimum, (x + 1)^2 + (y - 1)^2, whose quadrant infimum is 1, and a saddle of an
        # indefinite Hessian, x^2 + xy + 2x + y - 1, whose quadrant infimum is -1: both
        # stationary points lie at x < 0, outside the region, and must not count
        assert _fraction(value_floor((1, 0, 1, 2, -2, 2), make_sector(1, 0), 0)) == 1
        assert _fraction(value_floor((1, 1, 0, 2, 1, -1), make_sector(1, 0), 0)) == -1

    # The two quadrant cases above, which random draws rarely reach, and
    # x*y - y = y(x - 1) >= 0 on the quadrant's x >= 1, although it has no y^2
    # term and falls along the y-axis.
    @example((1, 0, 1, 2, -2, 2), make_sector(1, 0), 0)
    @example((1, 1, 0, 2, 1, -1), make_sector(1, 0), 0)
    @example((0, 1, 0, 0, -1, 0), make_sector(1, 0), 1)
    @settings(max_examples=1000, deadline=None)
    @given(floor_polys.map(_cleared), floor_sectors, floor_x_los)
    def test_matches_fraction_reference(self, coeffs, s, x_lo):
        assert _fraction(value_floor(coeffs, s, x_lo)) == reference_value_floor(QuadPoly(*coeffs), s, x_lo)

    # A rational edge x >= xn/k is the integer edge x' >= xn of k^2 p(x'/k, y'/k), cleared
    # by L; the cone is scale-invariant, so that floor over k^2 L is p's.
    @settings(max_examples=300, deadline=None)
    @given(floor_polys, floor_sectors, floor_x_los, st.integers(1, 7))
    def test_rational_edge_by_scaling(self, p, s, xn, k):
        a, b, c, d, e, f = p.coefficients()
        scaled = QuadPoly(a, b, c, d * k, e * k, f * k * k)
        scale = lcm(*(q.denominator for q in scaled.coefficients()))
        pair = value_floor(_cleared(scaled), s, xn)
        got = None if pair is None else Fraction(pair[0], pair[1] * scale * k * k)
        assert got == reference_value_floor(p, s, Fraction(xn, k))

    # On the quadrant the y-ray from (x_lo, 0) has slope c_xy x_lo + c_y, not c_y.
    @example((0, 1, 0, 0, -1, 0), 1)
    @example((0, 1, 0, 0, -1, 0), 2)
    @example((0, 2, 0, 0, -3, 5), 3)
    @settings(max_examples=500, deadline=None)
    @given(st.builds(QuadPoly, small_rationals, small_rationals, st.just(0), small_rationals, small_rationals,
                     small_rationals).map(_cleared), floor_x_los)
    def test_quadrant_without_y2_matches_closed_form(self, coeffs, x_lo):
        expected = _no_y2_quadrant_floor(QuadPoly(*coeffs), x_lo)
        assert _fraction(value_floor(coeffs, make_sector(1, 0), x_lo)) == expected

    def test_grid_never_undercuts(self):
        cases = [
            ((4, -4, 1, 0, 1, 0), make_sector(4, 3), 0),  # 2 EX1
            ((1, 0, 0, 1, 2, 0), make_sector(1, 1), 3),  # 2 (x(x+1)/2 + y)
            ((1, -2, 1, 1, 0, 0), make_sector(1, 0), 2),
            ((1, 0, 1, -8, -4, 20), make_sector(1, 1), 0),
            ((0, 1, 0, 0, -1, 0), make_sector(1, 0), 2),  # x*y - y, floor 0
            ((0, 2, 0, 0, -3, 5), make_sector(1, 0), 3),  # 2*x*y - 3*y + 5, floor 5
        ]
        quarter = Fraction(1, 4)
        for coeffs, s, x_lo in cases:
            p, exact = QuadPoly(*coeffs), _fraction(value_floor(coeffs, s, x_lo))
            samples = []
            for i in range(4 * x_lo, 4 * (x_lo + 12) + 1):
                x = i * quarter
                y_top = (s.n * x / s.m) if s.m else x + 12
                j = 0
                while j * quarter <= y_top:
                    samples.append(p(x, j * quarter))
                    j += 1
            grid_min = min(samples)
            assert exact <= grid_min
            assert grid_min - exact <= 1


class TestPackingWindowVerify:
    def test_classified_passes(self):
        cert = packing_window_verify(EX1, make_sector(4, 3), 30)
        assert cert.ok and cert.threshold >= 100

    def test_shifted_constant_gap_at_zero(self):
        shifted = QuadPoly(*EX1.coefficients()[:5], 1)
        cert = packing_window_verify(shifted, make_sector(4, 3), 30)
        assert not cert.ok
        assert cert.failure.kind == "coverage_gap" and cert.failure.missing == 0

    def test_cantor_passes(self):
        quadrant = make_sector(1, 0)
        for e in classify(quadrant):
            cert = packing_window_verify(e.poly, quadrant, 20)
            assert cert.ok

    def test_negative_value(self):
        p = QuadPoly(1, 0, 0, -10, 0, 0)
        cert = packing_window_verify(p, make_sector(2, 1), 8)
        assert not cert.ok and cert.failure.kind == "negative_value"
        assert cert.failure.witnesses

    def test_non_integral_value(self):
        p = QuadPoly(Fraction(1, 3), 0, 0, 0, 0, 0)
        cert = packing_window_verify(p, make_sector(2, 1), 5)
        assert not cert.ok and cert.failure.kind == "non_integral_value"

    def test_non_integral_value_too_long_for_str(self):
        # 3^10000 has 4,772 digits, more than str() converts
        p = QuadPoly(Fraction(1, 3 ** 10_000), 0, 0, 0, 0, 0)
        cert = packing_window_verify(p, make_sector(2, 1), 1)
        assert cert.failure.message == "value 6.12989172395E-4772 (rounded) at (1, 0) is not an integer"

    def test_collision(self):
        p = QuadPoly(0, 0, 0, 1, 1, 0)  # x + y collides immediately
        cert = packing_window_verify(p, make_sector(1, 1), 5)
        assert not cert.ok and cert.failure.kind == "collision"
        assert len(cert.failure.witnesses) == 2

    def test_unbounded_tail(self):
        p = QuadPoly(0, 0, 0, 1, -1, 0)  # x - y, nonnegative on slope-1 window but unbounded on the cone
        cert = packing_window_verify(p, make_sector(2, 1), 4)
        assert not cert.ok and cert.failure.kind in ("tail_unbounded", "collision")

    def test_refusals_build_no_window(self, monkeypatch):
        # a box over MAX_WINDOW_POINTS, and a Python-int window over MAX_WINDOW_BITS, are refused from their size alone
        def refuse(s, x_max):
            raise AssertionError(f"a window x <= {x_max} was built")

        monkeypatch.setattr(verify, "lattice_window", refuse)
        cantor = QuadPoly(Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), 0)
        with pytest.raises(ValueError, match="bounding box of 4004001 lattice points, more than the limit"):
            packing_window_verify(cantor, make_sector(1, 0), 2000)
        huge = QuadPoly(*(Fraction(1, 10**999 + d) for d in (7, 9, 13, 19, 21, 27)))
        with pytest.raises(ValueError, match="values of up to 19936 bits: more than the limit"):
            packing_window_verify(huge, make_sector(1, 1), 1999)

    @settings(max_examples=300, deadline=None)
    @given(random_cases | classified_cases, st.integers(1, 10))
    def test_matches_fraction_reference(self, case, x_max):
        p, s = case
        assert packing_window_verify(p, s, x_max) == reference_window_verify(p, s, x_max)

    # 2^k p with k up to 70 puts the window values of one case in every dtype
    # tier of ``_window_dtype``; a classified p scaled by 2^k, k >= 1, misses the value 1
    @settings(max_examples=300, deadline=None)
    @given(random_cases | classified_cases, st.integers(0, 70), st.integers(1, 10))
    @example((EX1, make_sector(4, 3)), 0, 10)  # int32, passes
    @example((EX1, make_sector(4, 3)), 20, 10)  # int64, coverage gap
    @example((EX1, make_sector(4, 3)), 70, 10)  # Python ints, coverage gap
    @example((QuadPoly(-1, 0, 0, 1, 0, 0), make_sector(1, 1)), 40, 3)  # int64, collision
    def test_scaled_matches_fraction_reference(self, case, k, x_max):
        p, s = case
        p = QuadPoly(*(2**k * c for c in p.coefficients()))
        assert packing_window_verify(p, s, x_max) == reference_window_verify(p, s, x_max)

    def test_values_beyond_int32_stay_exact(self):
        # x + 2^25 y takes 2^31 + 1 at (1, 64), which does not fit in int32
        p, s = QuadPoly(0, 0, 0, 1, 2**25, 0), make_sector(64, 1)
        assert verify.window_values(p, s, 1)[3].dtype == np.int64
        cert = packing_window_verify(p, s, 1)
        assert cert.ok
        assert cert == reference_window_verify(p, s, 1)

    def test_values_beyond_int64_stay_exact(self):
        # x + 2^57 y takes 1 + 2^63 at (1, 64), which does not fit in int64
        p, s = QuadPoly(0, 0, 0, 1, 2**57, 0), make_sector(64, 1)
        cert = packing_window_verify(p, s, 1)
        assert cert.ok
        assert cert == reference_window_verify(p, s, 1)

    # the bound cap (x_max + y_top + 1)^2 at x_max 1 is 9 cap on 1/1 (y_top 1) and 4 cap on 1/2 (y_top 0)
    @pytest.mark.parametrize("n, m, cap, dtype", [
        (1, 1, 119_304_647, np.int32),  # 2^30 - 1
        (1, 2, 2**28, np.int64),  # 2^30
        (1, 2, 2**60 - 1, np.int64),  # 2^62 - 4
        (1, 2, 2**60, object),  # 2^62
    ])
    def test_tier_boundaries(self, n, m, cap, dtype):
        s = make_sector(n, m)
        assert _window_dtype(s, 1, cap) is dtype
        # every coefficient at the cap: the largest value and partial sums the bound allows
        p = QuadPoly(*[cap] * 6)
        xs, ys, scale, vals, coeffs = verify.window_values(p, s, 1)
        assert xs.dtype == ys.dtype == vals.dtype == dtype and scale == 1 and coeffs == (cap,) * 6
        assert vals.tolist() == [int(p(x, y)) for x, y in zip(xs.tolist(), ys.tolist())]

    def test_int64_rows_are_views_of_the_lattice_block(self, monkeypatch):
        # the x and y rows of an int64 window are the rows of the lattice_window block, not a copy
        blocks = []

        def recorded(s, x_max):
            blocks.append(lattice_window(s, x_max))
            return blocks[-1]

        monkeypatch.setattr(verify, "lattice_window", recorded)
        xs, ys, *_ = verify.window_values(QuadPoly(2**40, 0, 0, 0, 0, 0), make_sector(12, 7), 120)
        assert xs.dtype == np.int64 and xs.flags.c_contiguous and ys.flags.c_contiguous
        assert np.shares_memory(xs, blocks[0]) and np.shares_memory(ys, blocks[0])

    @pytest.mark.parametrize("p, s, x_max, kind, witnesses, dtype", [
        # x - x^2 takes 0 at (0, 0) and (1, 0), then -2 at (2, 0), the smallest value of the window
        (QuadPoly(-1, 0, 0, 1, 0, 0), make_sector(1, 1), 3, "collision", ((0, 0), (1, 0)), np.int32),
        # -x/2 takes -1/2 at (1, 0), not an integer and negative: the integrality check comes first
        (QuadPoly(0, 0, 0, Fraction(-1, 2), 0, 0), make_sector(1, 1), 2, "non_integral_value", ((1, 0),), np.int32),
        # x - y takes 0 at (0, 0) and again at (1, 1), after (1, 0) with value 1
        (QuadPoly(0, 0, 0, 1, -1, 0), make_sector(1, 1), 2, "collision", ((0, 0), (1, 1)), np.int32),
        # 2^26 (x + y) takes 2^27 at (1, 1) and (2, 0); its bound 25 * 2^26 is past int32
        (QuadPoly(0, 0, 0, 2**26, 2**26, 0), make_sector(1, 1), 2, "collision", ((1, 1), (2, 0)), np.int64),
        # 2^60 (x + y) takes 2^61 at (1, 1) and (2, 0); its window needs Python ints
        (QuadPoly(0, 0, 0, 2**60, 2**60, 0), make_sector(1, 1), 2, "collision", ((1, 1), (2, 0)), object),
        # L = 2^70 with L p = x^2: the values fit in int64, L does not
        (QuadPoly(Fraction(1, 2**70), 0, 0, 0, 0, 0), make_sector(1, 1), 3, "non_integral_value", ((1, 0),), object),
    ], ids=["collision-before-negative", "non-integral-and-negative", "earliest-witness", "int64-collision",
            "object-collision", "denominator-beyond-int64"])
    def test_first_failure_matches_reference(self, p, s, x_max, kind, witnesses, dtype):
        assert verify.window_values(p, s, x_max)[3].dtype == dtype
        cert = packing_window_verify(p, s, x_max)
        assert cert == reference_window_verify(p, s, x_max)
        assert cert.failure.kind == kind and cert.failure.witnesses == witnesses

    def test_monotone_under_window_growth(self):
        rng = random.Random(20260809)
        pool = list(all_classified(12, 12))
        for e in rng.sample(pool, 50):
            x = window_for_threshold(e.sector, [e.poly], 50)
            small = packing_window_verify(e.poly, e.sector, x)
            large = packing_window_verify(e.poly, e.sector, x + 5)
            assert small.ok and large.ok
            assert large.threshold >= small.threshold


def first_steps_cover_range(s, k, f_const):
    """Whether the skewed form takes exactly {0, ..., k-1} on the lowest steps of staircases 0..k-1."""
    p, ar = skewed_form(s, k, f_const), sector_arithmetic(s)
    return sorted(p(Fraction(i, ar.v), ar.bottom(i)) for i in range(k)) == list(range(k))


class TestFirstSteps:
    def test_12_7(self):
        assert first_steps_cover_range(make_sector(12, 7), 3, 2)

    def test_k1(self):
        for s in coprime_sectors(10, 10):
            if (s.m - 1) ** 2 % s.n == 0:
                assert first_steps_cover_range(s, 1, 0)

    def test_wrong_constant(self):
        assert not first_steps_cover_range(make_sector(4, 1), 2, 0)
        assert first_steps_cover_range(make_sector(4, 1), 2, 1)


def span(rng, k):
    """A random integer range around 0 with ends of size at most k."""
    return -rng.randint(0, k), rng.randint(0, k)


def prescreen_inputs(s, bounds, mode, x_max):
    """(A, B, C) ranges and window arrays as ``brute_force_search`` hands them to ``_prescreen``."""
    if mode == "restricted":
        abc = [(c, c) for c in forced_quadratic_coeffs(sector_arithmetic(s))]
    else:
        abc = [bounds.a, bounds.b, bounds.c]
    dtype = _window_dtype(s, x_max, max(abs(v) for r in (bounds.d, bounds.e, bounds.f, *abc) for v in r))
    xs, ys = lattice_window(s, x_max).T.astype(dtype, copy=False)
    return abc, xs, ys


class TestBruteForceSearch:
    def test_4_3_matches_classify(self):
        got = brute_force_search(make_sector(4, 3), SearchBounds(d=(-10, 10), e=(-10, 10), f=(0, 10)),
                                 mode="restricted", x_max=25, t_min=0)
        assert [p.coefficients() for p in got] == sorted(e.poly.coefficients() for e in classify(make_sector(4, 3)))

    def test_3_2_empty(self):
        got = brute_force_search(make_sector(3, 2), SearchBounds(d=(-10, 10), e=(-10, 10), f=(0, 10)),
                                 mode="restricted", x_max=25, t_min=0)
        assert got == []

    def test_12_7_matches_classify(self):
        # the descending k = -3 polynomial has alpha D = 16, so the bounds
        # must reach that far for the full quadruple to appear
        got = brute_force_search(make_sector(12, 7), SearchBounds(d=(-16, 16), e=(-16, 16), f=(0, 10)),
                                 mode="restricted", x_max=25, t_min=0)
        assert [p.coefficients() for p in got] == sorted(e.poly.coefficients() for e in classify(make_sector(12, 7)))

    def test_9_4_single(self):
        got = brute_force_search(make_sector(9, 4), SearchBounds(d=(-12, 12), e=(-12, 12), f=(0, 8)),
                                 mode="restricted", x_max=30, t_min=0)
        assert len(got) == 1
        assert got == [e.poly for e in classify(make_sector(9, 4))]

    def test_threshold_filter(self):
        s = make_sector(4, 3)
        bounds = SearchBounds(d=(-6, 6), e=(-6, 6), f=(0, 6))
        x = window_for_threshold(s, [e.poly for e in classify(s)], 200)
        got = brute_force_search(s, bounds, mode="restricted", x_max=x, t_min=200)
        assert [p.coefficients() for p in got] == sorted(e.poly.coefficients() for e in classify(s))

    def test_refuses_window_beyond_int64(self):
        # y reaches 64 at x_max = 1, so E * y overflows although E * (x_max + 1)^2 does not
        bounds = SearchBounds(d=(1, 1), e=(2**57, 2**57), f=(0, 0))
        with pytest.raises(ValueError):
            brute_force_search(make_sector(64, 1), bounds, mode="restricted", x_max=1, t_min=0)

    def test_refusal_and_empty_search_build_no_window(self, monkeypatch):
        # the Python-int window of 2,001,000 points is refused from its size alone, and a sector
        # without forced A, B, C has nothing to scan
        def refuse(s, x_max):
            raise AssertionError(f"a window x <= {x_max} was built")

        monkeypatch.setattr(verify, "lattice_window", refuse)
        bounds = SearchBounds(a=(1, 1), b=(0, 0), c=(0, 0), d=(-1, 1), e=(-1, 1), f=(0, 10**15))
        with pytest.raises(ValueError, match="too large for exact 64-bit prescreening"):
            brute_force_search(make_sector(1, 1), bounds, mode="full", x_max=1999, t_min=0)
        bounds = SearchBounds(d=(-2, 2), e=(-2, 2), f=(0, 2))
        assert brute_force_search(make_sector(5, 2), bounds, mode="restricted", x_max=25, t_min=0) == []

    @pytest.mark.parametrize("n, m, bounds, mode, x_max, t_min", [
        (1, 1, SMALL_FULL_BOX, "full", 2, 0),
        (2, 1, SMALL_FULL_BOX, "full", 2, 0),
        (3, 1, SMALL_FULL_BOX, "full", 2, 0),
        (1, 0, SMALL_FULL_BOX, "full", 1, 0),
        (1, 1, SMALL_FULL_BOX, "full", 3, 2),
        (4, 3, SearchBounds(d=(-6, 6), e=(-6, 6), f=(-1, 6)), "restricted", 2, 0),
        # the window has 6 points, too few to certify {0..100}
        (4, 3, SearchBounds(d=(-6, 6), e=(-6, 6), f=(-1, 6)), "restricted", 2, 100),
    ], ids=["1-1", "2-1", "3-1", "1-0", "1-1-tmin-2", "4-3-restricted", "4-3-tmin-beyond-window"])
    def test_matches_certifying_every_candidate(self, n, m, bounds, mode, x_max, t_min):
        s = make_sector(n, m)
        got = brute_force_search(s, bounds, mode=mode, x_max=x_max, t_min=t_min)
        assert got == reference_search(s, bounds, mode, x_max, t_min)

    @pytest.mark.parametrize("sizes", ["default", "origin-sieve", "window-sieve", "one-row-blocks"])
    @pytest.mark.parametrize("n, m, bounds, mode, x_max", BENCH_SEARCHES,
                             ids=[f"{n}-{m}-{mode}" for n, m, _, mode, _ in BENCH_SEARCHES])
    def test_prescreen_matches_one_sort_per_candidate(self, monkeypatch, n, m, bounds, mode, x_max, sizes):
        # survivors are compared as (A..F) tuples in order, so a block row
        # mapped to the wrong (D, E) fails here even when no output changes;
        # the sieve is the default one, the origin alone or larger than the
        # window, and the last size sends the full window one row at a time
        abc, xs, ys = prescreen_inputs(make_sector(n, m), bounds, mode, x_max)
        name, value = {"origin-sieve": ("_SIEVE", 1), "window-sieve": ("_SIEVE", xs.size + 1),
                       "one-row-blocks": ("_BLOCK", xs.size)}.get(sizes, ("_SIEVE", verify._SIEVE))
        monkeypatch.setattr(verify, name, value)
        assert list(_prescreen(abc, bounds, xs, ys)) == list(reference_prescreen(abc, bounds, xs, ys))

    @pytest.mark.parametrize("n, m, bounds, mode, x_max, t_min", [
        (1, 1, SMALL_FULL_BOX, "full", 2, 0),
        (1, 1, SMALL_FULL_BOX, "full", 3, 2),
        (4, 3, SearchBounds(d=(-6, 6), e=(-6, 6), f=(-1, 6)), "restricted", 2, 0),
        (4, 3, SearchBounds(d=(-6, 6), e=(-6, 6), f=(-1, 6)), "restricted", 12, 5),
        # F = -min >= 0, as the window holds the origin; only these boxes drop F = 0
        (4, 3, SearchBounds(d=(-6, 6), e=(-6, 6), f=(1, 6)), "restricted", 12, 0),
        # (12, -6, 3, 16, -5) needs F = 2 on the window but only 1 on the sieve, so a sieve
        # that took F's lower end from the box would drop the survivor (12, -6, 3, 16, -5, 2, 21)
        (12, 7, SearchBounds(d=(-16, 16), e=(-16, 16), f=(2, 10)), "restricted", 16, 0),
    ], ids=["1-1", "1-1-tmin-2", "4-3-restricted", "4-3-tmin-5", "4-3-f-from-1", "12-7-f-from-2"])
    def test_block_boundaries(self, monkeypatch, n, m, bounds, mode, x_max, t_min):
        s = make_sector(n, m)
        default = brute_force_search(s, bounds, mode=mode, x_max=x_max, t_min=t_min)
        assert default == reference_search(s, bounds, mode, x_max, t_min)
        abc, xs, ys = prescreen_inputs(s, bounds, mode, x_max)
        survivors = list(reference_prescreen(abc, bounds, xs, ys))
        # one candidate per block, then full-window blocks of 5 with a short last
        # block (the (D, E) planes have 49, 169 and 1,089 points), each with a sieve of
        # the default size, of the origin alone and larger than the window
        for block in (1, 6 * xs.size - 1):
            for sieve in (verify._SIEVE, 1, xs.size + 1):
                monkeypatch.setattr(verify, "_BLOCK", block)
                monkeypatch.setattr(verify, "_SIEVE", sieve)
                assert list(_prescreen(abc, bounds, xs, ys)) == survivors
                assert brute_force_search(s, bounds, mode=mode, x_max=x_max, t_min=t_min) == default

    def test_prescreen_matches_reference_on_random_cases(self, monkeypatch):
        rng = random.Random(17)
        dtypes = set()
        sectors = coprime_sectors(12, 12)
        restricted = [s for s in sectors if forced_quadratic_coeffs(sector_arithmetic(s)) is not None]
        for _ in range(120):
            mode = rng.choice(["restricted", "full"])
            s = rng.choice(restricted if mode == "restricted" else sectors)
            f_lo = rng.randint(0, 1)
            # a quarter of the draws have an F bound large enough to make most windows int64
            wide = rng.random() < 0.25
            if mode == "restricted":
                f_hi = 2 ** 26 if wide else rng.randint(f_lo, 12)
                bounds = SearchBounds(d=span(rng, 8), e=span(rng, 8), f=(f_lo, f_hi))
            else:
                f_hi = 2 ** 26 if wide else rng.randint(f_lo, 6)
                bounds = SearchBounds(a=(1, rng.randint(1, 2)), b=span(rng, 2), c=(0, rng.randint(0, 2)),
                                      d=span(rng, 3), e=span(rng, 3), f=(f_lo, f_hi))
            abc, xs, ys = prescreen_inputs(s, bounds, mode, rng.randint(1, 10))
            dtypes.add(xs.dtype)
            survivors = list(reference_prescreen(abc, bounds, xs, ys))
            for sieve in (verify._SIEVE, 1, xs.size + 1):
                monkeypatch.setattr(verify, "_SIEVE", sieve)
                assert list(_prescreen(abc, bounds, xs, ys)) == survivors, (s, bounds, mode, sieve)
        # so both products of the prescreen are checked: float64 for int32 windows, int64 for int64 ones
        assert {np.dtype(np.int32), np.dtype(np.int64)} <= dtypes

    @pytest.mark.parametrize("rows", [1, 3])
    def test_float_products_are_exact_across_slices(self, rows):
        # 2 _BLOCK + 1 columns: one row is multiplied in slices of _BLOCK columns, the last
        # of one column, and three rows in slices of _BLOCK // 3; values stay below 2^30
        rng = np.random.default_rng(rows)
        coeffs = rng.integers(-2 ** 17, 2 ** 17, size=(rows, 5))
        terms = rng.integers(0, 2 ** 10, size=(5, 2 * verify._BLOCK + 1))
        got = verify._products(coeffs, terms.astype(np.float64))
        assert got.dtype == np.int32
        assert np.array_equal(got, coeffs @ terms)

    @pytest.mark.parametrize("cap, dtype", [(119_304_647, np.int32), (119_304_648, np.int64)])
    def test_prescreen_is_exact_at_the_int32_bound(self, cap, dtype):
        # on 1/1 at x_max 1 the bound of _window_dtype is 9 cap: 2^30 - 1, the largest int32 window, and
        # 2^30 + 8, an int64 one, at cap + 1.  The values are 0, D and B + D + E at the three points,
        # so F = -D is near 1.2e8, past the 2^24 up to which float32 holds every integer
        bounds = SearchBounds(a=(1, 1), b=(cap - 1, cap), c=(0, 0), d=(-cap, 1 - cap), e=(cap - 1, cap), f=(0, cap))
        abc, xs, ys = prescreen_inputs(make_sector(1, 1), bounds, "full", 1)
        assert xs.dtype == dtype
        survivors = list(_prescreen(abc, bounds, xs, ys))
        assert survivors == list(reference_prescreen(abc, bounds, xs, ys))
        assert len(survivors) == 8
        assert {F for *_, F, _ in survivors} == {cap - 1, cap}

    def test_sieve_sends_few_candidates_to_the_full_window(self, monkeypatch):
        # the bench's 2/1 full-mode search: 4,116 (A, B, C, D, E) candidates, of
        # which the sieve on the 24 points nearest the origin keeps 114
        abc, xs, ys = prescreen_inputs(make_sector(2, 1), BENCH_FULL, "full", 12)
        screen, rows = verify._screen, []

        def counted(coeffs, terms, *f_range):
            if terms.shape[1] == xs.size:  # the full window's screen, not the sieve's
                rows.append(len(coeffs))
            return screen(coeffs, terms, *f_range)

        monkeypatch.setattr(verify, "_screen", counted)
        survivors = list(_prescreen(abc, BENCH_FULL, xs, ys))
        assert survivors == list(reference_prescreen(abc, BENCH_FULL, xs, ys))
        assert 0 < sum(rows) < 0.1 * 4116

    def test_prescreen_memory_is_bounded_by_the_block(self):
        # 6,001 x 3 (D, E) candidates; no prescreen array may hold more than
        # _BLOCK values of 8 bytes (float64 products, int64 rows), so the
        # traced peak stays within a few blocks
        s = make_sector(4, 3)
        bounds = SearchBounds(d=(-3000, 3000), e=(-1, 1), f=(0, 1))
        tracemalloc.start()
        try:
            got = brute_force_search(s, bounds, mode="restricted", x_max=12, t_min=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 2
        assert peak < 12 * verify._BLOCK * 8

    @pytest.mark.parametrize("t_min", [None, 0, 5, "last"])
    @pytest.mark.parametrize("n, m, bounds, mode, x_max", BENCH_SEARCHES + SMALL_FULL_SEARCHES,
                             ids=[f"{n}-{m}-{mode}-x{x_max}" for n, m, _, mode, x_max in
                                  BENCH_SEARCHES + SMALL_FULL_SEARCHES])
    def test_in_block_verdict_matches_certificate(self, n, m, bounds, mode, x_max, t_min):
        # the search's verdict on each survivor's 2p is the certificate's, and it
        # accepts exactly the survivors certified to threshold >= t_min; None takes t_min
        # from the CLI's --tmin default, which accepts every certified survivor
        s = make_sector(n, m)
        abc, xs, ys = prescreen_inputs(s, bounds, mode, x_max)
        if t_min is None:
            t_min = cli.build_parser().parse_args(["search", "1", "1"]).tmin
        elif t_min == "last":
            t_min = xs.size - 1
        certified = []
        for *alpha, missing in _prescreen(abc, bounds, xs, ys):
            kind, pair, threshold = _verdict(doubled(*alpha), 2, s, x_max, missing)
            p = AlphaFormCoeffs(*alpha).to_poly()
            cert = packing_window_verify(p, s, x_max)
            assert (kind, threshold) == (cert.failure.kind if cert.failure else None, cert.threshold)
            assert cert.floor_bound == reference_tail_floor(p, s, x_max)
            assert cert.floor_bound == (None if pair is None else Fraction(pair[0], 2 * pair[1]))
            if cert.ok and cert.threshold >= t_min:
                certified.append(p)
        assert brute_force_search(s, bounds, mode=mode, x_max=x_max, t_min=t_min) == certified

    def test_in_block_verdict_cases_are_reached(self):
        # the differential test above sees every way a survivor fails, and on the
        # quadrant a survivor whose swapped tail floor is the smaller one
        s, x_max = make_sector(1, 0), 1
        abc, xs, ys = prescreen_inputs(s, SMALL_FULL_BOX, "full", x_max)
        outcomes, swapped_smaller = set(), 0
        for *alpha, missing in _prescreen(abc, SMALL_FULL_BOX, xs, ys):
            kind, _, threshold = _verdict(doubled(*alpha), 2, s, x_max, missing)
            # a passing survivor is accepted or not by t_min = xs.size - 1
            outcomes.add(kind or threshold >= xs.size - 1)
            p = AlphaFormCoeffs(*alpha).to_poly()
            # plain can be finite where the swapped strip, and so the tail, is unbounded
            plain, tail = reference_value_floor(p, s, x_max + 1), reference_tail_floor(p, s, x_max)
            swapped_smaller += plain is not None and tail is not None and tail < plain
        assert outcomes == {"tail_unbounded", "tail_below_zero", "coverage_gap", True, False}
        assert swapped_smaller

    def test_long_d_box(self):
        # 40,001 x 3 (D, E) candidates, about half of them prescreen survivors,
        # all but the two classified polynomials rejected inside the block
        s = make_sector(4, 3)
        bounds = SearchBounds(d=(-20000, 20000), e=(-1, 1), f=(0, 1))
        got = brute_force_search(s, bounds, mode="restricted", x_max=12, t_min=0)
        assert [p.coefficients() for p in got] == sorted(e.poly.coefficients() for e in classify(s))
        assert len(got) == 2

    def test_jobs_deterministic(self):
        s = make_sector(8, 5)
        bounds = SearchBounds(d=(-8, 8), e=(-8, 8), f=(0, 6))
        serial = brute_force_search(s, bounds, mode="restricted", x_max=20, t_min=0, jobs=1)
        parallel = brute_force_search(s, bounds, mode="restricted", x_max=20, t_min=0, jobs=3)
        assert serial == parallel
        assert len(serial) == 2


class TestStructuralConsequences:
    def test_first_step_height_of_k(self):
        for e in all_classified(12, 12):
            if e.k > 0:
                ar = sector_arithmetic(e.sector)
                assert ar.bottom(e.k) == ar.v - 1

    def test_staircase_congruences(self):
        for e in all_classified(12, 12):
            if abs(e.k) == 1:
                continue
            residues = {}
            for i in range(40 + abs(e.k) + 1):
                values = [e.poly(*pt) for pt in staircase(e.sector, i)]
                if not values:
                    continue
                classes = {v % abs(e.k) for v in values}
                assert len(classes) == 1
                residues[i] = classes.pop()
            for i, r in residues.items():
                if i + abs(e.k) in residues:
                    assert residues[i + abs(e.k)] == r
