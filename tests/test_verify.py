import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpacking import (
    QuadPoly,
    SearchBounds,
    brute_force_search,
    classify,
    first_step_y,
    first_steps_cover_range,
    make_sector,
    packing_polynomial,
    packing_window_verify,
    skew_map,
    staircase_points,
    value_floor,
)

from helpers import (
    all_classified,
    coprime_sectors,
    reference_search,
    reference_window_verify,
    window_for_threshold,
)

EX1 = packing_polynomial(make_sector(4, 3), 1)

# A full-mode box whose F range reaches below 0; at these small windows the
# search accepts many polynomials that classify() does not list.
SMALL_FULL_BOX = SearchBounds(a=(1, 2), b=(-2, 2), c=(0, 2), d=(-3, 3), e=(-3, 3), f=(-1, 3))

# Random coefficients almost never pack, so classified polynomials and their
# +1 shifts are drawn too, to reach the tail floor and the coverage check.
wide_rationals = st.builds(Fraction, st.integers(-10**30, 10**30) | st.integers(-12, 12), st.integers(1, 6))
random_cases = st.tuples(st.builds(QuadPoly, *[wide_rationals] * 6), st.sampled_from(coprime_sectors(8, 8)))
classified_cases = st.builds(
    lambda e, shift: (QuadPoly(*e.poly.coefficients()[:5], e.poly.c_0 + shift), e.sector),
    st.sampled_from(list(all_classified(8, 8))), st.integers(0, 1))


class TestValueFloor:
    def test_slope_one_shifted(self):
        p = QuadPoly(Fraction(1, 2), 0, 0, Fraction(1, 2), 1, 0)  # x(x+1)/2 + y
        assert value_floor(p, make_sector(1, 1), 3) == 6

    def test_unbounded(self):
        assert value_floor(QuadPoly(-1, 0, 0, 0, 0, 0), make_sector(4, 3), 0) is None

    def test_attained_at_origin(self):
        assert value_floor(EX1, make_sector(4, 3), 0) == 0

    def test_indefinite_interior_direction(self):
        # positive on both boundary rays, negative along an interior direction
        p = QuadPoly(1, -3, 1, 0, 0, 0)
        assert value_floor(p, make_sector(1, 0), 0) is None

    def test_kernel_valley_decreasing(self):
        p = QuadPoly(1, -2, 1, -1, 0, 0)  # (x - y)^2 - x
        assert value_floor(p, make_sector(1, 0), 0) is None

    def test_kernel_valley_increasing(self):
        p = QuadPoly(1, -2, 1, 1, 0, 0)  # (x - y)^2 + x, min on the x = 2 edge
        assert value_floor(p, make_sector(1, 0), 2) == 2

    def test_interior_stationary_point(self):
        # (x - 4)^2 + (y - 2)^2 has its minimum strictly inside the sector
        p = QuadPoly(1, 0, 1, -8, -4, 20)
        assert value_floor(p, make_sector(1, 1), 0) == 0

    def test_affine(self):
        p = QuadPoly(0, 0, 0, 1, 1, 5)
        assert value_floor(p, make_sector(2, 1), 3) == 8
        assert value_floor(QuadPoly(0, 0, 0, -1, 0, 0), make_sector(2, 1), 0) is None

    def test_negative_x_min_means_whole_sector(self):
        assert value_floor(EX1, make_sector(4, 3), -5) == 0

    def test_grid_never_undercuts(self):
        cases = [
            (EX1, make_sector(4, 3), 0),
            (QuadPoly(Fraction(1, 2), 0, 0, Fraction(1, 2), 1, 0), make_sector(1, 1), 3),
            (QuadPoly(1, -2, 1, 1, 0, 0), make_sector(1, 0), 2),
            (QuadPoly(1, 0, 1, -8, -4, 20), make_sector(1, 1), 0),
        ]
        quarter = Fraction(1, 4)
        for p, s, x_min in cases:
            exact = value_floor(p, s, x_min)
            samples = []
            for i in range(4 * x_min, 4 * (x_min + 12) + 1):
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

    def test_collision(self):
        p = QuadPoly(0, 0, 0, 1, 1, 0)  # x + y collides immediately
        cert = packing_window_verify(p, make_sector(1, 1), 5)
        assert not cert.ok and cert.failure.kind == "collision"
        assert len(cert.failure.witnesses) == 2

    def test_unbounded_tail(self):
        p = QuadPoly(0, 0, 0, 1, -1, 0)  # x - y, nonnegative on slope-1 window but unbounded on the cone
        cert = packing_window_verify(p, make_sector(2, 1), 4)
        assert not cert.ok and cert.failure.kind in ("tail_unbounded", "collision")

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            packing_window_verify(EX1, make_sector(4, 3), 0)

    @settings(max_examples=300, deadline=None)
    @given(random_cases | classified_cases, st.integers(1, 10))
    def test_matches_fraction_reference(self, case, x_max):
        p, s = case
        assert packing_window_verify(p, s, x_max) == reference_window_verify(p, s, x_max)

    def test_values_beyond_int64_stay_exact(self):
        # x + 2^57 y takes 1 + 2^63 at (1, 64), which does not fit in int64
        p, s = QuadPoly(0, 0, 0, 1, 2**57, 0), make_sector(64, 1)
        cert = packing_window_verify(p, s, 1)
        assert cert.ok
        assert cert == reference_window_verify(p, s, 1)

    def test_monotone_under_window_growth(self):
        rng = random.Random(20260809)
        pool = list(all_classified(12, 12))
        for e in rng.sample(pool, 50):
            x = window_for_threshold(e.sector, [e.poly], 50)
            small = packing_window_verify(e.poly, e.sector, x)
            large = packing_window_verify(e.poly, e.sector, x + 5)
            assert small.ok and large.ok
            assert large.threshold >= small.threshold


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

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            first_steps_cover_range(make_sector(4, 1), -1, 0)


class TestBruteForceSearch:
    def test_4_3_matches_classify(self):
        got = brute_force_search(make_sector(4, 3), SearchBounds(d=(-10, 10), e=(-10, 10), f=(0, 10)), x_max=25)
        assert [p.coefficients() for p in got] == sorted(e.poly.coefficients() for e in classify(make_sector(4, 3)))

    def test_3_2_empty(self):
        got = brute_force_search(make_sector(3, 2), SearchBounds(d=(-10, 10), e=(-10, 10), f=(0, 10)), x_max=25)
        assert got == []

    def test_12_7_matches_classify(self):
        # the descending k = -3 polynomial has alpha D = 16, so the bounds
        # must reach that far for the full quadruple to appear
        got = brute_force_search(make_sector(12, 7), SearchBounds(d=(-16, 16), e=(-16, 16), f=(0, 10)), x_max=25)
        assert [p.coefficients() for p in got] == sorted(e.poly.coefficients() for e in classify(make_sector(12, 7)))

    def test_9_4_single(self):
        got = brute_force_search(make_sector(9, 4), SearchBounds(d=(-12, 12), e=(-12, 12), f=(0, 8)), x_max=30)
        assert len(got) == 1
        assert got == [e.poly for e in classify(make_sector(9, 4))]

    def test_threshold_filter(self):
        s = make_sector(4, 3)
        bounds = SearchBounds(d=(-6, 6), e=(-6, 6), f=(0, 6))
        x = window_for_threshold(s, [e.poly for e in classify(s)], 200)
        got = brute_force_search(s, bounds, x_max=x, t_min=200)
        assert [p.coefficients() for p in got] == sorted(e.poly.coefficients() for e in classify(s))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SearchBounds(d=(5, -5), e=(0, 0), f=(0, 0))

    def test_refuses_window_beyond_int64(self):
        # y reaches 64 at x_max = 1, so E * y overflows although E * (x_max + 1)^2 does not
        bounds = SearchBounds(d=(1, 1), e=(2**57, 2**57), f=(0, 0))
        with pytest.raises(ValueError):
            brute_force_search(make_sector(64, 1), bounds, x_max=1)

    def test_rejects_negative_t_min(self):
        # a negative t_min once indexed the sorted window values from the end
        # and pruned every candidate
        with pytest.raises(ValueError):
            brute_force_search(make_sector(4, 3), SearchBounds(d=(-6, 6), e=(-6, 6), f=(0, 6)), x_max=12, t_min=-1)

    def test_full_mode_needs_abc(self):
        with pytest.raises(ValueError):
            brute_force_search(make_sector(2, 1), SearchBounds(d=(0, 0), e=(0, 0), f=(0, 0)), mode="full")

    @pytest.mark.parametrize("n, m, bounds, mode, x_max, t_min", [
        (1, 1, SMALL_FULL_BOX, "full", 2, None),
        (2, 1, SMALL_FULL_BOX, "full", 2, None),
        (3, 1, SMALL_FULL_BOX, "full", 2, None),
        (1, 0, SMALL_FULL_BOX, "full", 1, None),
        (1, 1, SMALL_FULL_BOX, "full", 3, 2),
        (4, 3, SearchBounds(d=(-6, 6), e=(-6, 6), f=(-1, 6)), "restricted", 2, None),
        # the window has 6 points, too few to certify {0..100}
        (4, 3, SearchBounds(d=(-6, 6), e=(-6, 6), f=(-1, 6)), "restricted", 2, 100),
    ], ids=["1-1", "2-1", "3-1", "1-0", "1-1-tmin-2", "4-3-restricted", "4-3-tmin-beyond-window"])
    def test_matches_certifying_every_candidate(self, n, m, bounds, mode, x_max, t_min):
        s = make_sector(n, m)
        got = brute_force_search(s, bounds, mode=mode, x_max=x_max, t_min=t_min)
        assert got == reference_search(s, bounds, mode, x_max, t_min or 0)

    def test_jobs_deterministic(self):
        s = make_sector(8, 5)
        bounds = SearchBounds(d=(-8, 8), e=(-8, 8), f=(0, 6))
        serial = brute_force_search(s, bounds, x_max=20, jobs=1)
        parallel = brute_force_search(s, bounds, x_max=20, jobs=3)
        assert serial == parallel
        assert len(serial) == 2


class TestStructuralConsequences:
    def test_first_step_height_of_k(self):
        for e in all_classified(12, 12):
            if e.k > 0:
                ar_v = e.sector.n // __import__("math").gcd(e.sector.m - 1, e.sector.n)
                assert first_step_y(e.sector, e.k) == ar_v - 1

    def test_staircase_congruences(self):
        for e in all_classified(12, 12):
            if abs(e.k) == 1:
                continue
            hat = e.poly.conjugate(skew_map(e.sector))
            residues = {}
            for i in range(40 + abs(e.k) + 1):
                values = [hat(*pt) for pt in staircase_points(e.sector, i, transformed=True)]
                if not values:
                    continue
                classes = {v % abs(e.k) for v in values}
                assert len(classes) == 1
                residues[i] = classes.pop()
            for i, r in residues.items():
                if i + abs(e.k) in residues:
                    assert residues[i + abs(e.k)] == r
