import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from qpacking.classify import admissible_ks, classify, sector_arithmetic
from qpacking.geometry import make_sector
from qpacking.poly import (
    AlphaFormCoeffs,
    QuadPoly,
    doubled,
    format_factored,
    format_poly,
    packing_coefficients,
    packing_polynomial,
    step_difference,
    to_alpha_form,
)
from qpacking.verify import packing_window_verify

from helpers import (
    UnimodularMap,
    conjugate,
    coprime_sectors,
    parse_poly,
    product_poly,
    skew,
    skewed_form,
    unimodular_maps,
)

EX1 = QuadPoly(2, -2, Fraction(1, 2), 0, Fraction(1, 2), 0)
CANTOR_F = product_poly(Fraction(1, 2), (1, 0), (1, 1), 1, 0, 0)
CANTOR_G = product_poly(Fraction(1, 2), (1, 0), (1, 1), 0, 1, 0)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
quad_polys = st.builds(QuadPoly, *([rationals] * 6))


class TestEvaluate:
    def test_apex(self):
        assert EX1(0, 0) == 0

    def test_interior(self):
        assert EX1(1, 1) == 1
        assert EX1(3, 4) == 4

    def test_rational_point(self):
        assert EX1(Fraction(1, 2), 1) == Fraction(1, 2) - 1 + Fraction(1, 2) + Fraction(1, 2)


class TestAlphaForm:
    def test_cantor(self):
        assert to_alpha_form(CANTOR_F) == AlphaFormCoeffs(1, 1, 1, 2, 1, 0)

    def test_zero(self):
        assert to_alpha_form(QuadPoly(0, 0, 0, 0, 0, 0)) == AlphaFormCoeffs(0, 0, 0, 0, 0, 0)

    # a third at each coefficient in turn; the alpha form doubles those of x^2 and y^2,
    # and its first non-integer coefficient is named, the constant's as 1
    @pytest.mark.parametrize("index, monomial, value", [
        (0, "x^2", "2/3"), (1, "x*y", "1/3"), (2, "y^2", "2/3"), (3, "x", "1/3"), (4, "y", "1/3"), (5, "1", "1/3"),
    ], ids=["x2", "xy", "y2", "x", "y", "1"])
    def test_non_integral(self, index, monomial, value):
        coeffs = [0] * 6
        coeffs[index] = Fraction(1, 3)
        message = f"alpha-form coefficient at {monomial} is {value}, not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            to_alpha_form(QuadPoly(*coeffs))

    @given(*(st.integers(-60, 60) for _ in range(6)))
    def test_roundtrip(self, a, b, c, d, e, f):
        coeffs = AlphaFormCoeffs(a, b, c, d, e, f)
        assert to_alpha_form(coeffs.to_poly()) == coeffs

    @given(*(st.integers(-60, 60) for _ in range(6)))
    def test_doubled_is_twice_to_poly(self, a, b, c, d, e, f):
        coeffs = AlphaFormCoeffs(a, b, c, d, e, f)
        got = doubled(*coeffs)
        assert all(type(value) is int for value in got)
        assert got == tuple(2 * value for value in coeffs.to_poly())
        # 2p from the alpha basis itself, on six points that fix a quadratic
        for x, y in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            assert QuadPoly(*got)(x, y) == a * x * (x - 1) + 2 * b * x * y + c * y * (y - 1) + 2 * (d * x + e * y + f)


class TestConjugate:
    def test_skew_kills_mixed_terms(self):
        q = conjugate(EX1, skew(make_sector(4, 3)))
        assert q.c_xy == 0 and q.c_yy == 0

    @given(quad_polys)
    def test_identity(self, p):
        assert conjugate(p, UnimodularMap(1, 0, 0, 1)) == p

    @given(quad_polys, unimodular_maps)
    def test_roundtrip(self, p, m):
        assert conjugate(conjugate(p, m), m.inverse()) == p

    @given(quad_polys, unimodular_maps, unimodular_maps)
    def test_respects_composition(self, p, m1, m2):
        assert conjugate(p, m1 @ m2) == conjugate(conjugate(p, m2), m1)

    @given(quad_polys, unimodular_maps, st.integers(-6, 6), st.integers(-6, 6))
    def test_defining_property(self, p, m, x, y):
        q = conjugate(p, m)
        assert q(*m.apply((x, y))) == p(x, y)


class TestStepDifference:
    def test_sector_4_3(self):
        assert step_difference(EX1, sector_arithmetic(make_sector(4, 3))) == 1

    def test_cantor_signs(self):
        quadrant = make_sector(1, 0)
        assert step_difference(CANTOR_F, sector_arithmetic(quadrant)) == -1
        assert step_difference(CANTOR_G, sector_arithmetic(quadrant)) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_integral_ascending(self, n):
        f_n = product_poly(Fraction(n, 2), (0, 0), (0, -1), 1, 1, 0)
        assert step_difference(f_n, sector_arithmetic(make_sector(n, 1))) == 1

    def test_non_constant(self):
        with pytest.raises(ValueError, match=r"^step difference along \(1, 2\) is not constant: residual 2\*x \+ 0\*y$"):
            step_difference(QuadPoly(1, 0, 0, 0, 0, 0), sector_arithmetic(make_sector(4, 3)))


class TestPackingPolynomial:
    def test_sector_4_3(self):
        assert packing_polynomial(make_sector(4, 3), 1) == EX1

    def test_recovers_cantor(self):
        assert packing_polynomial(make_sector(1, 0), -1) == CANTOR_F
        assert packing_polynomial(make_sector(1, 0), 1) == CANTOR_G

    def test_12_7_with_constant(self):
        expected = product_poly(6, (Fraction(-1, 2), 0), (Fraction(-1, 2), Fraction(-3, 2)), 1, 1, 2)
        assert packing_polynomial(make_sector(12, 7), 3) == expected

    @given(st.integers(1, 10**6) | st.integers(10**999, 10**1000 - 1), st.integers(0, 10**6),
           st.sampled_from((1, -1, 2, -2, 3, -3)), st.lists(st.tuples(rationals, rationals), min_size=3, max_size=3))
    @example(10**999 + 7, 10**6 + 1, -3, [(Fraction(1, 3), Fraction(-7, 2)), (0, 1), (5, 0)])
    def test_coefficients_match_factored_form(self, n, m, k, points):
        # (n/2)(x - beta y)(x - beta y - kl/n) + x + ((kl - (m-1))/n) y + |k| - 1, evaluated as written
        # each coefficient is a (num, den) pair in lowest terms with den > 0, as str(Fraction) prints it
        pairs = packing_coefficients(n, m, k)
        assert all(gcd(num, den) == 1 and den > 0 for num, den in pairs)
        kl = k * gcd(m - 1, n)
        beta = Fraction(m - 1, n)
        poly = QuadPoly(*(Fraction(num, den) for num, den in pairs))
        for x, y in points:
            factored = (Fraction(n, 2) * (x - beta * y) * (x - beta * y - Fraction(kl, n))
                        + x + Fraction(kl - (m - 1), n) * y + abs(k) - 1)
            assert poly(x, y) == factored


class TestTransformedPolynomial:
    def test_matches_conjugation(self):
        s = make_sector(4, 3)
        assert skewed_form(s, 1, 0) == conjugate(packing_polynomial(s, 1), skew(s))

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_integral_sector(self, n):
        expected = product_poly(Fraction(n, 2), (0, 0), (0, -1), 1, 1, 0)
        s = make_sector(n, 1)
        assert conjugate(packing_polynomial(s, 1), skew(s)) == expected

    def test_12_7_y_coefficient(self):
        s = make_sector(12, 7)
        assert conjugate(packing_polynomial(s, 3), skew(s)).c_y == Fraction(3, 2)

    def test_rejects_non_divisible(self):
        # 3 does not divide l^2 = 1: the skewed y coefficient is 1/3, and the window check rejects it
        s = make_sector(3, 2)
        assert conjugate(packing_polynomial(s, 1), skew(s)).c_y == Fraction(1, 3)
        cert = packing_window_verify(packing_polynomial(s, 1), s, 12)
        assert not cert.ok and cert.failure.kind == "non_integral_value"
        assert classify(s) == []

    def test_conjugation_identity_all_small_sectors(self):
        for s in coprime_sectors(30, 30):
            if (s.m - 1) ** 2 % s.n != 0:
                continue
            m = skew(s)
            for k in (1, -1, 2, -2, 3, -3):
                conjugated = conjugate(packing_polynomial(s, k), m)
                assert conjugated == skewed_form(s, k, abs(k) - 1)


def forced_d(s, k):
    """The forced alpha-basis x-coefficient D = 1 + (n - kl)/2, with its skewed-lattice check."""
    d = 1 + Fraction(s.n - k * gcd(s.m - 1, s.n), 2)
    assert d.denominator == 1
    assert d - Fraction(s.n, 2) == skewed_form(s, k, 0).c_x
    return d


class TestForcedLinearCoefficient:
    def test_examples(self):
        assert to_alpha_form(packing_polynomial(make_sector(4, 3), 1)).D == 2
        assert to_alpha_form(packing_polynomial(make_sector(5, 1), 1)).D == 1
        assert to_alpha_form(packing_polynomial(make_sector(12, 7), 3)).D == -2

    def test_matches_alpha_form(self):
        for s in coprime_sectors(12, 12):
            # Every classified polynomial: the forced D is its alpha-form D.
            for entry in classify(s):
                assert forced_d(s, entry.k) == entry.alpha_form.D
            # The closed form for any k: D is c_x + c_xx, and an alpha form exists
            # unless k is inadmissible, in which case only the y coefficient fails.
            if (s.m - 1) ** 2 % s.n != 0:
                continue
            for k in (1, -1, 3, -3):
                p = packing_polynomial(s, k)
                d = forced_d(s, k)
                assert d == p.c_x + p.c_xx
                try:
                    alpha = to_alpha_form(p)
                except ValueError as exc:
                    assert k not in admissible_ks(sector_arithmetic(s))
                    assert re.fullmatch(r"alpha-form coefficient at y is -?\d+/\d+, not an integer", str(exc))
                else:
                    assert d == alpha.D


class TestRendering:
    def test_format(self):
        assert format_poly(EX1) == "2*x^2 - 2*x*y + 1/2*y^2 + 1/2*y"
        assert format_poly(QuadPoly(0, 0, 0, 0, 0, 0)) == "0"
        assert format_poly(QuadPoly(-1, 0, 0, 1, 0, -2)) == "-x^2 + x - 2"

    def test_factored(self):
        cases = [
            (12, 7, 3, "6*(x - 1/2*y)*(x - 1/2*y - 3/2) + x + y + 2"),
            (1, 0, -1, "1/2*(x + y)*(x + y + 1) + x"),
            (4, 1, 2, "2*x*(x - 2) + x + 2*y + 1"),
            # scale 1 (n = 2); a zero, a positive and a negative y coefficient in the tail; the constant
            # |k| - 1 for |k| = 2 and 3 and none for |k| = 1; a factor printed as x without parentheses
            (2, 3, 1, "(x - y)*(x - y - 1) + x"),
            (2, 3, -1, "(x - y)*(x - y + 1) + x - 2*y"),
            (2, 1, 1, "x*(x - 1) + x + y"),
            (9, 7, -1, "9/2*(x - 2/3*y)*(x - 2/3*y + 1/3) + x - y"),
            (4, 1, -2, "2*x*(x + 2) + x - 2*y + 1"),
            (3, 1, 3, "3/2*x*(x - 3) + x + 3*y + 2"),
            (12, 7, -3, "6*(x - 1/2*y)*(x - 1/2*y + 3/2) + x - 2*y + 2"),
        ]
        for n, m, k, text in cases:
            assert format_factored(sector_arithmetic(make_sector(n, m)), k) == text

    def test_parse_examples(self):
        assert parse_poly("2*x^2 - 2*x*y + 1/2*y^2 + 1/2*y") == EX1
        assert parse_poly("0") == QuadPoly(0, 0, 0, 0, 0, 0)
        assert parse_poly("-x^2 + x - 2") == QuadPoly(-1, 0, 0, 1, 0, -2)

    def test_parse_rejects(self):
        with pytest.raises(ValueError):
            parse_poly("2*z^2")
        with pytest.raises(ValueError):
            parse_poly("x + x")
        with pytest.raises(ValueError):
            parse_poly("")

    @given(quad_polys)
    def test_roundtrip(self, p):
        assert parse_poly(format_poly(p)) == p
