import json
from fractions import Fraction

from qpacking.atlas import atlas_to_json, build_atlas
from qpacking.classify import (
    admissible_ks,
    classify,
    forced_quadratic_coeffs,
    no_qpp_reason,
    sector_arithmetic,
)
from qpacking.geometry import SectorSpec, make_sector
from qpacking.poly import step_difference, to_alpha_form

from helpers import UnimodularMap, all_classified, conjugate, coprime_sectors, flip, product_poly, skew, skewed_form


def ks_of(n, m):
    return admissible_ks(sector_arithmetic(make_sector(n, m)))


def constant_term(ar, k):
    """The constant term (l^2/n)(|k|-1)(|k|+1)/12 forced by the sector's arithmetic."""
    return ar.l2_over_n * (abs(k) - 1) * (abs(k) + 1) / 12


def constant_of(n, m, k):
    return constant_term(sector_arithmetic(make_sector(n, m)), k)


def flipped_sector(s):
    """The sector whose skewed lattice is the flip of this one's: m' - 1 = -(m - 1) (mod n)."""
    return SectorSpec(s.n, (1 - s.m) % s.n + 1)


class TestSectorArithmetic:
    def test_12_7(self):
        ar = sector_arithmetic(make_sector(12, 7))
        assert (ar.n, ar.l, ar.v, ar.u, ar.l2_over_n, ar.divides_n_l2) == (12, 6, 2, 1, 3, True)

    def test_8_5(self):
        ar = sector_arithmetic(make_sector(8, 5))
        assert (ar.n, ar.l, ar.v, ar.u, ar.l2_over_n, ar.divides_n_l2) == (8, 4, 2, 1, 2, True)

    def test_3_2(self):
        ar = sector_arithmetic(make_sector(3, 2))
        assert ar.l == 1
        assert not ar.divides_n_l2

    def test_quadrant(self):
        ar = sector_arithmetic(make_sector(1, 0))
        assert (ar.n, ar.l, ar.v, ar.u, ar.l2_over_n, ar.divides_n_l2) == (1, 1, 1, -1, 1, True)


class TestForcedQuadraticCoeffs:
    def test_4_3(self):
        assert forced_quadratic_coeffs(sector_arithmetic(make_sector(4, 3))) == (4, -2, 1)

    def test_inadmissible(self):
        assert forced_quadratic_coeffs(sector_arithmetic(make_sector(3, 2))) is None

    def test_quadrant(self):
        assert forced_quadratic_coeffs(sector_arithmetic(make_sector(1, 0))) == (1, 1, 1)


class TestAdmissibleKs:
    def test_12_7(self):
        assert ks_of(12, 7) == [1, -1, 3, -3]

    def test_4_1(self):
        assert ks_of(4, 1) == [1, -1, 2, -2]

    def test_8_5(self):
        assert ks_of(8, 5) == [1, -1]

    def test_3_2_empty(self):
        assert ks_of(3, 2) == []

    def test_sign_matched_congruence(self):
        # n/l >= 3 separates the signs: 9/4 admits only the ascending k = 1,
        # its descending partner living on the flipped sector 9/7
        assert ks_of(9, 4) == [1]
        assert ks_of(9, 7) == [-1]
        assert ks_of(16, 5) == [1]

    def test_mixed_magnitudes(self):
        # l^2/n = 4 with n/l = 3 pairs k = 1 with k = -2
        assert ks_of(36, 13) == [1, -2]


class TestClassify:
    def test_4_3(self):
        entries = classify(make_sector(4, 3))
        assert [e.k for e in entries] == [1, -1]
        assert entries[0].poly.coefficients() == (2, -2, Fraction(1, 2), 0, Fraction(1, 2), 0)

    def test_12_7_exact(self):
        entries = classify(make_sector(12, 7))
        half = Fraction(1, 2)
        expected = {
            1: product_poly(6, (-half, 0), (-half, -half), 1, 0, 0),
            -1: product_poly(6, (-half, 0), (-half, half), 1, -1, 0),
            3: product_poly(6, (-half, 0), (-half, Fraction(-3, 2)), 1, 1, 2),
            -3: product_poly(6, (-half, 0), (-half, Fraction(3, 2)), 1, -2, 2),
        }
        assert {e.k: e.poly for e in entries} == expected

    def test_cantor_pair(self):
        entries = classify(make_sector(1, 0))
        cantor_f = product_poly(Fraction(1, 2), (1, 0), (1, 1), 1, 0, 0)
        cantor_g = product_poly(Fraction(1, 2), (1, 0), (1, 1), 0, 1, 0)
        assert {e.k: e.poly for e in entries} == {-1: cantor_f, 1: cantor_g}

    def test_3_2_empty(self):
        assert classify(make_sector(3, 2)) == []

    def test_9_4_single(self):
        entries = classify(make_sector(9, 4))
        assert len(entries) == 1 and entries[0].k == 1

    def test_counts(self):
        for s in coprime_sectors(16, 16):
            assert len(classify(s)) in (0, 1, 2, 4)

    def test_step_difference_consistency(self):
        for e in all_classified(10, 10):
            assert step_difference(e.poly, sector_arithmetic(e.sector)) == e.k

    def test_alpha_slope_relation(self):
        for e in all_classified(10, 10):
            a = e.alpha_form
            assert a.A > 0 and a.B * a.B == a.A * a.C
            if a.B == 1:
                assert e.sector.m == 0
            else:
                assert Fraction(a.A, 1 - a.B) == Fraction(e.sector.n, e.sector.m)

    def test_no_qpp_reason(self):
        # the reason is asked for only when classify's list is empty: 3 fails n | (m-1)^2, and 25/11,
        # with l^2/n = 1, passes it but admits no k
        reasons = {(3, 2): "3 does not divide (2-1)^2 = 1",
                   (25, 11): "no admissible k: the congruence and l^2/n conditions all fail"}
        for (n, m), reason in reasons.items():
            s = make_sector(n, m)
            assert classify(s) == []
            assert no_qpp_reason(s, sector_arithmetic(s)) == reason


class TestConstantTerm:
    def test_12_7_k3(self):
        assert constant_of(12, 7, 3) == 2

    def test_k1_always_zero(self):
        for s in coprime_sectors(8, 8):
            ar = sector_arithmetic(s)
            if 1 in admissible_ks(ar):
                assert constant_term(ar, 1) == 0

    def test_4_1_k2(self):
        assert constant_of(4, 1, 2) == 1

    def test_non_integral_signals(self):
        # l^2/n = 2 makes the 8/5 constant 2*1*3/12 non-integral, and k = 2 is not admissible there
        assert constant_of(8, 5, 2) == Fraction(1, 2)
        for s in coprime_sectors(12, 12):
            ar = sector_arithmetic(s)
            if ar.divides_n_l2:
                for k in (2, -2, 3, -3):
                    if constant_term(ar, k).denominator != 1:
                        assert k not in admissible_ks(ar)

    def test_equals_abs_k_minus_one(self):
        for e in all_classified(12, 12):
            assert e.alpha_form.F == abs(e.k) - 1
            assert constant_term(sector_arithmetic(e.sector), e.k) == abs(e.k) - 1


class TestCanonicalSector:
    @staticmethod
    def canonical_pairs(nmax: int, mmax: int) -> dict[tuple[int, int], tuple[int, int]]:
        rows = json.loads(atlas_to_json(build_atlas(nmax, mmax), nmax, mmax))["rows"]
        return {(row["n"], row["m"]): tuple(row["canonical_sector"]) for row in rows}

    def test_examples(self):
        # an atlas row names its shear representative (n, m mod n)
        canonical = self.canonical_pairs(12, 19)
        assert canonical[(3, 4)] == (3, 1)
        assert canonical[(12, 19)] == (12, 7)
        assert canonical[(4, 1)] == (4, 1)
        assert canonical[(1, 5)] == (1, 0)

    def test_shear_equivalence_of_classification(self):
        canonical = self.canonical_pairs(20, 20)
        for s in coprime_sectors(20, 20):
            canon = SectorSpec(s.n, s.m % s.n)
            assert canonical[(s.n, s.m)] == (canon.n, canon.m)
            entries = classify(s)
            canon_entries = classify(canon)
            assert [e.k for e in entries] == [e.k for e in canon_entries]
            t = -(s.m // s.n)
            shear = UnimodularMap(1, t, 0, 1)
            for mine, theirs in zip(entries, canon_entries):
                assert conjugate(mine.poly, shear) == theirs.poly


class TestFlipSymmetry:
    def test_flipped_sector(self):
        assert flipped_sector(make_sector(9, 4)) == make_sector(9, 7)
        assert flipped_sector(make_sector(9, 7)) == make_sector(9, 4)
        assert flipped_sector(make_sector(5, 1)) == make_sector(5, 1)
        assert flipped_sector(make_sector(1, 0)) == make_sector(1, 1)

    def test_flip_conjugation_swaps_sign(self):
        # skewing then flipping the k-polynomial gives the (-k)-polynomial of
        # the flipped sector, in its own skewed coordinates
        for s in coprime_sectors(12, 12):
            for e in classify(s):
                flipped = flipped_sector(s)
                check = conjugate(conjugate(e.poly, skew(s)), flip(s.n))
                assert check == skewed_form(s, -e.k, abs(e.k) - 1)
                partner_ks = [q.k for q in classify(flipped)]
                assert -e.k in partner_ks
                partner = next(q for q in classify(flipped) if q.k == -e.k)
                assert conjugate(partner.poly, skew(flipped)) == check

    def test_alpha_e_outliers(self):
        # these classified polynomials have alpha E outside [-15, 15]
        by_k = {e.k: e for e in classify(make_sector(1, 8))}
        assert to_alpha_form(by_k[1].poly).E == 22
        by_k = {e.k: e for e in classify(make_sector(1, 7))}
        assert to_alpha_form(by_k[1].poly).E == 16
        by_k = {e.k: e for e in classify(make_sector(3, 7))}
        assert to_alpha_form(by_k[3].poly).E == 16
        # and the widest alpha D at small scale
        by_k = {e.k: e for e in classify(make_sector(12, 7))}
        assert to_alpha_form(by_k[-3].poly).D == 16
