import csv
import io
import json
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from qpacking import atlas, poly
from qpacking import classify as classify_module
from qpacking.atlas import AtlasRow, atlas_to_csv, atlas_to_json, build_atlas, summary_line
from qpacking.classify import admissible_ks, classify, sector_arithmetic
from qpacking.geometry import SectorSpec
from qpacking.poly import QuadPoly, packing_polynomial, to_alpha_form

from helpers import coprime_sectors, reference_atlas_csv, reference_atlas_json, reference_atlas_payload

F = Fraction

# Rows with 0, 1, 2 and 4 polynomials, negative ks and coefficients, and
# numbers of several digits; the values need not form a real classification.
HAND_ROWS = [
    AtlasRow(3, 2, 1, 3, F(1, 3), 0, (), (), (3, 2)),
    AtlasRow(9, 4, 3, 3, F(1), 1, (1,), ((F(9, 2), F(-3), F(1, 2), F(-1, 2), F(1, 2), F(0)),), (9, 4)),
    AtlasRow(4, 3, 2, 2, F(1), 2, (1, -1),
             ((F(2), F(-2), F(1, 2), F(0), F(1, 2), F(0)), (F(2), F(-2), F(1, 2), F(2), F(-3, 2), F(0))), (4, 3)),
    AtlasRow(1234, 5679, 617, 2, F(-380689, 1234), 4, (1, -1, 3, -3),
             tuple((F(-k * 1000003, 7), F(k), F(0), F(-1, 10**12), F(k, 3), F(abs(k) - 1)) for k in (1, -1, 3, -3)),
             (1234, 743)),
]


ROW_SETS = pytest.mark.parametrize("rows, nmax, mmax", [
    (build_atlas(30, 30), 30, 30),
    (build_atlas(1, 1), 1, 1),
    (build_atlas(12, 5), 12, 5),
    (HAND_ROWS, 7, 9),
    (HAND_ROWS[:1], 1, 1),
    ([], 1, 1),
], ids=["30x30", "1x1", "12x5", "hand-rows", "one-empty-row", "no-rows"])


@ROW_SETS
def test_json_matches_json_dumps_reference(rows, nmax, mmax):
    text = atlas_to_json(rows, nmax, mmax)
    assert text == reference_atlas_json(rows, nmax, mmax)
    assert json.loads(text) == reference_atlas_payload(rows, nmax, mmax)


@ROW_SETS
def test_csv_matches_csv_writer_reference(rows, nmax, mmax):
    text = atlas_to_csv(rows)
    assert text == reference_atlas_csv(rows)
    fields = [[str(row.n), str(row.m), str(row.l), str(row.n_over_l), str(row.l2_over_n), str(row.qpp_count),
               " ".join(str(k) for k in row.ks), str(row.canonical[0]), str(row.canonical[1]),
               ";".join(" ".join(str(c) for c in poly) for poly in row.polynomials)] for row in rows]
    assert list(csv.reader(io.StringIO(text))) == [
        ["n", "m", "l", "n_over_l", "l2_over_n", "qpp_count", "ks", "canonical_n", "canonical_m", "polynomials"],
        *fields,
        [f"# {summary_line(rows)}"],
    ]


@pytest.mark.parametrize("nmax, mmax", [(40, 40), (60, 7), (7, 60), (1, 50), (50, 1)])
def test_rows_match_public_classification(nmax, mmax):
    # n > mmax + 1 leaves the classes past mmax without a row; n = 1 has the one class m mod 1 = 0
    rows = build_atlas(nmax, mmax)
    assert [(row.n, row.m) for row in rows] == [(s.n, s.m) for s in coprime_sectors(nmax, mmax)]
    for row in rows:
        s = SectorSpec(row.n, row.m)
        ar = sector_arithmetic(s)
        entries = classify(s)
        assert (row.l, row.n_over_l, row.l2_over_n) == (ar.l, ar.n_over_l, ar.l2_over_n)
        assert row.qpp_count == len(entries)
        assert row.ks == tuple(e.k for e in entries)
        assert row.polynomials == tuple(e.poly.coefficients() for e in entries)
        assert row.canonical == (row.n, row.m % row.n)


def test_arithmetic_runs_once_per_n_and_l(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(atlas, "sector_arithmetic", lambda s: calls.update([(s.n, s.l)]) or sector_arithmetic(s))
    rows = build_atlas(60, 25)  # n > mmax + 1: classes past mmax have no row and get no call
    assert set(calls) == {(row.n, row.l) for row in rows}
    assert max(calls.values()) == 1 and len(calls) < len({(row.n, row.m % row.n) for row in rows})


def test_ks_run_once_per_class_with_n_dividing_l2(monkeypatch):
    calls = Counter()

    def counted_ks(s, ar):
        calls.update([(s.n, s.m % s.n)])
        return admissible_ks(s, ar)

    def refuse(*args):
        raise AssertionError("build_atlas called packing_polynomial")

    monkeypatch.setattr(atlas, "admissible_ks", counted_ks)
    for module in (poly, classify_module, atlas):
        monkeypatch.setattr(module, "packing_polynomial", refuse, raising=False)
    rows = build_atlas(60, 25)
    divisible = {(row.n, row.m % row.n) for row in rows if row.l2_over_n.denominator == 1}
    assert set(calls) == divisible and max(calls.values()) == 1
    assert sum(row.qpp_count for row in rows) > 0


def test_class_arithmetic_is_shear_invariant_over_atlas_range():
    # build_atlas computes the arithmetic once per (n, l), and ks and canonical pair once per
    # class (n, m mod n), and copies them to every row; each row must still hold what its own
    # sector gives.  The row's polynomials come from the closed form, whose alpha form the paper fixes
    rows = build_atlas(300, 300)
    sectors = coprime_sectors(300, 300)
    assert len(rows) == len(sectors) == 54_796
    for row, s in zip(rows, sectors):
        n, m = s.n, s.m
        canon = SectorSpec(n, m % n)
        ar, canon_ar = sector_arithmetic(s), sector_arithmetic(canon)
        assert ar == canon_ar
        assert admissible_ks(s, ar) == admissible_ks(canon, canon_ar)
        assert row.ks == tuple(admissible_ks(s, ar))
        assert row.polynomials == tuple(packing_polynomial(s, k).coefficients() for k in row.ks)
        assert row.canonical == (canon.n, canon.m)
        assert (row.n, row.m, row.l, row.n_over_l, row.l2_over_n) == (n, m, ar.l, ar.n_over_l, ar.l2_over_n)
        # n | l^2 iff n | (m-1)^2, and (m-1)/l is a unit mod n/l
        assert ar.divides_n_l2 == (row.l2_over_n.denominator == 1) == ((m - 1) ** 2 % n == 0)
        assert (m - 1) % row.l == 0 and gcd((m - 1) // row.l, row.n_over_l) == 1
        for k, coeffs in zip(row.ks, row.polynomials, strict=True):
            alpha = to_alpha_form(QuadPoly(*coeffs))
            assert (alpha.A, alpha.B) == (n, 1 - m)
            assert alpha.F == ar.l2_over_n * (abs(k) - 1) * (abs(k) + 1) / 12 == abs(k) - 1
