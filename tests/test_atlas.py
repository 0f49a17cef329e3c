import csv
import io
import json
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from qpacking import atlas, poly
from qpacking import classify as classify_module
from qpacking.atlas import atlas_to_csv, atlas_to_json, build_atlas, summary_line
from qpacking.classify import admissible_ks, classify, sector_arithmetic
from qpacking.geometry import SectorSpec
from qpacking.poly import QuadPoly, packing_polynomial, to_alpha_form

from helpers import (atlas_rows, coprime_sectors, reference_atlas_csv, reference_atlas_json, reference_atlas_payload,
                     reference_summary_line)

F = Fraction

# Classes with 0, 1, 2 and 4 ks, negative ks and coefficients, and numbers of several
# digits; the columns (l, n/l, l^2/n) need not be those of the sector.  At mmax 40 they
# hold 13, 10, 5 and 1 rows.
HAND_TABLE = {
    3: {2: ((1, 3, F(1, 3)), ())},
    4: {3: ((2, 2, F(1)), (1, -1))},
    9: {4: ((3, 3, F(1)), (1,))},
    1234: {5: ((617, 2, F(-380689, 1234)), (1, -1, 3, -3))},
}


TABLES = pytest.mark.parametrize("table, nmax, mmax", [
    (build_atlas(30, 30), 30, 30),
    (build_atlas(1, 1), 1, 1),
    (build_atlas(12, 5), 12, 5),
    (HAND_TABLE, 1234, 40),
    ({3: HAND_TABLE[3]}, 3, 2),
    ({}, 1, 1),
], ids=["30x30", "1x1", "12x5", "hand-table", "one-empty-row", "no-rows"])


@TABLES
def test_json_matches_json_dumps_reference(table, nmax, mmax):
    text = atlas_to_json(table, nmax, mmax)
    assert text == reference_atlas_json(table, nmax, mmax)
    assert json.loads(text) == reference_atlas_payload(table, nmax, mmax)


@TABLES
def test_csv_matches_csv_writer_reference(table, nmax, mmax):
    text = atlas_to_csv(table, mmax)
    assert text == reference_atlas_csv(table, mmax)
    rows = atlas_rows(table, mmax)
    fields = [[str(row.n), str(row.m), *map(str, row.columns), str(len(row.ks)), " ".join(str(k) for k in row.ks),
               str(row.n), str(row.m % row.n),
               ";".join(" ".join(str(c) for c in poly) for poly in row.polynomials)] for row in rows]
    assert list(csv.reader(io.StringIO(text))) == [
        ["n", "m", "l", "n_over_l", "l2_over_n", "qpp_count", "ks", "canonical_n", "canonical_m", "polynomials"],
        *fields,
        [f"# {reference_summary_line(rows)}"],
    ]


@pytest.mark.parametrize("nmax, mmax", [(40, 40), (60, 7), (7, 60), (1, 50), (50, 1)])
def test_rows_match_public_classification(nmax, mmax):
    # n > mmax + 1 leaves the classes past mmax without a row; n = 1 has the one class m mod 1 = 0
    rows = json.loads(atlas_to_json(build_atlas(nmax, mmax), nmax, mmax))["rows"]
    assert [(row["n"], row["m"]) for row in rows] == [(s.n, s.m) for s in coprime_sectors(nmax, mmax)]
    for row in rows:
        s = SectorSpec(row["n"], row["m"])
        ar = sector_arithmetic(s)
        entries = classify(s)
        l2_over_n = F(int(row["l2_over_n"]["num"]), int(row["l2_over_n"]["den"]))
        assert (row["l"], row["n_over_l"], l2_over_n) == (ar.l, ar.v, ar.l2_over_n)
        assert row["qpp_count"] == len(entries)
        assert row["ks"] == [e.k for e in entries]
        assert [[F(int(c["num"]), int(c["den"])) for c in p] for p in row["polynomials"]] == [
            list(e.poly.coefficients()) for e in entries]
        assert row["canonical_sector"] == [s.n, s.m % s.n]


def test_summary_counts_the_rows_of_every_range_up_to_40():
    # mmax < n - 1 leaves classes past mmax without a row, and n = 1 holds the quadrant row m = 0
    qpp_count = {(s.n, s.m): len(classify(s)) for s in coprime_sectors(40, 40)}
    for nmax in range(1, 41):
        for mmax in range(1, 41):
            counts = Counter(c for (n, m), c in qpp_count.items() if n <= nmax and m <= mmax)
            by_count = " ".join(f"qpp{c}={rows}" for c, rows in sorted(counts.items()))
            assert summary_line(build_atlas(nmax, mmax), mmax) == f"sectors={sum(counts.values())} {by_count}"


def test_records_run_for_the_first_class_of_each_n_and_l_and_each_class_with_n_dividing_l2(monkeypatch):
    # the first class of each (n, l) gives the shared columns, and each class with n | l^2 has its own record
    calls = Counter()
    monkeypatch.setattr(atlas, "sector_arithmetic", lambda s: calls.update([(s.n, s.m)]) or sector_arithmetic(s))
    build_atlas(60, 25)  # n > mmax + 1: classes past mmax have no row and get no call
    classes = sorted({(s.n, s.m % s.n) for s in coprime_sectors(60, 25)})
    expected, first = set(), set()
    for n, r in classes:
        l = gcd(r - 1, n)
        if (n, l) not in first or l * l % n == 0:
            expected.add((n, r))
        first.add((n, l))
    assert calls == Counter(expected)
    assert len(first) < len(expected) < len(classes)


def test_ks_run_once_per_class_with_n_dividing_l2(monkeypatch):
    calls = Counter()

    def counted_ks(st):
        calls.update([(st.n, (st.u * st.l + 1) % st.n)])  # the class r = m mod n, m - 1 = u l
        return admissible_ks(st)

    def refuse(*args):
        raise AssertionError("build_atlas computed a polynomial")

    monkeypatch.setattr(atlas, "admissible_ks", counted_ks)
    for module in (poly, classify_module, atlas):
        monkeypatch.setattr(module, "packing_polynomial", refuse, raising=False)
        monkeypatch.setattr(module, "packing_coefficients", refuse, raising=False)
    table = build_atlas(60, 25)
    divisible = {(s.n, s.m % s.n) for s in coprime_sectors(60, 25) if (s.m - 1) ** 2 % s.n == 0}
    assert set(calls) == divisible and max(calls.values()) == 1
    assert sum(len(ks) for classes in table.values() for _, ks in classes.values()) > 0


def test_class_arithmetic_is_shear_invariant_over_atlas_range():
    # build_atlas computes the arithmetic once per (n, l) and the ks once per class (n, m mod n),
    # and the writer lays them out for every row of the class; each row must still hold what its own
    # sector gives.  The row's polynomials come from the closed form, whose alpha form the paper fixes
    table = build_atlas(300, 300)
    rows = list(csv.reader(io.StringIO(atlas_to_csv(table, 300))))[1:-1]
    sectors = coprime_sectors(300, 300)
    assert len(rows) == len(sectors) == 54_796
    for (n_text, m_text, l, n_over_l, l2_over_n, qpp_count, ks, canon_n, canon_m, polys), s in zip(rows, sectors):
        n, m = s.n, s.m
        canon = SectorSpec(n, m % n)
        ar, canon_ar = sector_arithmetic(s), sector_arithmetic(canon)
        columns = (ar.l, ar.v, ar.l2_over_n)
        # u = (m-1)/l moves by a multiple of v from the class representative to m
        assert (*columns, ar.divides_n_l2) == (canon_ar.l, canon_ar.v, canon_ar.l2_over_n, canon_ar.divides_n_l2)
        assert (ar.u - canon_ar.u) % ar.v == 0
        assert admissible_ks(ar) == admissible_ks(canon_ar)
        assert table[n][m % n] == (columns, tuple(admissible_ks(ar)))
        row_ks = tuple(int(k) for k in ks.split())
        assert row_ks == tuple(admissible_ks(ar)) and int(qpp_count) == len(row_ks)
        row_polys = [tuple(F(c) for c in p.split()) for p in polys.split(";")] if polys else []
        assert row_polys == [packing_polynomial(s, k).coefficients() for k in row_ks]
        assert (int(canon_n), int(canon_m)) == (canon.n, canon.m)
        assert (int(n_text), int(m_text), int(l), int(n_over_l), F(l2_over_n)) == (n, m, *columns)
        # n | l^2 iff n | (m-1)^2, and u = (m-1)/l is a unit mod v = n/l
        assert ar.divides_n_l2 == (ar.l2_over_n.denominator == 1) == ((m - 1) ** 2 % n == 0)
        assert (ar.n, ar.u * ar.l, ar.v * ar.l) == (n, m - 1, n) and gcd(ar.u, ar.v) == 1
        for k, coeffs in zip(row_ks, row_polys, strict=True):
            alpha = to_alpha_form(QuadPoly(*coeffs))
            assert (alpha.A, alpha.B) == (n, 1 - m)
            assert alpha.F == ar.l2_over_n * (abs(k) - 1) * (abs(k) + 1) / 12 == abs(k) - 1
