import json
from fractions import Fraction

import pytest

from qpacking import SectorSpec, classify, sector_arithmetic
from qpacking.atlas import AtlasRow, atlas_to_json, build_atlas

from helpers import coprime_sectors, reference_atlas_json, reference_atlas_payload

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


@pytest.mark.parametrize("rows, nmax, mmax", [
    (build_atlas(30, 30), 30, 30),
    (build_atlas(1, 1), 1, 1),
    (build_atlas(12, 5), 12, 5),
    (HAND_ROWS, 7, 9),
    (HAND_ROWS[:1], 1, 1),
    ([], 1, 1),
], ids=["30x30", "1x1", "12x5", "hand-rows", "one-empty-row", "no-rows"])
def test_json_matches_json_dumps_reference(rows, nmax, mmax):
    text = atlas_to_json(rows, nmax, mmax)
    assert text == reference_atlas_json(rows, nmax, mmax)
    assert json.loads(text) == reference_atlas_payload(rows, nmax, mmax)


def test_rows_match_public_classification():
    rows = build_atlas(40, 40)
    assert [(row.n, row.m) for row in rows] == [(s.n, s.m) for s in coprime_sectors(40, 40)]
    for row in rows:
        s = SectorSpec(row.n, row.m)
        ar = sector_arithmetic(s)
        entries = classify(s)
        assert (row.l, row.n_over_l, row.l2_over_n) == (ar.l, ar.n_over_l, ar.l2_over_n)
        assert row.qpp_count == len(entries)
        assert row.ks == tuple(e.k for e in entries)
        assert row.polynomials == tuple(e.poly.coefficients() for e in entries)
        assert row.canonical == (row.n, row.m % row.n)
