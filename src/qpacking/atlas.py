"""Tabulating classifications over ranges of rational slopes.

One row per coprime (n, m) sector plus the first-quadrant row (1, 0), each
carrying the derived arithmetic, the admissible step constants, the polynomial
coefficient tuples and the canonical shear representative (n, m mod n).  The
shear (x, y) -> (x + t y, y) leaves all but the polynomials unchanged, so the
rows of a class share them; each row's polynomials are the closed forms
``packing_polynomial`` gives for the ks of its class.  Serialization
is byte-reproducible: JSON keeps rationals as numerator/denominator strings,
CSV as "p/q" text.  The JSON text is written directly, in the layout of
``json.dumps(payload, indent=2)``; every key is fixed and every value is an
integer or a string of decimal digits, so nothing needs escaping.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .classify import admissible_ks, canonical_sector, sector_arithmetic
from .geometry import SectorSpec
from .poly import packing_polynomial


MAX_ATLAS_CELLS = 250_000  # nmax * mmax: the (n, m) pairs an atlas scans


@dataclass(frozen=True)
class AtlasRow:
    n: int
    m: int
    l: int
    n_over_l: int
    l2_over_n: Fraction
    qpp_count: int
    ks: tuple[int, ...]
    polynomials: tuple[tuple[Fraction, ...], ...]
    canonical: tuple[int, int]


def build_atlas(nmax: int, mmax: int) -> list[AtlasRow]:
    """All rows for coprime (n, m) with n <= nmax, 1 <= m <= mmax, plus (1, 0), in (n, m) order.

    Arithmetic, ks and canonical pair come once per class (n, m mod n); each row's polynomials
    are ``packing_polynomial`` of the row's sector for those ks, as ``classify`` lists them.
    An atlas of more than ``MAX_ATLAS_CELLS`` pairs (n, m) is refused with ``ValueError``.
    """
    if nmax < 1 or mmax < 1:
        raise ValueError(f"nmax and mmax must be >= 1, got {nmax}, {mmax}")
    if nmax * mmax > MAX_ATLAS_CELLS:
        raise ValueError(f"atlas of nmax {nmax} by mmax {mmax} has more than {MAX_ATLAS_CELLS} cells")
    rows = []
    for n in range(1, nmax + 1):
        classes = {}  # m mod n -> (arithmetic, ks, canonical pair) of the class, for this n only
        for m in (m for m in range(mmax + 1) if gcd(n, m) == 1):  # m = 0 only in (1, 0)
            if m % n not in classes:
                canon = canonical_sector(SectorSpec(n, m))
                ar = sector_arithmetic(canon)
                classes[m % n] = (ar, tuple(admissible_ks(canon, ar)), (canon.n, canon.m))
            ar, ks, canonical = classes[m % n]
            polys = tuple(packing_polynomial(SectorSpec(n, m), k).coefficients() for k in ks)
            rows.append(AtlasRow(n, m, ar.l, ar.n_over_l, ar.l2_over_n, len(polys), ks, polys, canonical))
    return rows


def summary_counts(rows: list[AtlasRow]) -> dict[int, int]:
    return dict(sorted(Counter(row.qpp_count for row in rows).items()))


def summary_line(rows: list[AtlasRow]) -> str:
    by_count = " ".join(f"qpp{c}={n}" for c, n in summary_counts(rows).items())
    return f"sectors={len(rows)} {by_count}"


# -- serialization -------------------------------------------------------------


def rational_json(q: Fraction) -> dict[str, str]:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _json_block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """Laid-out items as the indent=2 list (or, with brackets "{}", dict) that opens at depth ``pad``."""
    inner = f",\n{pad}  "
    return f"{brackets[0]}\n{pad}  {inner.join(items)}\n{pad}{brackets[1]}" if items else brackets


def _rational_text(q: Fraction, pad: str) -> str:
    return f'{{\n{pad}  "num": "{q.numerator}",\n{pad}  "den": "{q.denominator}"\n{pad}}}'


def _row_json(row: AtlasRow) -> str:
    polys = _json_block([_json_block([_rational_text(c, " " * 10) for c in poly], " " * 8)
                         for poly in row.polynomials], " " * 6)
    return f"""{{
      "n": {row.n},
      "m": {row.m},
      "l": {row.l},
      "n_over_l": {row.n_over_l},
      "l2_over_n": {_rational_text(row.l2_over_n, " " * 6)},
      "qpp_count": {row.qpp_count},
      "ks": {_json_block([str(k) for k in row.ks], " " * 6)},
      "polynomials": {polys},
      "canonical_sector": [
        {row.canonical[0]},
        {row.canonical[1]}
      ]
    }}"""


def atlas_to_json(rows: list[AtlasRow], nmax: int, mmax: int) -> str:
    by_count = _json_block([f'"{c}": {n}' for c, n in summary_counts(rows).items()], "    ", "{}")
    return f"""{{
  "nmax": {nmax},
  "mmax": {mmax},
  "rows": {_json_block([_row_json(row) for row in rows], "  ")},
  "summary": {{
    "total": {len(rows)},
    "by_count": {by_count}
  }}
}}
"""


CSV_HEADER = ["n", "m", "l", "n_over_l", "l2_over_n", "qpp_count", "ks", "canonical_n", "canonical_m", "polynomials"]


def atlas_to_csv(rows: list[AtlasRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        polys = ";".join(" ".join(str(c) for c in poly) for poly in row.polynomials)
        writer.writerow([
            row.n, row.m, row.l, row.n_over_l, str(row.l2_over_n),
            row.qpp_count, " ".join(str(k) for k in row.ks),
            row.canonical[0], row.canonical[1], polys,
        ])
    buffer.write(f"# {summary_line(rows)}\n")
    return buffer.getvalue()
