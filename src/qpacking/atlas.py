"""Tabulating classifications over ranges of rational slopes.

One row per coprime (n, m) sector plus the first-quadrant row (1, 0), each
carrying the derived arithmetic, the admissible step constants, the polynomial
coefficient tuples and the canonical shear representative (n, m mod n).  The
arithmetic depends on the sector only through n and l = gcd(m-1, n), and the
shear (x, y) -> (x + t y, y) leaves all but the polynomials unchanged, so the
rows of a class (n, m mod n) share the class facts, taken from (n, l); each row's
polynomials are ``poly.packing_coefficients`` of its own (n, m) for the ks of its class.  Serialization
is byte-reproducible: JSON keeps rationals as numerator/denominator strings,
CSV as "p/q" text.  Both texts are written directly, one piece per row joined once:
every JSON key is fixed and every value an integer or a string of digits, laid out
as ``json.dumps(indent=2)``; every CSV field is an integer, a rational printed from
its numerator and denominator as ``str(Fraction)`` prints it, or numbers joined by
" " and ";", so nothing needs escaping, and no field holds ",", '"' or a newline to quote.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .classify import admissible_ks, sector_arithmetic
from .geometry import SectorSpec
from .poly import packing_coefficients


MAX_ATLAS_CELLS = 250_000  # nmax * mmax: the (n, m) pairs an atlas scans


class AtlasRow(NamedTuple):
    n: int
    m: int
    l: int
    n_over_l: int
    l2_over_n: Fraction
    qpp_count: int
    ks: tuple[int, ...]
    polynomials: tuple[tuple[Fraction, ...], ...]
    canonical: tuple[int, int]


def check_atlas_size(nmax: int, mmax: int) -> None:
    """Refuse with ``ValueError`` a range that is empty or has more than ``MAX_ATLAS_CELLS`` pairs (n, m)."""
    if nmax < 1 or mmax < 1:
        raise ValueError(f"nmax and mmax must be >= 1, got {nmax}, {mmax}")
    if nmax * mmax > MAX_ATLAS_CELLS:
        raise ValueError(f"atlas of nmax {nmax} by mmax {mmax} has more than {MAX_ATLAS_CELLS} cells")


def build_atlas(nmax: int, mmax: int) -> list[AtlasRow]:
    """All rows for coprime (n, m) with n <= nmax, 1 <= m <= mmax, plus (1, 0), in (n, m) order.

    Class facts come from (n, l) with l = gcd(m-1, n): ``sector_arithmetic`` runs once per pair
    (n, l), and ``admissible_ks`` once per class (n, m mod n) whose (n, l) has n | l^2; the other
    classes have no ks.  The canonical pair of a class is (n, m mod n).  Each row's polynomials are
    ``packing_coefficients(n, m, k)`` for those ks, as ``classify`` lists them.
    A range that ``check_atlas_size`` refuses raises its ``ValueError`` before any row is built.
    """
    check_atlas_size(nmax, mmax)
    rows = []
    for n in range(1, nmax + 1):
        arithmetic = {}  # l -> sector_arithmetic of this n's sectors with gcd(m-1, n) = l
        classes = {}  # m mod n -> (l, n/l, l^2/n, qpp count, ks, canonical pair), for the m <= mmax coprime to n
        for r in range(min(n, mmax + 1)):  # each class's first m is its residue; r = 0 only for n = 1
            if gcd(n, r) == 1:
                l = gcd(r - 1, n)
                ar = arithmetic.get(l)
                if ar is None:
                    ar = arithmetic[l] = sector_arithmetic(SectorSpec(n, r))
                ks = tuple(admissible_ks(SectorSpec(n, r), ar)) if ar.divides_n_l2 else ()
                classes[r] = (l, ar.n_over_l, ar.l2_over_n, len(ks), ks, (n, r))
        for m in range(mmax + 1):
            cls = classes.get(m % n)
            if cls is not None:
                l, n_over_l, l2_over_n, qpp_count, ks, canonical = cls
                polys = tuple(packing_coefficients(n, m, k) for k in ks) if ks else ()
                rows.append(AtlasRow(n, m, l, n_over_l, l2_over_n, qpp_count, ks, polys, canonical))
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


def atlas_to_json(rows: list[AtlasRow], nmax: int, mmax: int) -> str:
    """The atlas as ``json.dumps(indent=2)`` lays it out, joined once from a head, one piece per row and a tail."""
    parts = [f'{{\n  "nmax": {nmax},\n  "mmax": {mmax},\n  "rows": [']
    lead = "\n    "  # what precedes a row: the opening line break, then a comma too
    for n, m, l, n_over_l, l2_over_n, qpp_count, ks, polynomials, (canonical_n, canonical_m) in rows:
        # most rows have no ks: writing "[]" for them skips building and laying out empty lists
        ks_text = _json_block([str(k) for k in ks], " " * 6) if ks else "[]"
        polys = _json_block([_json_block([_rational_text(c, " " * 10) for c in poly], " " * 8)
                             for poly in polynomials], " " * 6) if polynomials else "[]"
        parts.append(f"""{lead}{{
      "n": {n},
      "m": {m},
      "l": {l},
      "n_over_l": {n_over_l},
      "l2_over_n": {{
        "num": "{l2_over_n.numerator}",
        "den": "{l2_over_n.denominator}"
      }},
      "qpp_count": {qpp_count},
      "ks": {ks_text},
      "polynomials": {polys},
      "canonical_sector": [
        {canonical_n},
        {canonical_m}
      ]
    }}""")
        lead = ",\n    "
    close = "\n  ]" if rows else "]"
    by_count = _json_block([f'"{c}": {n}' for c, n in summary_counts(rows).items()], "    ", "{}")
    parts.append(f"""{close},
  "summary": {{
    "total": {len(rows)},
    "by_count": {by_count}
  }}
}}
""")
    return "".join(parts)


def _rational_csv(q: Fraction) -> str:
    """``str(q)``: "p" for an integer, else "p/q"."""
    num, den = q.as_integer_ratio()
    return f"{num}" if den == 1 else f"{num}/{den}"


def atlas_to_csv(rows: list[AtlasRow]) -> str:
    """The atlas as CSV lines, joined once: the header, one line per row, the summary comment."""
    lines = ["n,m,l,n_over_l,l2_over_n,qpp_count,ks,canonical_n,canonical_m,polynomials\n"]
    for n, m, l, n_over_l, l2_over_n, qpp_count, ks, polynomials, (canonical_n, canonical_m) in rows:
        ks_text = " ".join(map(str, ks)) if ks else ""  # most rows have none: skip the joins
        polys = ";".join(" ".join(map(_rational_csv, poly)) for poly in polynomials) if polynomials else ""
        num, den = l2_over_n.as_integer_ratio()  # written as _rational_csv writes it
        lines.append(f"{n},{m},{l},{n_over_l},{num}{'' if den == 1 else f'/{den}'},{qpp_count},{ks_text},"
                     f"{canonical_n},{canonical_m},{polys}\n")
    lines.append(f"# {summary_line(rows)}\n")
    return "".join(lines)
